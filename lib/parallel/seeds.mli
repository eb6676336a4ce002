(** Per-task PRNG seed derivation for parallel fan-out.

    Workers must never share a generator: a shared stream makes the
    sample a task consumes depend on scheduling order, which destroys
    the pool's bit-for-bit determinism guarantee.  Instead, derive one
    independent seed per task {e up front} on the driving domain — as
    [Netsim.Replicate] does for its replications — and give each
    task its own [Desim.Prng.create ~seed].  The derivation is a pure
    function of [(base_seed, n)], so every [jobs] sees identical
    per-task seeds. *)

val derive : base_seed:int64 -> int -> int64 array
(** [derive ~base_seed n] is [n] seeds drawn from a fresh
    [Desim.Prng.create ~seed:base_seed] stream, in order.
    @raise Invalid_argument on negative [n]. *)
