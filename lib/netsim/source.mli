(** Aggregate of [n] independent two-state on-off Markov sources, advanced
    slot by slot.  The aggregate ON-count is itself a Markov chain: from
    [k] ON flows the next count is
    Bin(k, p_stay_on) + Bin(n - k, 1 - p_stay_off).  [step] samples that
    kernel's row [k] by one inversion (DESIGN.md §8). *)

type laws
(** A source's kernel rows, one table per flow count [n], each row built
    on the first visit to its count.  Mutable: share one value among the
    aggregates of one run, on one domain. *)

val laws : Envelope.Mmpp.t -> laws
(** An empty table; building it costs nothing.
    @raise Invalid_argument on a transition probability outside
    [\[0, 1\]] (NaN included). *)

val row : laws -> n:int -> k:int -> int * int array
[@@lint.allow "unused-export"] (* test hook: test_desim.ml "kernel row = flow-by-flow law" *)
(** [(lo, cuts)]: row [k] of the kernel of [n] flows, built if needed.
    From [k] ON flows the next count is [lo + i] with probability
    [(cuts.(i) - cuts.(i-1)) 2{^-53}] ([cuts.(-1)] read as 0); the cuts
    are non-decreasing and end at 2{^53}, and a row with one cut draws
    nothing.  @raise Invalid_argument on [k] outside [\[0, n\]]. *)

type t

val create : ?laws:laws -> Envelope.Mmpp.t -> n:int -> rng:Desim.Prng.t -> t
(** The initial ON-count is drawn from the stationary distribution
    ({!Desim.Prng.binomial}), so runs start in steady state.  [laws]
    defaults to a fresh [laws src]; aggregates that share one value
    share its rows.
    @raise Invalid_argument on [n < 0], on [laws] built for a source
    other than [src], or as {!laws} does. *)

val step : t -> float
(** Emit the current slot's data (kb) and advance the chain: one
    {!Desim.Prng.invert} draw on the current count's row, one
    {!Desim.Prng.bits64} (none for a point-mass row).  Allocates nothing
    once the row exists: the emission is stored in the row. *)

val on_count : t -> int
[@@lint.allow "unused-export"] (* test hook: test_desim.ml "Source.step is one draw" *)
val mean_rate : t -> float
[@@lint.allow "unused-export"] (* oracle: test_netsim.ml "source mean rate" *)
(** Aggregate stationary mean rate (kb per slot). *)
