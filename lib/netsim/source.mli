(** Aggregate of [n] independent two-state on-off Markov sources, advanced
    slot by slot.  The aggregate ON-count is itself a Markov chain with a
    binomial transition kernel, which the implementation samples exactly. *)

type laws
(** A source's two transition laws (stay ON, turn ON), each with its
    gap table ({!Desim.Prng.binomial_law}).  Immutable, so one value may
    serve every aggregate of a run. *)

val laws : Envelope.Mmpp.t -> laws
(** Builds both tables: tens of microseconds, worth sharing across the
    aggregates of one run. *)

type t

val create : ?laws:laws -> Envelope.Mmpp.t -> n:int -> rng:Desim.Prng.t -> t
(** The initial ON-count is drawn from the stationary distribution, so runs
    start in steady state.  [laws] defaults to [laws src]; passing one
    shared value skips rebuilding the tables.
    @raise Invalid_argument on [n < 0] or on [laws] built for a source
    other than [src]. *)

val step : t -> float
(** Emit the current slot's data (kb) and advance the chain: two
    binomial draws on the laws, allocating only the boxed result. *)

val on_count : t -> int
val flows : t -> int
val mean_rate : t -> float
(** Aggregate stationary mean rate (kb per slot). *)
