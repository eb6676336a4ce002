(** Aggregate of [n] independent two-state on-off Markov sources, advanced
    slot by slot.  The aggregate ON-count is itself a Markov chain with a
    binomial transition kernel, which the implementation samples exactly. *)

type t

val create : Envelope.Mmpp.t -> n:int -> rng:Desim.Prng.t -> t
(** The initial ON-count is drawn from the stationary distribution, so runs
    start in steady state. *)

val step : t -> float
(** Emit the current slot's data (kb) and advance the chain: two
    binomial draws on laws precomputed by [create], allocating only the
    boxed result. *)

val on_count : t -> int
val flows : t -> int
val mean_rate : t -> float
(** Aggregate stationary mean rate (kb per slot). *)
