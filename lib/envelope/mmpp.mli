(** Discrete-time two-state (on-off) Markov-modulated traffic source, the
    workload of the paper's numerical examples.

    In each slot the source is OFF (state 1) or ON (state 2); in an ON slot
    it emits [peak] kilobits.  [p_stay_off] is the probability of remaining
    OFF ([p11] in the paper), [p_stay_on] of remaining ON ([p22]).  The
    paper's parameters ({!paper_source}) are [peak = 1.5] kb per 1 ms slot
    (1.5 Mbps peak), [p11 = 0.989], [p22 = 0.9], giving a mean rate of
    ~0.15 Mbps. *)

type t = { p_stay_off : float; p_stay_on : float; peak : float }

val v : p_stay_off:float -> p_stay_on:float -> peak:float -> t
(** @raise Invalid_argument unless both probabilities are in [\[0,1\]] and
    [peak > 0.].  The paper additionally assumes
    [p12 +. p21 <= 1.] (positively correlated states); this is checked. *)

val paper_source : t
(** The source used in all of the paper's examples. *)

val stationary_on : t -> float
(** Stationary probability of the ON state. *)

val mean_rate : t -> float
(** [stationary_on *. peak] (kb per slot). *)

val effective_bandwidth : t -> s:float -> float
(** The effective-bandwidth bound of Section V:
    [eb s = (1. /. s) *. log ((p11 +. p22 z +. sqrt ((p11 +. p22 z)^2
    -. 4. (p11 +. p22 -. 1.) z)) /. 2.)] with [z = exp (s *. peak)].
    Monotone in [s], between {!mean_rate} (s -> 0) and [peak]
    (s -> inf). *)

val ebb : t -> n:float -> s:float -> Ebb.t
(** EBB characterization of an aggregate of [n] independent copies:
    [A ~ (1., n *. eb s, s)]. *)

val autocovariance_decay : t -> float
[@@lint.allow "unused-export"] (* deletion deferred: test_envelope.ml "autocovariance decay" *)
(** Second eigenvalue [p11 +. p22 -. 1.] of the transition matrix — the
    geometric decay rate of the autocovariance (used by the simulator's
    warm-up heuristics). *)
