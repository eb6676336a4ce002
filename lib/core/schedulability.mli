(** Worst-case schedulability for ∆-schedulers — Theorem 2 of the paper.

    With deterministic envelopes [E_k] and a link of capacity [C], traffic
    of the tagged flow meets the delay bound [d] iff (for concave envelopes)

    [sup_{t > 0.} (sum_{k in N_j} E_k (t +. ∆_{j,k} (d)) -. C t) <= C d.]

    This recovers the exact admission conditions for FIFO, SP, and EDF of
    Cruz and Liebeherr–Wrege–Ferrari. *)

type flow = {
  envelope : Minplus.Curve.t;  (** deterministic envelope [E_k] *)
  delta : Scheduler.Delta.t;  (** [∆_{j,k}] with respect to the tagged flow *)
}
(** The tagged flow itself must be included with [delta = Fin 0.]. *)

val flow_of_string : string -> (flow, string) result
(** A leaky-bucket flow [RATE:BURST[:DELTA]] (rate and burst
    non-negative, [DELTA] read by {!Scheduler.Delta.of_string}, default
    [0]).  A NaN anywhere is refused: Eq. (24) has no NaN precedence. *)

val slack : capacity:float -> delay:float -> flow list -> float
(** [C d -. sup_{t>0} (sum_k E_k (t +. ∆_{j,k} (d)) -. C t)] — the margin
    of Eq. (24); non-negative iff the delay bound holds. *)

val check : capacity:float -> delay:float -> flow list -> bool
(** Eq. (24).  Sufficient for any envelopes; also necessary when every
    envelope is concave (Theorem 2). *)

val min_delay : ?tol:float -> capacity:float -> flow list -> float
(** Smallest delay [d] passing {!check}, by bracketed bisection.
    [infinity] if no finite delay works (overload). *)

val fifo_min_delay : capacity:float -> (float * float) list -> float
[@@lint.allow "unused-export"] (* oracle: test_core_analysis.ml "Thm2: FIFO exact" *)
(** Closed form for FIFO with leaky buckets [(rate, burst)]:
    [sum bursts /. capacity] (valid when [sum rates <= capacity]) —
    used to cross-validate {!min_delay}.  [infinity] on overload. *)

val sp_min_delay :
  capacity:float -> tagged:float * float -> higher:(float * float) list -> float
[@@lint.allow "unused-export"] (* oracle: test_core_analysis.ml "Thm2: SP exact" *)
(** Closed form for static priority with leaky buckets: the tagged flow
    waits behind its own burst and all higher-priority traffic:
    [d = (B_j +. sum B_high) /. (C -. sum R_high)] — the standard
    rate-latency result.  [infinity] on overload. *)
