(** Leftover service curves for ∆-schedulers — Theorem 1 of the paper.

    For a tagged flow [j] at a link of capacity [C] shared with cross flows
    [k] (each with statistical sample-path envelope [G_k], bounding function
    [eps_k], and precedence constant [∆_{j,k}]), the function

    [S_j (t; θ) = (C t -. sum_k G_k (t -. θ +. ∆_{j,k} (θ)))_+ · I (t > θ)]

    is a statistical service curve with bounding function
    [inf_{sum σ_k = σ} sum_k eps_k σ_k], for every [θ >= 0.]. *)

type cross = {
  envelope : Minplus.Curve.t;
  (** statistical sample-path envelope [G_k] (deterministic envelope [E_k]
      in the worst-case variant) *)
  bound : Envelope.Exponential.t;  (** its bounding function [eps_k] *)
  delta : Scheduler.Delta.t;  (** [∆_{j,k}] *)
}

val statistical :
  capacity:float ->
  theta:float ->
  cross:cross list ->
  Minplus.Curve.t * Envelope.Exponential.t
[@@lint.allow "unused-export"] (* deletion deferred: the six "Thm1: ..." cases of test_core_analysis.ml *)
(** The Theorem-1 service curve and its (optimally combined) bounding
    function.  Flows with [delta = Neg_inf] never precede the tagged flow
    and are excluded (the set [N_{-j}]); if every flow is excluded the
    bounding function is identically [0.] (deterministic full-capacity
    service).  @raise Invalid_argument on negative capacity or [theta]. *)

val deterministic :
  capacity:float ->
  theta:float ->
  cross:(Minplus.Curve.t * Scheduler.Delta.t) list ->
  Minplus.Curve.t
(** The worst-case variant (Eq. 19) with deterministic envelopes. *)

val affine_leftover :
  capacity:float ->
  theta:float ->
  cross_rate:float ->
  delta:Scheduler.Delta.t ->
  Minplus.Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_core_analysis.ml "Thm1: affine specialization" *)
(** Specialization to an affine cross envelope [G_c t = cross_rate *. t]
    (the EBB sample-path envelope of Section IV, Eq. 28): a rate-latency
    shaped curve computed in closed form. *)
