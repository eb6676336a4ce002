(** Exponentially Bounded Burstiness (EBB) traffic characterization
    (Yaron & Sidi), the probabilistic arrival model of the paper:

    [P (A (s, t) > rho *. (t -. s) +. sigma) <= m *. exp (-. alpha *. sigma)]

    for all [s <= t].  Written [A ~ (m, rho, alpha)]. *)

type t = { m : float; rho : float; alpha : float }
(** [m >= 1.] prefactor, [rho] long-term rate (kb/ms), [alpha > 0.] decay. *)

val v : m:float -> rho:float -> alpha:float -> t

val bounding : t -> Exponential.t
(** The interval bounding function [m *. exp (-. alpha *. sigma)]. *)

val aggregate : t list -> t
[@@lint.allow "unused-export"] (* deletion deferred: test_envelope.ml "ebb aggregate" *)
(** EBB bound for the sum of (not necessarily independent) EBB flows: rates
    add, bounding functions combine by the optimal split (Eq. 33). *)

type sample_path = {
  envelope_rate : float;  (** [G t = envelope_rate *. t] *)
  bound : Exponential.t;  (** [P (sup_s A (s,t) -. G (t -. s) > sigma) <= bound sigma] *)
}

val sample_path_envelope : t -> gamma:float -> sample_path
[@@lint.allow "unused-export"] (* test hook: test_core_analysis.ml "single node ordering" *)
(** Discrete-time statistical sample-path envelope via the union bound:
    [G t = (rho +. gamma) *. t] with bounding prefactor
    [m /. (1. -. exp (-. alpha *. gamma))].  @raise Invalid_argument on
    [gamma <= 0.]. *)

val to_curve : t -> gamma:float -> Minplus.Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_envelope.ml "ebb to curve" *)
(** The (affine) sample-path envelope as a min-plus curve. *)
