(** Deterministic (worst-case) end-to-end analysis — the [gamma = 0.] limit
    discussed at the end of Section IV, carried out with the min-plus
    toolbox: per-node leftover service curves (Eq. 19) are convolved into a
    path service curve and the delay bound is the horizontal deviation
    against the through envelope.

    As the paper notes, for FIFO these bounds are weaker than specialized
    FIFO analyses (e.g. Lenzini et al.), but they apply uniformly to every
    ∆-scheduler. *)

type node = {
  capacity : float;
  cross_envelope : Minplus.Curve.t;  (** deterministic cross envelope *)
  delta : Scheduler.Delta.t;
}

val delay_bound :
  nodes:node list -> through:Minplus.Curve.t -> thetas:float list -> float
(** Horizontal deviation of the through envelope against the convolution
    of the per-node Eq.-19 curves with the given [theta]s.
    @raise Invalid_argument on length mismatch or an empty path. *)

val delay_bound_uniform_theta :
  ?theta_points:int -> nodes:node list -> Minplus.Curve.t -> float
(** As the paper observes for [gamma = 0.], the optimal choice has all
    [theta_h] equal; minimize over a common [theta] by golden search on a
    bracketing grid. *)

val additive_delay_bound :
  nodes:node list -> through:Minplus.Curve.t -> float
[@@lint.allow "unused-export"] (* oracle: test_extensions.ml "det additive dominates" *)
(** The node-by-node alternative: per-node horizontal deviation (with
    [theta = 0.]) plus output-envelope propagation by deconvolution.
    Always at least {!delay_bound} with the same [theta]s ("pay bursts
    only once"); the deterministic counterpart of {!Additive}. *)

val backlog_bound :
  nodes:node list -> through:Minplus.Curve.t -> thetas:float list -> float
[@@lint.allow "unused-export"] (* deletion deferred: test_extensions.ml "det backlog" *)
(** Worst-case end-to-end backlog: vertical deviation against the
    convolved path service curve. *)
