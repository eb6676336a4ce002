(** Admission control on top of the end-to-end delay bounds: the largest
    cross (or through) load a path can carry while a target end-to-end
    guarantee [(deadline, epsilon)] still holds — the provisioning question
    the paper's analysis is meant to answer. *)

type guarantee = {
  deadline : float;  (** end-to-end delay budget (ms) *)
  epsilon : float;  (** violation probability *)
}

type request = {
  base : Scenario.t;  (** template; its [epsilon] is overridden *)
  guarantee : guarantee;
}

val admissible : request -> scheduler:Scheduler.Kind.t -> u_cross:float -> bool
(** Does the guarantee hold with this cross utilization?  The bound is
    {!Scenario.bound_checked}'s at its default resolution: FIFO, BMUX
    and SP at their fixed gap, EDF with the paper's self-referential
    deadlines ([d*_0 = bound /. H], [d*_c = ratio *. d*_0]) solved as a
    fixed point.  As everywhere in
    this module, a bound counts only when its diagnostic is [Converged]
    (so an EDF fixed point that ends [Diverged] does not fit: its last
    iterate is not a bound) and it is [<= deadline]. *)

type decision = {
  admitted : bool;
  bound : float;  (** the computed end-to-end bound (ms) *)
  slack : float;  (** [deadline -. bound]; negative when rejected *)
  diag : Diag.t;  (** diagnostic of the underlying optimization *)
}

val decide : ?s_points:int -> request -> scheduler:Scheduler.Classes.two_class -> decision
(** One admission decision for the request exactly as specified (through
    and cross load from [base], no bisection): compute the checked bound
    on an [s_points] grid (default {!Scenario.s_points}) and compare it
    to the deadline.  Only a [Converged] bound may admit;
    [Unstable] and friends reject with the diagnostic attached — the
    conservative direction for an admission test.  Runs
    {!Contracts.check_guarantee} and {!Contracts.check_scenario} first.
    @raise Contracts.Violation when a domain contract fails. *)

val max_cross_utilization : request -> scheduler:Scheduler.Kind.t -> float
(** Largest admissible cross utilization (fraction of capacity at the mean
    rate), by bisection of {!admissible} to 1e-4;
    [0.] if even an empty link fails the guarantee.  The fixed-gap bounds
    are monotone in the load, so for them bisection is exact up to the
    resolution.

    Like {!max_through_flows}, runs {!Contracts.check_scenario} on the
    request's base scenario first.
    @raise Contracts.Violation when a domain contract fails. *)

val max_through_flows : request -> scheduler:Scheduler.Kind.t -> float
(** Dual question: with the cross load of [base] fixed, the largest number
    of through flows meeting the guarantee. *)
