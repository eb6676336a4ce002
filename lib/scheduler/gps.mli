(** Generalized Processor Sharing — the paper's example of a scheduler that
    is {e not} a ∆-scheduler (Section III): the arrival-time limit on
    higher-precedence traffic depends on the random backlog set, so no
    constants [∆_{j,k}] exist.

    This module provides the fluid per-slot service allocation used by the
    simulator: capacity is divided among backlogged classes in proportion to
    their weights, with iterative redistribution of unused shares
    (water-filling). *)

type t

val v : weights:float array -> t
(** @raise Invalid_argument on empty weights or a non-positive weight. *)

val allocate : t -> capacity:float -> backlogs:float array -> float array
(** [allocate t ~capacity ~backlogs] returns the amount of service granted
    to each class in one slot: proportional to weights among backlogged
    classes, never exceeding a class's backlog, with leftover capacity
    redistributed until exhausted (work conservation).  The result sums to
    [min capacity (sum backlogs)] up to rounding. *)
