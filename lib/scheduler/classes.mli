(** ∆-scheduler matrices for the schedulers named in the paper, plus the
    two-class (through / cross) descriptors used by the end-to-end analysis.

    A ∆-scheduler over flows [0 .. n-1] is described by the matrix
    [delta j k]; Definition 1 requires [delta j j = Fin 0.] (locally FIFO).
    GPS has no such matrix (Section III) and is deliberately absent here —
    see {!Gps} for its simulator model. *)

type matrix

val v : n:int -> (int -> int -> Delta.t) -> matrix
(** @raise Invalid_argument if [n <= 0], some [delta j j <> Fin 0.], or an
    entry is produced for an out-of-range flow. *)

val size : matrix -> int
val delta : matrix -> int -> int -> Delta.t

val fifo : n:int -> matrix
(** [delta j k = Fin 0.] for all [j], [k]. *)

val static_priority : priorities:int array -> matrix
(** Higher integer = higher priority.  [delta j k] is [Neg_inf] for lower-,
    [Fin 0.] for equal-, [Pos_inf] for higher-priority [k]. *)

val edf : deadlines:float array -> matrix
(** [delta j k = Fin (d_j -. d_k)] with the flows' a-priori delay
    constraints.  @raise Invalid_argument on a negative deadline. *)

val bmux : n:int -> tagged:int -> matrix
(** Blind multiplexing for flow [tagged]: it has low priority against every
    other flow ([delta tagged k = Pos_inf] for [k <> tagged]); the others
    are FIFO among themselves. *)

val precedence_set : matrix -> j:int -> int list
[@@lint.allow "unused-export"] (* deletion deferred: test_scheduler.ml "precedence set" *)
(** The set [N_j] of flows that can affect flow [j]'s delay:
    [{ k | delta j k <> Neg_inf }] (includes [j] itself). *)

(** {1 Two-class descriptors}

    The end-to-end analysis of Section IV distinguishes only the through
    flow (index 0) and the per-node cross aggregate; all that matters is
    [∆_{0,c}]. *)

type two_class =
  | Fifo
  | Bmux  (** through traffic blindly multiplexed: [∆_{0,c} = Pos_inf] *)
  | Sp_through_high  (** through traffic has strict priority: [Neg_inf] *)
  | Edf_gap of float  (** EDF with [∆_{0,c} = d*_0 -. d*_c] *)

val delta_through_cross : two_class -> Delta.t
