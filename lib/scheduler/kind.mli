(** The four schedulers the paper compares, by name: FIFO, BMUX, SP
    (through traffic high) and EDF with [d*_c = ratio *. d*_0].  Each one
    reduces to a single [∆_{0,c}] (Section IV); this is the one place that
    reduction is written.  The serve protocol, the CLI and the analysis
    all read a scheduler through this type. *)

type t =
  | Fifo
  | Bmux
  | Sp
  | Edf of { cross_over_through : float }
      (** deadline ratio [d*_c /. d*_0] *)

val of_string : ratio:float -> string -> t option
(** ["fifo"], ["bmux"], ["sp"], ["edf"] (with the given deadline ratio);
    [None] on any other name. *)

val label : t -> string
(** The name {!of_string} reads back. *)

val edf_gap : d_through:float -> ratio:float -> Classes.two_class
(** [Edf_gap (d_through *. (1. -. ratio))]: the EDF gap [∆_{0,c} =
    d*_0 -. d*_c] with the through deadline anchored at [d_through].  A
    [-0] gap is returned as [+0], so the two spellings are one gap. *)

val two_class : d_through:float -> t -> Classes.two_class
(** The two-class descriptor: [Fifo], [Bmux], [Sp_through_high], or
    {!edf_gap} anchored at [d_through] for [Edf]. *)
