(** The extended-real precedence constants of ∆-schedulers (Definition 1).

    [Delta j k] bounds the arrival times of flow-[k] traffic that may have
    precedence over a flow-[j] arrival at time [t]: only flow-[k] arrivals
    before [t +. Delta j k] can be served first.  [Neg_inf] means flow [k]
    {e never} has precedence (e.g. lower static priority); [Pos_inf] means
    it {e always} does (blind multiplexing). *)

type t = Neg_inf | Fin of float | Pos_inf

val fin : float -> t
val zero : t

val clip : t -> float -> t
(** [clip d y] is [∆(y) = min (∆, y)] (Eq. 7): [Neg_inf] stays [Neg_inf];
    [Pos_inf] becomes [Fin y]; [Fin x] becomes [Fin (min x y)]. *)

val clip_fin : t -> float -> float option
(** Like {!clip} but returns [None] for [Neg_inf] (the flow is excluded
    from the analysis, cf. the set [N_j] in the paper) and the finite value
    otherwise. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_float : t -> float
(** [Neg_inf -> neg_infinity], [Pos_inf -> infinity]. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** One ∆ entry, surrounding blanks ignored: ["inf"] or ["+inf"] is
    [Pos_inf], ["-inf"] is [Neg_inf], any other float is {!fin}'s
    constant.  ["nan"] is kept as [Fin nan], so a contract checker, not
    the parser, rejects it; a caller that cannot take NaN tests for it. *)

val matrix_of_string : string -> (t array array, string) result
(** A square ∆ matrix, rows separated by [';'] and entries by [','],
    each read by {!of_string}. *)
