(* Scheduler names and their one reduction to a two-class ∆. *)

type t = Fifo | Bmux | Sp | Edf of { cross_over_through : float }

let of_string ~ratio = function
  | "fifo" -> Some Fifo
  | "bmux" -> Some Bmux
  | "sp" -> Some Sp
  | "edf" -> Some (Edf { cross_over_through = ratio })
  | _ -> None

let label = function Fifo -> "fifo" | Bmux -> "bmux" | Sp -> "sp" | Edf _ -> "edf"

let edf_gap ~d_through ~ratio =
  let gap = d_through *. (1. -. ratio) in
  (* an underflowed d_through can give -0: the same gap as 0 *)
  Classes.Edf_gap (if Float.equal gap 0. then 0. else gap)

let two_class ~d_through = function
  | Fifo -> Classes.Fifo
  | Bmux -> Classes.Bmux
  | Sp -> Classes.Sp_through_high
  | Edf { cross_over_through } -> edf_gap ~d_through ~ratio:cross_over_through
