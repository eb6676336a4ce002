(* A [@lint.allow] for a per-file rule that suppresses nothing: with
   --warn-unused-allow the analyzer must report unused-allow here, at
   the attribute's line. *)

let fine (x : int) = x + 1 [@@zero_alloc_check]

let stale n = (n * 2 [@lint.allow "zero-alloc"])
