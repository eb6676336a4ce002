(* Unreached like Fx_unreached, but exempt: the file-level allow below
   suppresses the finding and is not stale. *)
[@@@lint.allow "unreachable-module"]

let kept = 7
