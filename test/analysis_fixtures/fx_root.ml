(* The executable root of the fixture set.  Each reference below makes
   the root import that fixture module; Fx_unreached and Fx_exempt are
   left out on purpose. *)

open Analysis_fixtures

let () =
  ignore (Sys.opaque_identity Fx_alloc_neg.clamp);
  ignore (Sys.opaque_identity Fx_alloc_pos.pair);
  ignore (Sys.opaque_identity Fx_race_neg.atomic_bump);
  ignore (Sys.opaque_identity Fx_race_pos.counter_bump);
  ignore (Sys.opaque_identity Fx_stale_allow.fine);
  ignore (Sys.opaque_identity Fx_suppressed.hits)
