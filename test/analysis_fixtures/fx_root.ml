(* The executable root of the fixture set.  Each reference below makes
   the root import that fixture module; Fx_unreached and Fx_exempt are
   left out on purpose.  Of Fx_exports it names [direct], [Inner.nested]
   and, through a module alias, [stale_hook]. *)

open Analysis_fixtures
module X = Fx_exports

let () =
  ignore (Sys.opaque_identity Fx_alloc_neg.clamp);
  ignore (Sys.opaque_identity Fx_alloc_pos.pair);
  ignore (Sys.opaque_identity (Fx_exports.direct 1 + Fx_exports.Inner.nested));
  ignore (Sys.opaque_identity Fx_idents.roll);
  ignore (Sys.opaque_identity X.stale_hook);
  ignore (Sys.opaque_identity Fx_race_neg.atomic_bump);
  ignore (Sys.opaque_identity Fx_race_pos.counter_bump);
  ignore (Sys.opaque_identity Fx_stale_allow.fine);
  ignore (Sys.opaque_identity Fx_suppressed.hits)
