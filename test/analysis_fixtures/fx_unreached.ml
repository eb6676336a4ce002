(* Seeded positive for unreachable-module: no executable imports this
   module, so it must fire at line 1. *)

let orphan = 42
