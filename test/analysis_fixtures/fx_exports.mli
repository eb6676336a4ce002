(* Fixtures for unused-export.  Line numbers are pinned by
   test/analyze_fixtures.expected — append, don't reorder. *)

val direct : int -> int
(** The root names it. *)

val helper : int -> int
(** Reached only through the body of {!direct}. *)

module Inner : sig
  val nested : int
  (** The root names it as [Fx_exports.Inner.nested]. *)
end

val orphan : int
(** Nothing reaches it: the positive case. *)

val hook : int
[@@lint.allow "unused-export"] (* kept for a test: no finding *)

val stale_hook : int
[@@lint.allow "unused-export"] (* stale: the root reaches it through an alias *)
