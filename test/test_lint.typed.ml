(* The analyzer's per-identifier rules (lib/analysis/idents.ml): for each
   rule a triggering, a non-triggering and a suppressed case.  Each case's
   source is type-checked in process against the stdlib and run through
   [Analysis.Engine.check_structure] under a file name that sets its zone,
   so no file I/O is involved; plus a golden test of the machine-readable
   output.  The group is built where the analysis library is (dune's
   select in test/dune). *)

open Alcotest

let typecheck ~file src =
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let str, _, _, _, _ =
    Typemod.type_structure (Compmisc.initial_env ()) (Parse.implementation lexbuf)
  in
  str

let findings ?warn_unused_allow ~file src =
  Analysis.Engine.check_structure ?warn_unused_allow ~file (typecheck ~file src)

let rules ~file src = findings ~file src |> List.map (fun f -> f.Analysis.Finding.rule)

let fires name ~file src rule () =
  check bool
    (Printf.sprintf "%s: %S fires %s" name src rule)
    true
    (List.mem rule (rules ~file src))

let silent name ~file src rule () =
  check bool
    (Printf.sprintf "%s: %S stays silent on %s" name src rule)
    false
    (List.mem rule (rules ~file src))

(* ---------------- float-equal ---------------- *)

let test_float_equal_fires =
  fires "float-equal" ~file:"lib/foo/a.ml" "let f x = x = 1.0" "float-equal"

let test_float_equal_operators () =
  List.iter
    (fun op ->
      check bool (op ^ " on a float literal fires") true
        (List.mem "float-equal"
           (rules ~file:"lib/foo/a.ml" (Printf.sprintf "let f x = x %s 0.5" op))))
    [ "="; "<>"; "=="; "!=" ]

let test_float_equal_heuristic () =
  (* A polymorphic [a = b] is not at float; Float.compare returns an
     int, so comparing it with 0 is fine. *)
  List.iter
    (fun src ->
      check bool (src ^ " does not fire") false
        (List.mem "float-equal" (rules ~file:"lib/foo/a.ml" src)))
    [
      "let f a b = a = b";
      "let f a b = Float.compare a b = 0";
      "let f a b = Float.equal a b";
      "let n = 1 = 2";
    ];
  (* ... but every comparison at float is, however its operands are
     written: arithmetic, nan, Float constants, annotated variables, an
     abbreviation of float, and compare. *)
  List.iter
    (fun src ->
      check bool (src ^ " fires") true
        (List.mem "float-equal" (rules ~file:"lib/foo/a.ml" src)))
    [
      "let f a b = a +. 1. = b";
      "let f x = x = nan";
      "let f x = x = Float.infinity";
      "let f x = sqrt x = x";
      "let f (a : float) b = a = b";
      "let f (a : float) b = a != b";
      "type t = float\nlet f (a : t) b = a <> b";
      "let f (a : float) b = compare a b";
    ]

let test_float_equal_suppressed =
  silent "float-equal" ~file:"lib/foo/a.ml"
    "let f x = (x = 1.0) [@lint.allow \"float-equal\"]" "float-equal"

(* ---------------- poly-compare ---------------- *)

let test_poly_compare_fires =
  fires "poly-compare" ~file:"lib/foo/a.ml" "let f xs = List.sort compare xs"
    "poly-compare"

let test_poly_compare_stdlib =
  fires "poly-compare" ~file:"lib/foo/a.ml" "let f xs = List.sort Stdlib.compare xs"
    "poly-compare"

let test_poly_compare_bin_ok =
  silent "poly-compare" ~file:"bin/a.ml" "let f xs = List.sort compare xs" "poly-compare"

let test_poly_compare_local_definition () =
  (* A file defining its own [compare] refers to the local, typed one. *)
  check (list string) "local compare is exempt" []
    (rules ~file:"lib/foo/a.ml"
       "let compare a b = Float.compare a b\nlet f xs = List.sort compare xs")

let test_poly_compare_suppressed =
  silent "poly-compare" ~file:"lib/foo/a.ml"
    "let f xs = List.sort compare xs [@@lint.allow \"poly-compare\"]" "poly-compare"

(* A variant that is not immediate: one constructor carries a payload. *)
let delta = "type delta = Neg_inf | Pos_inf | Fin of float\n"

let test_poly_compare_constructor_literal () =
  (* = / <> against a nullary constructor is polymorphic compare on the
     whole variant; both orders and qualified names fire, and so does a
     constructor with a payload. *)
  List.iter
    (fun src ->
      check bool (src ^ " fires") true
        (List.mem "poly-compare" (rules ~file:"lib/foo/a.ml" src)))
    [
      delta ^ "let f d = d <> Neg_inf";
      delta ^ "let f d = d = Pos_inf";
      delta ^ "let f d = Neg_inf = d";
      "module Delta = struct type t = Neg_inf | Fin of float end\n\
       type nd = { delta : Delta.t }\n\
       let f nd = nd.delta <> Delta.Neg_inf";
      "module Scheduler = struct\n\
       module Delta = struct type t = Neg_inf | Fin of float end end\n\
       type nd = { delta : Scheduler.Delta.t }\n\
       let f nd = nd.delta <> Scheduler.Delta.Neg_inf";
      delta ^ "let f x = x = Fin 0.";
    ]

let test_poly_compare_constructor_exemptions () =
  (* The built-in structural constructors stay idiomatic, == / != are
     physical-equality checks the rule leaves alone, and bin/ is out of
     scope. *)
  List.iter
    (fun (file, src) ->
      check bool (src ^ " does not fire") false
        (List.mem "poly-compare" (rules ~file src)))
    [
      ("lib/foo/a.ml", "let f x = x = None");
      ("lib/foo/a.ml", "let f x = x <> []");
      ("lib/foo/a.ml", "let f x = x = true");
      ("lib/foo/a.ml", "let f x = x = ()");
      ("lib/foo/a.ml", delta ^ "let f d = d == Neg_inf");
      ("bin/a.ml", delta ^ "let f d = d <> Neg_inf");
    ]

let test_poly_compare_constructor_suppressed =
  silent "poly-compare" ~file:"lib/foo/a.ml"
    (delta ^ "let f d = (d <> Neg_inf) [@lint.allow \"poly-compare\"]")
    "poly-compare"

(* The typed rule: any = / <> / compare in lib/ at a type that is not
   immediate, and nothing at an immediate one. *)
let test_poly_compare_typed () =
  List.iter
    (fun (src, fires) ->
      check bool (src ^ if fires then " fires" else " does not fire") fires
        (List.mem "poly-compare" (rules ~file:"lib/foo/a.ml" src)))
    [
      ("let f (s : string) t = s = t", true);
      ("let f (a : int list) b = a <> b", true);
      ("let f xs = xs = []", false);
      ("let f (r : int ref) r' = r == r'", false);
      ("let f (a : int) b = compare a b", false);
      ("type c = Red | Green\nlet f (a : c) b = a = b", false);
    ]

(* ---------------- banned-ident ---------------- *)

let test_banned_obj_magic =
  fires "banned-ident" ~file:"other.ml" "let f x = Obj.magic x" "banned-ident"

let test_banned_random_outside_prng =
  fires "banned-ident" ~file:"lib/netsim/a.ml" "let x () = Random.float 1." "banned-ident"

let test_banned_random_alias =
  fires "banned-ident" ~file:"lib/netsim/a.ml"
    "module R = Random\nlet x () = R.int 3" "banned-ident"

let test_banned_random_in_prng_ok =
  silent "banned-ident" ~file:"lib/desim/prng.ml" "let x () = Random.float 1."
    "banned-ident"

let test_banned_print_in_lib =
  fires "banned-ident" ~file:"lib/foo/a.ml" "let f () = print_endline \"x\""
    "banned-ident"

let test_banned_printf_in_lib =
  fires "banned-ident" ~file:"lib/foo/a.ml" "let f () = Printf.printf \"x\""
    "banned-ident"

let test_banned_print_in_bin_ok =
  silent "banned-ident" ~file:"bin/a.ml" "let f () = print_endline \"x\"" "banned-ident"

let test_banned_suppressed =
  silent "banned-ident" ~file:"lib/foo/a.ml"
    "let f x = (Obj.magic x) [@lint.allow \"banned-ident\"]" "banned-ident"

(* ---------------- raw-exit ---------------- *)

let test_raw_exit_in_lib =
  fires "raw-exit" ~file:"lib/foo/a.ml" "let f () = exit 1" "raw-exit"

let test_raw_exit_in_bench =
  fires "raw-exit" ~file:"bench/a.ml" "let f () = Stdlib.exit 1" "raw-exit"

let test_raw_exit_in_bin_ok =
  silent "raw-exit" ~file:"bin/a.ml" "let f () = exit 1" "raw-exit"

let test_raw_exit_suppressed =
  silent "raw-exit" ~file:"bench/a.ml"
    "let f () = (exit [@lint.allow \"raw-exit\"]) 1" "raw-exit"

let test_raw_exit_not_banned_ident () =
  (* the rule moved out of banned-ident: suppressing banned-ident alone
     must no longer silence an exit, and an exit must not fire banned-ident *)
  let rs = rules ~file:"lib/foo/a.ml" "let f () = exit 1" in
  Alcotest.(check bool) "fires raw-exit" true (List.mem "raw-exit" rs);
  Alcotest.(check bool) "not banned-ident" false (List.mem "banned-ident" rs);
  let rs' =
    rules ~file:"lib/foo/a.ml"
      "let f () = (exit [@lint.allow \"banned-ident\"]) 1"
  in
  Alcotest.(check bool) "banned-ident allow does not cover exit" true
    (List.mem "raw-exit" rs')

(* ---------------- nan-literal ---------------- *)

let test_nan_literal_fires =
  fires "nan-literal" ~file:"lib/core/a.ml" "let x = nan" "nan-literal"

let test_nan_literal_infinity =
  fires "nan-literal" ~file:"lib/netsim/a.ml" "let x = neg_infinity" "nan-literal"

let test_nan_literal_allowlisted =
  silent "nan-literal" ~file:"lib/scheduler/delta.ml" "let x = infinity" "nan-literal"

let test_nan_literal_qualified_ok =
  silent "nan-literal" ~file:"lib/core/a.ml" "let x = Float.nan" "nan-literal"

let test_nan_literal_suppressed =
  silent "nan-literal" ~file:"lib/core/a.ml" "let x = nan [@lint.allow \"nan-literal\"]"
    "nan-literal"

(* ---------------- unsafe-partial ---------------- *)

let test_unsafe_partial_fires =
  fires "unsafe-partial" ~file:"lib/core/a.ml" "let f xs = List.hd xs" "unsafe-partial"

let test_unsafe_partial_option_get =
  fires "unsafe-partial" ~file:"lib/core/a.ml" "let f o = Option.get o" "unsafe-partial"

let test_unsafe_partial_outside_core_ok =
  silent "unsafe-partial" ~file:"lib/minplus/a.ml" "let f xs = List.hd xs"
    "unsafe-partial"

let test_unsafe_partial_suppressed =
  silent "unsafe-partial" ~file:"lib/core/a.ml"
    "let f xs = (List.hd xs) [@lint.allow \"unsafe-partial\"]" "unsafe-partial"

(* ---------------- domain-spawn ---------------- *)

let test_domain_spawn_fires =
  fires "domain-spawn" ~file:"lib/core/a.ml"
    "let d = Domain.spawn (fun () -> 1)" "domain-spawn"

let test_domain_spawn_bin_fires =
  (* no zone is exempt: the CLI and bench must also go through the pool *)
  fires "domain-spawn" ~file:"bin/a.ml"
    "let d = Domain.spawn (fun () -> 1)" "domain-spawn"

let test_domain_spawn_in_parallel_ok =
  silent "domain-spawn" ~file:"lib/parallel/pool.ml"
    "let d = Domain.spawn (fun () -> 1)" "domain-spawn"

let test_domain_spawn_other_functions_ok =
  silent "domain-spawn" ~file:"lib/core/a.ml"
    "let n = Domain.recommended_domain_count ()" "domain-spawn"

let test_domain_spawn_suppressed =
  silent "domain-spawn" ~file:"lib/core/a.ml"
    "let d f = (Domain.spawn f) [@lint.allow \"domain-spawn\"]" "domain-spawn"

(* ---------------- suppression semantics ---------------- *)

let test_allow_all () =
  check (list string) "bare [@lint.allow] silences everything" []
    (rules ~file:"lib/core/a.ml"
       "let f xs = (List.sort compare (List.hd xs) = [ nan ]) [@lint.allow]")

let test_allow_is_scoped () =
  (* The attribute silences its subtree only; a sibling still fires. *)
  let found =
    rules ~file:"lib/core/a.ml"
      "let a = nan [@lint.allow \"nan-literal\"]\nlet b = nan"
  in
  check (list string) "sibling still fires" [ "nan-literal" ] found

let test_allow_space_separated () =
  check (list string) "several ids in one payload" []
    (rules ~file:"lib/core/a.ml"
       "let f xs = (List.hd xs = nan) [@lint.allow \"unsafe-partial nan-literal float-equal\"]")

(* ---------------- unused-allow ---------------- *)

let rules_w ~file src =
  findings ~warn_unused_allow:true ~file src
  |> List.map (fun f -> f.Analysis.Finding.rule)

let test_unused_allow_fires () =
  check (list string) "an allow that suppresses nothing is stale"
    [ "unused-allow" ]
    (rules_w ~file:"lib/core/a.ml" "let a = 1 [@lint.allow \"nan-literal\"]")

let test_unused_allow_used_is_silent () =
  check (list string) "an allow that suppresses a finding is not stale" []
    (rules_w ~file:"lib/core/a.ml" "let a = nan [@lint.allow \"nan-literal\"]")

let test_unused_allow_off_by_default () =
  check (list string) "without the flag, stale allows pass" []
    (rules ~file:"lib/core/a.ml" "let a = 1 [@lint.allow \"nan-literal\"]")

let test_unused_allow_bare () =
  check (list string) "a bare [@lint.allow] that suppresses nothing is stale"
    [ "unused-allow" ]
    (rules_w ~file:"lib/core/a.ml" "let a = 1 [@lint.allow]")

let test_unused_allow_foreign_rule () =
  (* unreachable-module and unused-export belong to the whole-set pass:
     the per-file pass must not call them stale. *)
  check (list string) "whole-set rule ids are not the per-file pass's business"
    []
    (rules_w ~file:"lib/core/a.ml"
       "let a = 1 [@lint.allow \"unreachable-module unused-export\"]")

let test_unused_allow_partial_payload () =
  (* One id of the payload is used, the other is stale: report only the
     stale one, in the message. *)
  match
    findings ~warn_unused_allow:true ~file:"lib/core/a.ml"
      "let a = nan [@lint.allow \"nan-literal float-equal\"]"
  with
  | [ f ] ->
    check string "rule" "unused-allow" f.Analysis.Finding.rule;
    check bool "names only the stale id" true
      (let m = f.Analysis.Finding.message in
       let has sub =
         let lm = String.length m and ls = String.length sub in
         let rec at i =
           i + ls <= lm && (String.sub m i ls = sub || at (i + 1))
         in
         at 0
       in
       has "float-equal" && not (has "nan-literal"))
  | fs -> failf "expected one unused-allow finding, got %d" (List.length fs)

(* ---------------- output format ---------------- *)

let test_golden_output () =
  let src =
    String.concat "\n"
      [
        "let a = nan";
        "let f x = x = 1.0";
        "let g xs = List.sort compare xs";
        "let h xs = List.hd xs";
      ]
  in
  let got =
    findings ~file:"lib/core/sample.ml" src |> List.map Analysis.Finding.to_string
  in
  check (list string) "machine-readable output"
    [
      "lib/core/sample.ml:1 nan-literal bare nan; use Float.nan (or a Delta / Curve \
       constructor) so the sentinel is explicit";
      "lib/core/sample.ml:2 float-equal float (=) comparison; use Float.equal / \
       Float.compare (or Float.is_nan / Float.classify_float)";
      "lib/core/sample.ml:3 poly-compare polymorphic compare; use a typed comparator \
       (Float.compare, Int.compare, String.compare, ...)";
      "lib/core/sample.ml:4 unsafe-partial partial List.hd in lib/core; match explicitly";
    ]
    got

let test_catalogue_covers_rules () =
  let ids = List.map fst Analysis.Engine.catalogue in
  List.iter
    (fun r -> check bool (r ^ " is catalogued") true (List.mem r ids))
    [
      "float-equal"; "poly-compare"; "banned-ident"; "raw-exit"; "nan-literal";
      "unsafe-partial"; "domain-spawn"; "unused-allow";
    ]

let suite =
  [
    test_case "float-equal fires" `Quick test_float_equal_fires;
    test_case "float-equal all operators" `Quick test_float_equal_operators;
    test_case "float-equal heuristic" `Quick test_float_equal_heuristic;
    test_case "float-equal suppressed" `Quick test_float_equal_suppressed;
    test_case "poly-compare fires" `Quick test_poly_compare_fires;
    test_case "poly-compare Stdlib.compare" `Quick test_poly_compare_stdlib;
    test_case "poly-compare allowed in bin" `Quick test_poly_compare_bin_ok;
    test_case "poly-compare local definition exempt" `Quick
      test_poly_compare_local_definition;
    test_case "poly-compare suppressed" `Quick test_poly_compare_suppressed;
    test_case "poly-compare constructor literal" `Quick
      test_poly_compare_constructor_literal;
    test_case "poly-compare constructor exemptions" `Quick
      test_poly_compare_constructor_exemptions;
    test_case "poly-compare constructor suppressed" `Quick
      test_poly_compare_constructor_suppressed;
    test_case "poly-compare by immediacy" `Quick test_poly_compare_typed;
    test_case "banned: Obj.magic" `Quick test_banned_obj_magic;
    test_case "banned: Random outside prng" `Quick test_banned_random_outside_prng;
    test_case "banned: Random through a module alias" `Quick test_banned_random_alias;
    test_case "banned: Random inside prng ok" `Quick test_banned_random_in_prng_ok;
    test_case "banned: print_endline in lib" `Quick test_banned_print_in_lib;
    test_case "banned: Printf.printf in lib" `Quick test_banned_printf_in_lib;
    test_case "banned: print in bin ok" `Quick test_banned_print_in_bin_ok;
    test_case "banned: suppressed" `Quick test_banned_suppressed;
    test_case "raw-exit: exit in lib" `Quick test_raw_exit_in_lib;
    test_case "raw-exit: Stdlib.exit in bench" `Quick test_raw_exit_in_bench;
    test_case "raw-exit: exit in bin ok" `Quick test_raw_exit_in_bin_ok;
    test_case "raw-exit: suppressed" `Quick test_raw_exit_suppressed;
    test_case "raw-exit: distinct from banned-ident" `Quick
      test_raw_exit_not_banned_ident;
    test_case "nan-literal fires" `Quick test_nan_literal_fires;
    test_case "nan-literal neg_infinity" `Quick test_nan_literal_infinity;
    test_case "nan-literal allowlisted module" `Quick test_nan_literal_allowlisted;
    test_case "nan-literal qualified ok" `Quick test_nan_literal_qualified_ok;
    test_case "nan-literal suppressed" `Quick test_nan_literal_suppressed;
    test_case "unsafe-partial fires" `Quick test_unsafe_partial_fires;
    test_case "unsafe-partial Option.get" `Quick test_unsafe_partial_option_get;
    test_case "unsafe-partial outside core ok" `Quick test_unsafe_partial_outside_core_ok;
    test_case "unsafe-partial suppressed" `Quick test_unsafe_partial_suppressed;
    test_case "domain-spawn fires" `Quick test_domain_spawn_fires;
    test_case "domain-spawn fires in bin too" `Quick test_domain_spawn_bin_fires;
    test_case "domain-spawn allowed in lib/parallel" `Quick
      test_domain_spawn_in_parallel_ok;
    test_case "domain-spawn ignores other Domain functions" `Quick
      test_domain_spawn_other_functions_ok;
    test_case "domain-spawn suppressed" `Quick test_domain_spawn_suppressed;
    test_case "allow without payload" `Quick test_allow_all;
    test_case "allow is scoped to the subtree" `Quick test_allow_is_scoped;
    test_case "allow space-separated ids" `Quick test_allow_space_separated;
    test_case "unused-allow fires on a stale allow" `Quick
      test_unused_allow_fires;
    test_case "unused-allow silent when the allow is used" `Quick
      test_unused_allow_used_is_silent;
    test_case "unused-allow off by default" `Quick
      test_unused_allow_off_by_default;
    test_case "unused-allow on a bare allow" `Quick test_unused_allow_bare;
    test_case "unused-allow ignores whole-set rule ids" `Quick
      test_unused_allow_foreign_rule;
    test_case "unused-allow reports only the stale ids" `Quick
      test_unused_allow_partial_payload;
    test_case "golden machine-readable output" `Quick test_golden_output;
    test_case "catalogue covers every rule" `Quick test_catalogue_covers_rules;
  ]
