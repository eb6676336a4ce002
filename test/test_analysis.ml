(* The typed-tree analyzer (lib/analysis), driven over the seeded fixture
   library in analysis_fixtures/ whose .cmt files dune builds alongside
   this test.  Positives must fire the right rule at the right line, the
   known-safe idioms (Atomic, monitor records, DLS, per-index slots,
   read-only derefs, spawn single-writer) must stay silent, and
   suppressed violations must neither fire nor leave a stale
   [@lint.allow].  The CLI output format is covered by the golden diff
   rule in test/dune (analyze_fixtures.expected). *)

open Alcotest

let fixture name =
  Filename.concat "analysis_fixtures/.analysis_fixtures.objs/byte"
    ("analysis_fixtures__" ^ name ^ ".cmt")

(* Tests run in _build/default/test; the cmts record load paths relative
   to the build-context root one level up. *)
let analyze name =
  Analysis.Engine.analyze_cmt ~warn_unused_allow:true ~load_prefix:[ ".." ]
    (fixture name)

let lines_of fs = List.map (fun f -> f.Lint.Finding.line) fs
let rules_of fs = List.map (fun f -> f.Lint.Finding.rule) fs

let mentions fs sub =
  List.exists
    (fun f ->
      let m = f.Lint.Finding.message in
      let lm = String.length m and ls = String.length sub in
      let rec at i = i + ls <= lm && (String.sub m i ls = sub || at (i + 1)) in
      at 0)
    fs

let test_race_pos () =
  let fs = analyze "Fx_race_pos" in
  check (list string) "all cross-domain-capture"
    (List.init 6 (fun _ -> "cross-domain-capture"))
    (rules_of fs);
  check (list int) "one finding per seeded site" [ 7; 11; 15; 21; 27; 34 ]
    (lines_of fs);
  check bool "ref mutation names the ref" true (mentions fs "captured ref hits");
  check bool "fixed-index write explains the slot idiom" true
    (mentions fs "does not vary with a closure-local variable");
  check bool "container finding names Hashtbl" true (mentions fs "Hashtbl.t tbl");
  check bool "record finding names field and type" true
    (mentions fs "field total of captured mutable record a (acc)");
  check bool "local callee expansion carries the via-chain" true
    (mentions fs "(via bump)")

let test_race_neg () =
  check (list string) "safe idioms stay silent" [] (rules_of (analyze "Fx_race_neg"))

let test_alloc_pos () =
  let fs = analyze "Fx_alloc_pos" in
  check (list string) "all zero-alloc"
    (List.init 8 (fun _ -> "zero-alloc"))
    (rules_of fs);
  check (list int) "one finding per seeded site" [ 5; 7; 9; 11; 14; 18; 22; 30 ]
    (lines_of fs);
  List.iter
    (fun sub -> check bool (sub ^ " reported") true (mentions fs sub))
    [
      "tuple allocation";
      "call to Array.make allocates";
      "call to ^ allocates";
      "Some of a float boxes the float";
      "closure allocation";
      "partial application of +";
      "(via helper)";
    ]

let test_alloc_neg () =
  check (list string) "structural allowances stay silent" []
    (rules_of (analyze "Fx_alloc_neg"))

let test_suppressed () =
  (* warn_unused_allow is on: silence also proves the allows registered
     as used, through both the engine and rule walkers. *)
  check (list string) "allowed violations stay silent, allows are used" []
    (rules_of (analyze "Fx_suppressed"))

let test_stale_allow () =
  let fs = analyze "Fx_stale_allow" in
  check (list string) "stale typed allow is reported" [ "unused-allow" ]
    (rules_of fs);
  check (list int) "at the attribute's line" [ 7 ] (lines_of fs);
  check bool "names the stale rule id" true (mentions fs "stale: zero-alloc")

let test_cmt_error () =
  (* An .ml is not a cmt: the failure must surface as a finding, not an
     exception. *)
  match Analysis.Engine.analyze_cmt "test_analysis.ml" with
  | [ f ] -> check string "rule" "cmt-error" f.Lint.Finding.rule
  | fs -> failf "expected one cmt-error finding, got %d" (List.length fs)

let test_catalogue () =
  let ids = List.map fst Analysis.Engine.catalogue in
  List.iter
    (fun r -> check bool (r ^ " is catalogued") true (List.mem r ids))
    [ "cross-domain-capture"; "zero-alloc"; "unused-allow"; "cmt-error" ]

let () =
  run "analysis"
    [
      ( "typed rules",
        [
          test_case "cross-domain-capture positives" `Quick test_race_pos;
          test_case "cross-domain-capture negatives" `Quick test_race_neg;
          test_case "zero-alloc positives" `Quick test_alloc_pos;
          test_case "zero-alloc negatives" `Quick test_alloc_neg;
          test_case "suppression is honoured and counted" `Quick test_suppressed;
          test_case "stale allow is reported" `Quick test_stale_allow;
          test_case "unreadable cmt becomes a finding" `Quick test_cmt_error;
          test_case "catalogue covers every rule" `Quick test_catalogue;
        ] );
    ]
