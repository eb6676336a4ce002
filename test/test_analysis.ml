(* The typed-tree analyzer (lib/analysis), driven over the seeded fixture
   library in analysis_fixtures/ whose .cmt files dune builds alongside
   this test.  Positives must fire the right rule at the right line, the
   known-safe idioms (Atomic, monitor records, DLS, per-index slots,
   read-only derefs, spawn single-writer) must stay silent, and
   suppressed violations must neither fire nor leave a stale
   [@lint.allow].  The whole-set unreachable-module and unused-export
   rules are driven both over hand-built graphs and over the fixtures'
   executable root.  The CLI output format is covered by the golden diff
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
    (List.init 5 (fun _ -> "cross-domain-capture"))
    (rules_of fs);
  check (list int) "one finding per seeded site" [ 7; 11; 15; 21; 27 ]
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
    (List.init 9 (fun _ -> "zero-alloc"))
    (rules_of fs);
  check (list int) "one finding per seeded site"
    [ 5; 7; 9; 11; 14; 18; 22; 30; 40 ]
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
      "in [@@zero_alloc_check] bump_both";
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

(* ---------------- unreachable-module (whole set) ---------------- *)

module U = Analysis.Unreachable

let unit_ ?allow ?(file = "") name imports =
  let file = if file = "" then String.lowercase_ascii name ^ ".ml" else file in
  { U.name; file; imports; allow; defs = []; effects = []; exports = [] }

let allow_at ?(file = "") line =
  let pos = { Lexing.pos_fname = file; pos_lnum = line; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let files_of fs = List.map (fun f -> f.Lint.Finding.file) fs

(* Root -> Lib__A -> Lib__B; Lib__C has no importer; the alias module
   Lib imports every module of its library, Lib__D included. *)
let graph =
  [
    unit_ "Dune__exe__Main" [ "Lib"; "Lib__A"; "Stdlib" ];
    unit_ "Lib__A" [ "Lib"; "Lib__B" ];
    unit_ "Lib__B" [];
    unit_ "Lib__C" [ "Lib__B" ];
    unit_ ~file:"lib.ml-gen" "Lib" [ "Lib__A"; "Lib__B"; "Lib__C"; "Lib__D" ];
    unit_ "Lib__D" [];
  ]

let test_unreachable_graph () =
  let fs = U.check graph in
  check (list string) "only the unimported modules fire"
    [ "lib__c.ml"; "lib__d.ml" ]
    (List.sort compare (files_of fs));
  check (list string) "all unreachable-module"
    [ "unreachable-module"; "unreachable-module" ]
    (rules_of fs);
  check bool "names the module" true (mentions fs "no executable imports Lib.C")

let test_unreachable_alias_not_edge () =
  (* Lib__D is imported only by the alias module: reaching Lib does not
     reach it, and the alias itself is never reported. *)
  let fs = U.check graph in
  check bool "alias-only module fires" true (List.mem "lib__d.ml" (files_of fs));
  check bool "alias module silent" false (List.mem "lib.ml-gen" (files_of fs));
  (* the same module becomes reached once a real unit imports it *)
  let fs' =
    U.check (unit_ "Dune__exe__Tool" [ "Lib__D"; "Lib__C" ] :: graph)
  in
  check (list string) "reached through a second root" [] (files_of fs')

let test_unreachable_allow () =
  let exempt reached =
    graph
    @ [ unit_ ~allow:(allow_at 3) "Lib__E" [] ]
    @ if reached then [ unit_ "Dune__exe__Tool" [ "Lib__E" ] ] else []
  in
  let on_e fs = List.filter (fun f -> f.Lint.Finding.file = "lib__e.ml") fs in
  check (list string) "allow suppresses the finding" []
    (rules_of (on_e (U.check ~warn_unused_allow:true (exempt false))));
  let stale = on_e (U.check ~warn_unused_allow:true (exempt true)) in
  check (list string) "allow goes stale once reached" [ "unused-allow" ]
    (rules_of stale);
  check (list int) "at the attribute's line" [ 3 ] (lines_of stale);
  check bool "names the stale rule id" true
    (mentions stale "stale: unreachable-module");
  check (list string) "stale allows only with warn_unused_allow" []
    (rules_of (on_e (U.check (exempt true))))

let test_unreachable_fixtures () =
  (* The fixture library plus its executable root, through the same entry
     point as the CLI: only Fx_unreached fires; Fx_exempt's file-level
     allow is honoured and not stale. *)
  let cmts dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cmt")
    |> List.map (Filename.concat dir)
  in
  let fs =
    Analysis.Engine.analyze_cmts ~warn_unused_allow:true ~load_prefix:[ ".." ]
      (cmts "analysis_fixtures/.analysis_fixtures.objs/byte"
      @ cmts "analysis_fixtures/.fx_root.eobjs/byte")
  in
  let ours =
    List.filter
      (fun f ->
        f.Lint.Finding.rule = "unreachable-module"
        || Filename.basename f.Lint.Finding.file = "fx_exempt.ml")
      fs
  in
  check (list string) "only the unreached fixture"
    [ "test/analysis_fixtures/fx_unreached.ml" ]
    (files_of ours);
  check (list int) "at line 1" [ 1 ] (lines_of ours)

(* ---------------- unused-export (whole set) ---------------- *)

(* A value [Lib__X.mli] declares at [line]; an allow sits on the next line. *)
let export ?(allow = false) line value =
  let at = allow_at ~file:"lib__x.mli" in
  { U.value; decl = at line; allowed = (if allow then Some (at (line + 1)) else None) }

(* The root names Lib.X.f through the alias module and Lib__X.M.n
   directly; f's body names g, h has no user; the module binding N (a
   functor application) names Lib__Y whole, and the root names N.q. *)
let exports_graph =
  [
    {
      (unit_ "Dune__exe__Main" [ "Lib"; "Lib__X" ]) with
      U.effects = [ ("Lib", [ "X"; "f" ]); ("Lib__X", [ "M"; "n" ]); ("Lib__X", [ "N"; "q" ]) ];
    };
    {
      (unit_ "Lib__X" [ "Lib__Y" ]) with
      U.defs =
        [
          ([ "f" ], [ ("Lib__X", [ "g" ]) ]);
          ([ "g" ], []);
          ([ "h" ], []);
          ([ "M"; "n" ], []);
          ([ "N" ], [ ("Lib__Y", []) ]);
        ];
      exports = [ export 1 [ "f" ]; export 2 [ "g" ]; export 3 [ "h" ]; export 4 [ "M"; "n" ] ];
    };
    { (unit_ "Lib__Y" []) with U.defs = [ ([ "p" ], []) ]; exports = [ export 5 [ "p" ] ] };
    unit_ ~file:"lib.ml-gen" "Lib" [ "Lib__X"; "Lib__Y" ];
  ]

let exports_of fs = List.filter (fun f -> f.Lint.Finding.rule = "unused-export") fs

let test_export_graph () =
  let fs = exports_of (U.check exports_graph) in
  check (list int) "only the unnamed value fires" [ 3 ] (lines_of fs);
  check (list string) "at the .mli" [ "lib__x.mli" ] (files_of fs);
  check bool "names the value" true (mentions fs "no executable reaches Lib.X.h")

let test_export_transitive () =
  (* Without the root's Lib.X.f, g loses its only user too. *)
  let root =
    { (unit_ "Dune__exe__Main" [ "Lib__X" ]) with U.effects = [ ("Lib__X", [ "M"; "n" ]) ] }
  in
  let fs = exports_of (U.check (root :: List.tl exports_graph)) in
  check (list int) "f, g and h fire; the functor argument goes with N" [ 1; 2; 3; 5 ]
    (List.sort compare (lines_of fs))

let test_export_module_rule () =
  (* An unreached module's exports are left to unreachable-module; an
     exempt one is kept whole, so what it names is reached. *)
  let z ?allow () =
    {
      (unit_ ?allow "Lib__Z" []) with
      U.defs = [ ([ "z" ], [ ("Lib__X", [ "h" ]) ]) ];
      exports = [ export 9 [ "z" ] ];
    }
  in
  let fs = U.check (exports_graph @ [ z () ]) in
  check (list string) "unreached: Lib__Z gets the module finding only"
    [ "unreachable-module"; "unused-export" ]
    (List.sort compare (rules_of fs));
  check (list int) "h still fires" [ 3 ] (lines_of (exports_of fs));
  check (list string) "exempt: h is reached through it" []
    (rules_of (U.check (exports_graph @ [ z ~allow:(allow_at 1) () ])))

let test_export_allow () =
  let with_allow ~named =
    let root = List.hd exports_graph in
    let root =
      if named then { root with U.effects = ("Lib__X", [ "h" ]) :: root.U.effects } else root
    in
    let x = List.nth exports_graph 1 in
    root :: { x with U.exports = [ export ~allow:true 3 [ "h" ] ] }
    :: List.tl (List.tl exports_graph)
  in
  check (list string) "allow suppresses the finding" []
    (rules_of (U.check ~warn_unused_allow:true (with_allow ~named:false)));
  let stale = U.check ~warn_unused_allow:true (with_allow ~named:true) in
  check (list string) "allow goes stale once reached" [ "unused-allow" ] (rules_of stale);
  check (list int) "at the attribute's line" [ 4 ] (lines_of stale);
  check bool "names the stale rule id" true (mentions stale "stale: unused-export");
  check (list string) "stale allows only with warn_unused_allow" []
    (rules_of (U.check (with_allow ~named:true)))

let test_catalogue () =
  let ids = List.map fst Analysis.Engine.catalogue in
  List.iter
    (fun r -> check bool (r ^ " is catalogued") true (List.mem r ids))
    [
      "cross-domain-capture";
      "zero-alloc";
      "unreachable-module";
      "unused-export";
      "unused-allow";
      "cmt-error";
    ]

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
      ( "unreachable",
        [
          test_case "reached modules stay silent" `Quick test_unreachable_graph;
          test_case "alias module is not an edge" `Quick
            test_unreachable_alias_not_edge;
          test_case "file-level allow, stale once reached" `Quick
            test_unreachable_allow;
          test_case "fixture root and unreached module" `Quick
            test_unreachable_fixtures;
        ] );
      ( "unused-export",
        [
          test_case "reached values stay silent" `Quick test_export_graph;
          test_case "reached only through a reached value" `Quick test_export_transitive;
          test_case "unreached and exempt modules" `Quick test_export_module_rule;
          test_case "allow, stale once reached" `Quick test_export_allow;
        ] );
    ]
