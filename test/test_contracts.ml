(* Domain contracts: the shipped scheduler matrices pass, perturbed ones
   fail with the right typed finding, Theorem-2 envelope checks accept
   concave and reject convex shapes, and the admission layer refuses an
   unstable scenario up front. *)

open Alcotest

module C = Deltanet.Contracts
module Diag = Deltanet.Diag
module Classes = Scheduler.Classes
module Delta = Scheduler.Delta
module Curve = Minplus.Curve

let codes findings = List.sort_uniq String.compare (List.map C.code findings)

let test_builtin_matrices_pass () =
  List.iter
    (fun (name, m) ->
      check (list string) (name ^ " passes") [] (codes (C.check_classes m)))
    [
      ("fifo", Classes.fifo ~n:4);
      ("sp", Classes.static_priority ~priorities:[| 3; 1; 2; 1 |]);
      ("bmux", Classes.bmux ~n:4 ~tagged:2);
      ("edf", Classes.edf ~deadlines:[| 10.; 25.; 3.; 10. |]);
    ]

let fin x = Delta.Fin x

let matrix_of rows =
  let a = Array.of_list (List.map Array.of_list rows) in
  (Array.length a, fun j k -> a.(j).(k))

let test_edf_consistent_passes () =
  (* delta(j,k) = d*_j - d*_k for d* = (10, 5, 1). *)
  let (n, m) =
    matrix_of
      [
        [ fin 0.; fin 5.; fin 9. ];
        [ fin (-5.); fin 0.; fin 4. ];
        [ fin (-9.); fin (-4.); fin 0. ];
      ]
  in
  check (list string) "consistent EDF passes" [] (codes (C.check_matrix ~n m))

let test_edf_inconsistent_rejected () =
  (* Antisymmetry preserved, translation consistency broken:
     delta(0,2) = 8 but delta(0,1) + delta(1,2) = 9, so no deadline
     vector realizes the matrix. *)
  let (n, m) =
    matrix_of
      [
        [ fin 0.; fin 5.; fin 8. ];
        [ fin (-5.); fin 0.; fin 4. ];
        [ fin (-8.); fin (-4.); fin 0. ];
      ]
  in
  let found = codes (C.check_matrix ~n m) in
  check (list string) "only translation consistency fails" [ "delta-inconsistent" ] found

let test_edf_asymmetric_rejected () =
  let (n, m) = matrix_of [ [ fin 0.; fin 5. ]; [ fin (-4.); fin 0. ] ] in
  check bool "asymmetry detected" true
    (List.mem "delta-asymmetric" (codes (C.check_matrix ~n m)))

let test_nan_entry_rejected () =
  let (n, m) = matrix_of [ [ fin 0.; fin Float.nan ]; [ fin 0.; fin 0. ] ] in
  check bool "Fin nan detected" true (List.mem "delta-nan" (codes (C.check_matrix ~n m)))

let test_diag_nonzero_rejected () =
  let (n, m) = matrix_of [ [ fin 1.; fin 0. ]; [ fin 0.; fin 0. ] ] in
  check bool "non-zero diagonal detected" true
    (List.mem "delta-diag-nonzero" (codes (C.check_matrix ~n m)))

let test_sp_intransitive_rejected () =
  (* 0 precedes 1, 1 precedes 2, but (0,2) claims equal priority. *)
  let (n, m) =
    matrix_of
      [
        [ fin 0.; Delta.Neg_inf; fin 0. ];
        [ Delta.Pos_inf; fin 0.; Delta.Neg_inf ];
        [ fin 0.; Delta.Pos_inf; fin 0. ];
      ]
  in
  check bool "intransitivity detected" true
    (List.mem "sp-intransitive" (codes (C.check_matrix ~n m)))

let test_sp_asymmetric_rejected () =
  let (n, m) = matrix_of [ [ fin 0.; Delta.Neg_inf ]; [ Delta.Neg_inf; fin 0. ] ] in
  check bool "double Neg_inf detected" true
    (List.mem "delta-asymmetric" (codes (C.check_matrix ~n m)))

let test_sp_entry_invalid_under_kind () =
  let (n, m) = matrix_of [ [ fin 0.; fin 3. ]; [ fin (-3.); fin 0. ] ] in
  check bool "finite non-zero entry rejected for SP" true
    (List.mem "sp-entry-invalid" (codes (C.check_matrix ~kind:C.Sp ~n m)))

(* ---------------- envelopes ---------------- *)

let test_concave_envelope_passes () =
  List.iter
    (fun (name, e) ->
      check (list string) (name ^ " passes") [] (codes (C.check_envelope ~label:name e)))
    [
      ("affine", Curve.affine ~rate:2. ~burst:1.);
      ("token-buckets", Curve.token_buckets [ (5., 1.); (1., 10.) ]);
      ("zero", Curve.zero);
    ]

let test_convex_envelope_rejected () =
  (* Slope increases from 1 to 5 at t = 2: convex, not concave. *)
  let e = Curve.v [ (0., 0., 1.); (2., 2., 5.) ] in
  match C.check_envelope ~label:"convex" e with
  | [ C.Envelope_non_concave { at; _ } ] ->
    check bool "witness near the kink" true (Float.abs (at -. 2.) <= 2.)
  | fs -> failf "expected one envelope-non-concave finding, got [%s]"
            (String.concat "; " (List.map C.code fs))

let test_negative_envelope_rejected () =
  let e = Curve.v [ (0., -5., 1.) ] in
  check bool "negative start detected" true
    (List.mem "envelope-negative" (codes (C.check_envelope ~label:"neg" e)))

(* ---------------- stability and scenario ---------------- *)

let test_stability () =
  check (list string) "stable load passes" []
    (codes (C.check_stability ~capacity:100. ~offered:99.));
  check (list string) "critical load rejected" [ "unstable" ]
    (codes (C.check_stability ~capacity:100. ~offered:100.));
  check (list string) "NaN load rejected" [ "unstable" ]
    (codes (C.check_stability ~capacity:100. ~offered:Float.nan))

let test_scenario_checks () =
  let stable = Deltanet.Scenario.paper_defaults ~h:3 ~n_through:10. ~n_cross:10. in
  check (list string) "paper scenario passes" [] (codes (C.check_scenario stable));
  let overloaded = Deltanet.Scenario.paper_defaults ~h:3 ~n_through:5000. ~n_cross:0. in
  check (list string) "overloaded scenario rejected" [ "unstable" ]
    (codes (C.check_scenario overloaded))

let test_ensure_and_diag () =
  C.ensure [];
  check string "no findings converge" "converged"
    (Diag.status_to_string (C.diag_of []).Diag.status);
  let findings = [ C.Unstable { offered = 2.; capacity = 1. } ] in
  check string "findings map to the invalid status" "invalid"
    (Diag.status_to_string (C.diag_of findings).Diag.status);
  check bool "ensure raises" true
    (match C.ensure findings with
    | () -> false
    | exception C.Violation [ C.Unstable _ ] -> true
    | exception C.Violation _ -> false)

let test_admission_gate () =
  let overloaded = Deltanet.Scenario.paper_defaults ~h:2 ~n_through:5000. ~n_cross:0. in
  let request =
    {
      Deltanet.Admission.base = overloaded;
      guarantee = { Deltanet.Admission.deadline = 50.; epsilon = 1e-9 };
    }
  in
  check bool "admission refuses an unstable base scenario" true
    (match
       Deltanet.Admission.max_cross_utilization request ~scheduler:Scheduler.Kind.Fifo
     with
    | _ -> false
    | exception C.Violation fs -> List.mem "unstable" (codes fs))

(* ---------------- CLI integration ---------------- *)

let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe"

let run_cli args =
  let out = Filename.temp_file "deltanet_check" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args (Filename.quote out)
      in
      let code = Sys.command cmd in
      let ic = open_in out in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let test_cli_check () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let (code, text) = run_cli "check" in
    check int "defaults pass" 0 code;
    check bool "reports ok" true (contains text "ok:");
    let (code, text) = run_cli "check --matrix '0,5,8;-5,0,4;-8,-4,0'" in
    check int "inconsistent EDF matrix exits 1" 1 code;
    check bool "typed finding named" true (contains text "delta-inconsistent");
    let (code, text) = run_cli "check --envelope '0:0:1,2:2:5'" in
    check int "convex envelope exits 1" 1 code;
    check bool "typed finding named" true (contains text "envelope-non-concave");
    let (code, _) = run_cli "check --matrix 'zebra'" in
    check int "unparseable matrix is a cli error" 124 code
  end

(* Out-of-range values that pass cmdliner's type check are rejected deep
   in library code with Invalid_argument; the CLI must report them as a
   usage error with one message line, not as an internal error (125). *)
let test_cli_invalid_argument () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    List.iter
      (fun args ->
        let (code, text) = run_cli (args ^ " < /dev/null") in
        check int (args ^ ": exit 2") 2 code;
        check bool
          (Printf.sprintf "%s: one message line, got %S" args text)
          true
          (String.starts_with ~prefix:"deltanet: " text
          && String.index_opt text '\n' = Some (String.length text - 1)))
      [
        "simulate --slots 0";
        "simulate -H 0";
        "admission --u0 2";
        "bound --s-points 0";
        "loadgen -n 3 --deadline nan";
        "serve --batch 0";
      ]

let suite =
  [
    test_case "builtin matrices pass" `Quick test_builtin_matrices_pass;
    test_case "consistent EDF passes" `Quick test_edf_consistent_passes;
    test_case "inconsistent EDF rejected" `Quick test_edf_inconsistent_rejected;
    test_case "asymmetric EDF rejected" `Quick test_edf_asymmetric_rejected;
    test_case "Fin nan rejected" `Quick test_nan_entry_rejected;
    test_case "non-zero diagonal rejected" `Quick test_diag_nonzero_rejected;
    test_case "intransitive SP rejected" `Quick test_sp_intransitive_rejected;
    test_case "asymmetric SP rejected" `Quick test_sp_asymmetric_rejected;
    test_case "SP entry domain enforced" `Quick test_sp_entry_invalid_under_kind;
    test_case "concave envelopes pass" `Quick test_concave_envelope_passes;
    test_case "convex envelope rejected" `Quick test_convex_envelope_rejected;
    test_case "negative envelope rejected" `Quick test_negative_envelope_rejected;
    test_case "stability threshold" `Quick test_stability;
    test_case "scenario stability contract" `Quick test_scenario_checks;
    test_case "ensure and diag routing" `Quick test_ensure_and_diag;
    test_case "admission refuses unstable base" `Quick test_admission_gate;
    test_case "cli: check subcommand" `Quick test_cli_check;
    test_case "cli: Invalid_argument exits 2" `Quick test_cli_invalid_argument;
  ]
