(* The library calls the deltanet CLI is a shell over: scheduler kinds and
   their one ∆ reduction, the argument parsers, the tandem and scenario
   checks, the pre-flight contract run and the per-kind bound. *)

open Alcotest

module Kind = Scheduler.Kind
module Classes = Scheduler.Classes
module Delta = Scheduler.Delta
module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Contracts = Deltanet.Contracts
module Tandem = Netsim.Tandem
module Faults = Netsim.Faults

let bits = Int64.bits_of_float
let check_bits name a b = check int64 name (bits a) (bits b)
let is_error = function Ok _ -> false | Error _ -> true

(* ---------------- scheduler kinds ---------------- *)

let test_kind_round_trip () =
  List.iter
    (fun name ->
      match Kind.of_string ~ratio:2.5 name with
      | None -> failf "%S rejected" name
      | Some k ->
        check string (name ^ " label") name (Kind.label k);
        (match k with
        | Kind.Edf { cross_over_through } -> check_bits "edf ratio" 2.5 cross_over_through
        | Kind.Fifo | Kind.Bmux | Kind.Sp -> ()))
    [ "fifo"; "bmux"; "sp"; "edf" ];
  List.iter
    (fun name ->
      check bool (Printf.sprintf "%S rejected" name) true
        (Option.is_none (Kind.of_string ~ratio:10. name)))
    [ ""; "FIFO"; "edf "; "gps"; "wfq"; "sp_through_high" ]

let test_kind_two_class () =
  let tc k = Kind.two_class ~d_through:7. k in
  check bool "fifo" true (tc Kind.Fifo = Classes.Fifo);
  check bool "bmux" true (tc Kind.Bmux = Classes.Bmux);
  check bool "sp" true (tc Kind.Sp = Classes.Sp_through_high);
  match tc (Kind.Edf { cross_over_through = 3. }) with
  | Classes.Edf_gap g -> check_bits "edf gap = 7 (1 - 3)" (-14.) g
  | _ -> fail "edf maps to an Edf_gap"

(* The gap serve computed per request before the shared function, and
   the one the EDF fixed point computed per iterate: d0 (1 - ratio), -0
   as +0 (serve only; the fixed point never met a -0). *)
let serve_gap ~deadline ~h ~ratio =
  let d0 = deadline /. float_of_int h in
  let gap = d0 *. (1. -. ratio) in
  if Float.equal gap 0. then 0. else gap

let gap_of = function Classes.Edf_gap g -> g | _ -> Float.nan

let prop_anchored_gap_matches_serve =
  QCheck.Test.make ~count:2000 ~name:"anchored gap = serve's formula, bit for bit"
    QCheck.(
      triple (float_range 1e-300 1e6) (int_range 1 10_000)
        (oneof [ float_range 1e-6 100.; always 1.; float_range 0.999 1.001 ]))
    (fun (deadline, h, ratio) ->
      let want = serve_gap ~deadline ~h ~ratio in
      let got = gap_of (Kind.edf_gap ~d_through:(deadline /. float_of_int h) ~ratio) in
      let via_kind =
        gap_of
          (Kind.two_class ~d_through:(deadline /. float_of_int h)
             (Kind.Edf { cross_over_through = ratio }))
      in
      Int64.equal (bits want) (bits got) && Int64.equal (bits want) (bits via_kind))

let test_negative_zero_gap () =
  (* a zero deadline and an underflowing product both give -0 *)
  List.iter
    (fun (d_through, ratio) ->
      check_bits
        (Printf.sprintf "edf_gap %h %g is +0" d_through ratio)
        0.
        (gap_of (Kind.edf_gap ~d_through ~ratio)))
    [ (0., 2.); (-0., 0.5); (4.9e-324, 1.25); (1., 1.) ]

(* ---------------- ∆ parser ---------------- *)

let delta = testable Delta.pp Delta.equal

let test_delta_of_string () =
  let ok name s want =
    match Delta.of_string s with
    | Ok d -> check delta name want d
    | Error e -> failf "%s: %s" name e
  in
  ok "inf" "inf" Delta.Pos_inf;
  ok "+inf" "+inf" Delta.Pos_inf;
  ok "-inf" "-inf" Delta.Neg_inf;
  ok "spelled-out infinity" "infinity" Delta.Pos_inf;
  ok "float, blanks trimmed" " 3.5 " (Delta.Fin 3.5);
  ok "negative" "-8" (Delta.Fin (-8.));
  (match Delta.of_string "nan" with
  | Ok (Delta.Fin x) -> check bool "nan kept for the checker" true (Float.is_nan x)
  | _ -> fail "nan must parse as Fin nan");
  List.iter
    (fun s -> check bool (Printf.sprintf "%S rejected" s) true (is_error (Delta.of_string s)))
    [ ""; "garbage"; "1..2"; "inf inf"; "++inf" ]

let test_matrix_of_string () =
  (match Delta.matrix_of_string "0,5;-5,0" with
  | Ok m ->
    check int "rows" 2 (Array.length m);
    check delta "m01" (Delta.Fin 5.) m.(0).(1);
    check delta "m10" (Delta.Fin (-5.)) m.(1).(0)
  | Error e -> fail e);
  List.iter
    (fun s ->
      check bool (Printf.sprintf "%S rejected" s) true (is_error (Delta.matrix_of_string s)))
    [ "0,1;0"; "0,x;0,0"; "zebra"; "0,1,2;3,4,5" ]

(* ---------------- the other parsers ---------------- *)

let test_node_spec_of_string () =
  (match Faults.node_spec_of_string "2:const:0.5" with
  | Ok (2, Faults.Constant f) -> check_bits "factor" 0.5 f
  | _ -> fail "2:const:0.5");
  List.iter
    (fun s ->
      check bool (Printf.sprintf "%S rejected" s) true (is_error (Faults.node_spec_of_string s)))
    [ "-1:const:0.5"; "x:const:0.5"; "1:bogus"; "const:0.5"; "1:const:2" ]

let test_curve_of_string () =
  (match Minplus.Curve.of_string "0:0:1,2:2:5" with
  | Ok c -> check (float 0.) "value at 3" 7. (Minplus.Curve.eval c 3.)
  | Error e -> fail e);
  List.iter
    (fun s ->
      check bool (Printf.sprintf "%S rejected" s) true (is_error (Minplus.Curve.of_string s)))
    [ "0:0"; "0:0:x"; ""; "0:0:1;2:2:5" ]

let test_flow_of_string () =
  let module S = Deltanet.Schedulability in
  (match S.flow_of_string "10:5" with
  | Ok f ->
    check delta "default delta" Delta.zero f.S.delta;
    check (float 0.) "burst at 0+" 5. (Minplus.Curve.eval f.S.envelope 0.)
  | Error e -> fail e);
  List.iter
    (fun (s, want) ->
      match S.flow_of_string s with
      | Ok f -> check delta s want f.S.delta
      | Error e -> fail e)
    [ ("20:10:inf", Delta.Pos_inf); ("20:10:+inf", Delta.Pos_inf); ("30:2:-inf", Delta.Neg_inf);
      ("5:1:3", Delta.Fin 3.) ];
  List.iter
    (fun s -> check bool (Printf.sprintf "%S rejected" s) true (is_error (S.flow_of_string s)))
    [ "10:5:nan"; "nan:5"; "10:nan"; "10:-5"; "-10:5"; "10:x"; "10"; "1:2:3:4" ]

(* ---------------- checks ---------------- *)

(* [netsim.tandem.slots] over [f], counted under the null sink *)
let tandem_slots f =
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let x = f () in
      let counters = (Telemetry.snapshot ()).Telemetry.counters in
      (x, Option.value ~default:0 (List.assoc_opt "netsim.tandem.slots" counters)))

let test_tandem_check () =
  let cfg faults =
    Tandem.of_utilization ~faults ~h:3 ~u_through:0.15 ~u_cross:0.35 ~slots:200
      ~scheduler:Kind.Fifo ~seed:1L ()
  in
  let spec = Faults.Constant 0.5 in
  let (r, slots) =
    tandem_slots (fun () ->
        List.map
          (fun faults -> Tandem.check (cfg faults))
          [ [ (5, spec) ]; [ (3, spec) ]; [ (1, spec); (1, Faults.Constant 0.6) ]; [ (2, spec) ] ])
  in
  (match r with
  | [ off_path; one_past; duplicate; fine ] ->
    check bool "node 5 of 3 refused" true (is_error off_path);
    check bool "node 3 of 3 refused" true (is_error one_past);
    check bool "a repeated node refused" true (is_error duplicate);
    check bool "node 2 of 3 accepted" false (is_error fine)
  | _ -> fail "four results");
  check int "check simulates no slot" 0 slots;
  let (_, ran) = tandem_slots (fun () -> Tandem.run (cfg [])) in
  check bool "the counter counts a run" true (ran > 0)

let test_tandem_of_utilization () =
  let cfg =
    Tandem.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.35 ~slots:2000
      ~scheduler:(Kind.Edf { cross_over_through = 2. }) ~seed:7L ()
  in
  check int "through flows" 101 cfg.Tandem.n_through;
  check int "cross flows" 235 cfg.Tandem.n_cross;
  check int "drain" 200 cfg.Tandem.drain_limit;
  check_bits "through deadline" 10. cfg.Tandem.through_deadline;
  check_bits "cross deadline" 20. cfg.Tandem.cross_deadline;
  check_bits "gap anchored at 10 ms" (-10.) (gap_of cfg.Tandem.scheduler)

let test_of_loads () =
  let invalid = function Error (`Invalid _) -> true | _ -> false in
  let unstable = function Error (`Unstable _) -> true | _ -> false in
  let of_loads h u0 uc = Scenario.of_loads ~h ~u_through:u0 ~u_cross:uc in
  check bool "H = 0" true (invalid (of_loads 0 0.1 0.1));
  check bool "NaN load" true (invalid (of_loads 3 Float.nan 0.1));
  check bool "negative load" true (invalid (of_loads 3 0.1 (-0.1)));
  check bool "total at 1" true (unstable (of_loads 3 0.6 0.4));
  check bool "one load above 1" true (unstable (of_loads 3 1.5 0.));
  match of_loads 4 0.2 0.3 with
  | Ok sc ->
    let want = Scenario.of_utilization ~h:4 ~u_through:0.2 ~u_cross:0.3 in
    check_bits "n_through" want.Scenario.n_through sc.Scenario.n_through;
    check_bits "n_cross" want.Scenario.n_cross sc.Scenario.n_cross
  | Error _ -> fail "a stable load"

(* CI's seeded matrix: every translation-consistency triple fails *)
let test_preflight_seeded_matrix () =
  let m =
    match Delta.matrix_of_string "0,5,8;-5,0,4;-8,-4,0" with Ok m -> m | Error e -> failwith e
  in
  let p = Contracts.preflight ~capacity:100. ~offered:50. ~matrices:[ m ] ~envelopes:[] in
  check int "checks" 6 p.Contracts.checks;
  check (list (pair string string)) "labelled findings"
    (List.init 6 (fun _ -> ("matrix#0", "delta-inconsistent")))
    (List.map (fun (l, f) -> (l, Contracts.code f)) p.Contracts.findings);
  let clean = Contracts.preflight ~capacity:100. ~offered:50. ~matrices:[] ~envelopes:[] in
  check int "defaults: five checks" 5 clean.Contracts.checks;
  check int "defaults: no finding" 0 (List.length clean.Contracts.findings);
  let over = Contracts.preflight ~capacity:100. ~offered:110. ~matrices:[] ~envelopes:[] in
  check (list (pair string string)) "overload" [ ("scenario", "unstable") ]
    (List.map (fun (l, f) -> (l, Contracts.code f)) over.Contracts.findings)

(* ---------------- the per-kind bound ---------------- *)

let test_bound_checked () =
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.35 in
  let s_points = 8 in
  List.iter
    (fun (k, tc) ->
      let o = Scenario.bound_checked ~s_points ~scheduler:k sc in
      check_bits (Kind.label k ^ " delay")
        (Scenario.delay_bound_checked ~s_points ~scheduler:tc sc).Diag.value o.Diag.value;
      let b = Scenario.bound_checked ~s_points ~metric:Scenario.Backlog ~scheduler:k sc in
      check_bits (Kind.label k ^ " backlog")
        (Scenario.backlog_bound_checked ~s_points ~scheduler:tc sc).Diag.value b.Diag.value)
    [ (Kind.Fifo, Classes.Fifo); (Kind.Bmux, Classes.Bmux); (Kind.Sp, Classes.Sp_through_high) ];
  let spec = { Scenario.cross_over_through = 10. } in
  let fp = Scenario.delay_bound_edf_checked ~s_points ~spec sc in
  let edf = Kind.Edf { cross_over_through = 10. } in
  check_bits "edf delay = the fixed point" fp.Diag.value.Scenario.bound
    (Scenario.bound_checked ~s_points ~scheduler:edf sc).Diag.value;
  (* the backlog bound reads ∆ only at ∆ = -∞: EDF's is FIFO's, SP's is not *)
  let backlog k = (Scenario.bound_checked ~s_points ~metric:Scenario.Backlog ~scheduler:k sc).Diag.value in
  check_bits "edf backlog = fifo backlog" (backlog Kind.Fifo) (backlog edf);
  check_bits "= the backlog at the fixed point's gap"
    (Scenario.backlog_bound_checked ~s_points
       ~scheduler:(Kind.edf_gap ~d_through:fp.Diag.value.Scenario.d_through ~ratio:10.)
       sc)
      .Diag.value
    (backlog edf);
  check bool "sp backlog differs" true (backlog Kind.Sp <> backlog Kind.Fifo);
  (* a fixed point that cycles has no bearing on the backlog bound *)
  let cyc = Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.25 in
  let o = Scenario.bound_checked ~metric:Scenario.Backlog ~s_points:24 ~scheduler:edf cyc in
  check string "converged" "converged" (Diag.status_to_string o.Diag.diag.Diag.status);
  check_bits "fifo's value"
    (Scenario.backlog_bound_checked ~s_points:24 ~scheduler:Classes.Fifo cyc).Diag.value
    o.Diag.value

(* One s-grid resolution: the figures' is the library default, so a bound
   asked for with no [~s_points] reproduces the committed fig. 2 cell
   (H = 10, U = 20%) as [results/fig2.csv] renders it. *)
let test_default_resolution () =
  check int "Scenario.s_points = the figures'" Perfbench.Figures.s_points Scenario.s_points;
  let sc = Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.05 in
  let cell k = Telemetry.Csv.cell (Scenario.bound_checked ~scheduler:k sc).Diag.value in
  check string "bmux" "37.2699" (cell Kind.Bmux);
  check string "fifo" "37.215" (cell Kind.Fifo);
  check string "edf ratio 10" "28.5598" (cell (Kind.Edf { cross_over_through = 10. }))

let test_diag_note () =
  check string "converged" "" (Diag.note (Diag.v Diag.Converged));
  check string "diverged" " (diverged)" (Diag.note (Diag.v Diag.Diverged));
  check string "unstable" " (unstable)" (Diag.note (Diag.v Diag.Unstable))

let suite =
  [
    test_case "kind of_string/label round trip" `Quick test_kind_round_trip;
    test_case "kind two-class descriptors" `Quick test_kind_two_class;
    QCheck_alcotest.to_alcotest prop_anchored_gap_matches_serve;
    test_case "anchored gap: -0 becomes +0" `Quick test_negative_zero_gap;
    test_case "Delta.of_string" `Quick test_delta_of_string;
    test_case "Delta.matrix_of_string" `Quick test_matrix_of_string;
    test_case "Faults.node_spec_of_string" `Quick test_node_spec_of_string;
    test_case "Curve.of_string" `Quick test_curve_of_string;
    test_case "Schedulability.flow_of_string" `Quick test_flow_of_string;
    test_case "Tandem.check refuses without running" `Quick test_tandem_check;
    test_case "Tandem.of_utilization" `Quick test_tandem_of_utilization;
    test_case "Scenario.of_loads" `Quick test_of_loads;
    test_case "preflight: CI's seeded matrix" `Quick test_preflight_seeded_matrix;
    test_case "Scenario.bound_checked per kind" `Quick test_bound_checked;
    test_case "Diag.note" `Quick test_diag_note;
    test_case "default s-grid = the figures'" `Quick test_default_resolution;
  ]
