(* Tests for the deterministic (gamma = 0) end-to-end analysis and the
   cross-validation of analytic bounds against the packet-level simulator. *)

module Curve = Minplus.Curve
module Det = Deltanet.Det_e2e
module Delta = Scheduler.Delta
module Classes = Scheduler.Classes
module Scenario = Deltanet.Scenario
module Tandem = Netsim.Tandem

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let node ~capacity ~rate ~burst ~delta =
  { Det.capacity; cross_envelope = Curve.affine ~rate ~burst; delta }

(* ---------------- deterministic path bounds ---------------- *)

let test_single_node_sp_textbook () =
  (* SP with through high priority (Neg_inf): full capacity; delay is
     burst / C. *)
  let nodes = [ node ~capacity:10. ~rate:3. ~burst:5. ~delta:Delta.Neg_inf ] in
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d = Det.delay_bound ~nodes ~through ~thetas:[ 0. ] in
  check_float "burst over capacity" 0.4 d

let test_single_node_bmux_textbook () =
  (* BMUX leftover: rate-latency (C - rc, Bc / (C - rc)); delay =
     latency + B0 / (C - rc). *)
  let nodes = [ node ~capacity:10. ~rate:3. ~burst:5. ~delta:Delta.Pos_inf ] in
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d = Det.delay_bound ~nodes ~through ~thetas:[ 0. ] in
  check_float "rate-latency delay" ((5. /. 7.) +. (4. /. 7.)) d

let test_theta_improves_fifo () =
  (* For FIFO a positive theta shifts the cross envelope right and can only
     help; the optimized bound is no worse than theta = 0. *)
  let nodes =
    [
      node ~capacity:10. ~rate:3. ~burst:5. ~delta:(Delta.Fin 0.);
      node ~capacity:10. ~rate:3. ~burst:5. ~delta:(Delta.Fin 0.);
    ]
  in
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d0 = Det.delay_bound ~nodes ~through ~thetas:[ 0.; 0. ] in
  let dopt = Det.delay_bound_uniform_theta ~nodes through in
  Alcotest.(check bool) (Fmt.str "opt %g <= theta0 %g" dopt d0) true (dopt <= d0 +. 1e-9)

let test_det_scheduler_ordering () =
  let mk delta =
    [
      node ~capacity:10. ~rate:3. ~burst:5. ~delta;
      node ~capacity:10. ~rate:3. ~burst:5. ~delta;
    ]
  in
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d delta = Det.delay_bound_uniform_theta ~nodes:(mk delta) through in
  let sp = d Delta.Neg_inf and fifo = d (Delta.Fin 0.) and bmux = d Delta.Pos_inf in
  Alcotest.(check bool)
    (Fmt.str "%g <= %g <= %g" sp fifo bmux)
    true
    (sp <= fifo +. 1e-9 && fifo <= bmux +. 1e-9)

let test_det_path_grows_with_h () =
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d h =
    let nodes =
      List.init h (fun _ -> node ~capacity:10. ~rate:3. ~burst:5. ~delta:Delta.Pos_inf)
    in
    Det.delay_bound_uniform_theta ~nodes through
  in
  let d1 = d 1 and d3 = d 3 and d6 = d 6 in
  Alcotest.(check bool) (Fmt.str "%g <= %g <= %g" d1 d3 d6) true (d1 <= d3 && d3 <= d6)

let test_det_linear_scaling_bmux () =
  (* Pay-bursts-only-once: the BMUX path bound with convolution is
     latency_total + B0 / R, linear in H — compare against the closed
     form. *)
  let h = 4 in
  let nodes =
    List.init h (fun _ -> node ~capacity:10. ~rate:3. ~burst:5. ~delta:Delta.Pos_inf)
  in
  let through = Curve.affine ~rate:2. ~burst:4. in
  let d = Det.delay_bound ~nodes ~through ~thetas:(List.init h (fun _ -> 0.)) in
  (* each node: rate-latency (7, 5/7); convolution: (7, 4 * 5/7);
     delay = 20/7 + 4/7 *)
  check_float ~tol:1e-6 "pay bursts only once" ((20. /. 7.) +. (4. /. 7.)) d

let test_det_overload () =
  let nodes = [ node ~capacity:10. ~rate:9. ~burst:1. ~delta:Delta.Pos_inf ] in
  let through = Curve.affine ~rate:2. ~burst:1. in
  check_float "unstable" Float.infinity (Det.delay_bound ~nodes ~through ~thetas:[ 0. ])

(* ---------------- analytic bounds vs simulation ---------------- *)

let sim_config scheduler =
  {
    Tandem.default_config with
    Tandem.h = 3;
    n_through = 100;
    n_cross = 233;
    slots = 60_000;
    drain_limit = 10_000;
    scheduler;
    seed = 2024L;
  }

let test_bounds_dominate_simulation () =
  (* The epsilon = 1e-3 analytic bound must dominate the empirical 99.9th
     percentile of the simulated end-to-end delay (and in practice even the
     maximum over this horizon). *)
  let sc =
    {
      (Scenario.paper_defaults ~h:3 ~n_through:100. ~n_cross:233.) with
      Scenario.epsilon = 1e-3;
    }
  in
  (* The simulator is store-and-forward (one slot of architectural latency
     per hop except the last), which the fluid analysis does not model; add
     it to the bound before comparing. *)
  let forwarding = 2. in
  List.iter
    (fun sched ->
      let bound = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:sched sc in
      let r = Tandem.run (sim_config sched) in
      let q = Tandem.delay_quantile r 0.999 in
      Alcotest.(check bool)
        (Fmt.str "Δ=%a: sim q99.9 %.1f <= bound %.1f (+%g forwarding)"
           Scheduler.Delta.pp (Classes.delta_through_cross sched) q bound forwarding)
        true
        (q <= bound +. forwarding))
    [ Classes.Fifo; Classes.Bmux; Classes.Sp_through_high ]

let test_backlog_bound_dominates_simulation () =
  (* The analytic end-to-end backlog bound at eps = 1e-3 must dominate the
     simulated through-backlog quantile. *)
  let sc =
    {
      (Scenario.paper_defaults ~h:3 ~n_through:100. ~n_cross:504.) with
      Scenario.epsilon = 1e-3;
    }
  in
  let bound =
    (Scenario.backlog_bound_checked ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc).Deltanet.Diag.value
  in
  let r =
    Tandem.run
      { (sim_config Classes.Fifo) with Tandem.n_cross = 504 (* U = 90% *) }
  in
  let q = Desim.Stats.Sample.quantile r.Tandem.through_backlog 0.999 in
  Alcotest.(check bool)
    (Fmt.str "sim backlog q99.9 %.0f kb <= bound %.0f kb" q bound)
    true (q <= bound)

let test_sim_fifo_vs_edf_ordering () =
  (* Operationally, EDF with a loose cross deadline behaves at least as well
     as FIFO for the through traffic at high quantiles. *)
  let fifo = Tandem.run (sim_config Classes.Fifo) in
  let edf =
    Tandem.run
      {
        (sim_config (Classes.Edf_gap (-90.))) with
        Tandem.through_deadline = 10.;
        cross_deadline = 100.;
      }
  in
  let qf = Tandem.delay_quantile fifo 0.999 and qe = Tandem.delay_quantile edf 0.999 in
  Alcotest.(check bool) (Fmt.str "EDF %.1f <= FIFO %.1f + slack" qe qf) true (qe <= qf +. 2.)

let suite =
  [
    Alcotest.test_case "det: SP textbook" `Quick test_single_node_sp_textbook;
    Alcotest.test_case "det: BMUX textbook" `Quick test_single_node_bmux_textbook;
    Alcotest.test_case "det: theta helps FIFO" `Quick test_theta_improves_fifo;
    Alcotest.test_case "det: scheduler ordering" `Quick test_det_scheduler_ordering;
    Alcotest.test_case "det: grows with H" `Quick test_det_path_grows_with_h;
    Alcotest.test_case "det: pay bursts only once" `Quick test_det_linear_scaling_bmux;
    Alcotest.test_case "det: overload" `Quick test_det_overload;
    Alcotest.test_case "bounds dominate simulation" `Slow test_bounds_dominate_simulation;
    Alcotest.test_case "sim EDF vs FIFO" `Slow test_sim_fifo_vs_edf_ordering;
    Alcotest.test_case "backlog bound dominates sim" `Slow test_backlog_bound_dominates_simulation;
  ]
