(* Tests for the Section-IV end-to-end analysis: closed forms, the
   K-procedure, scaling shapes, the scenario layer, and the additive
   baseline. *)

module E2e = Deltanet.E2e
module Scenario = Deltanet.Scenario
module Additive = Deltanet.Additive
module Delta = Scheduler.Delta
module Classes = Scheduler.Classes
module Ebb = Envelope.Ebb
module Exp = Envelope.Exponential

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let mk_path ~h ~delta =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:35. ~alpha:0.8 in
  E2e.homogeneous ~h ~capacity:100. ~cross ~delta ~through

(* ---------------- bounding function (Eq. 34) ---------------- *)

let test_total_bound_matches_eq34 () =
  (* Homogeneous case with m = 1: the closed form of Eq. (34). *)
  let h = 4 in
  let p = mk_path ~h ~delta:(Delta.Fin 0.) in
  let gamma = 1.2 in
  let alpha = 0.8 in
  let b = E2e.total_bound p ~gamma in
  let hf = float_of_int h in
  let q = exp (-.alpha *. gamma) in
  let expected_rate = alpha /. (hf +. 1.) in
  let expected_m = (hf +. 1.) *. ((1. -. q) ** (-2. *. hf /. (hf +. 1.))) in
  check_float ~tol:1e-9 "rate alpha/(H+1)" expected_rate b.Exp.a;
  check_float ~tol:1e-9 "prefactor M(H+1)(1-q)^{-2H/(H+1)}" expected_m b.Exp.m

let test_sigma_roundtrip () =
  let p = mk_path ~h:3 ~delta:Delta.Pos_inf in
  let gamma = 1. in
  let sigma = E2e.sigma_for p ~gamma ~epsilon:1e-9 in
  let b = E2e.total_bound p ~gamma in
  check_float ~tol:1e-9 "roundtrip" 1e-9 (Exp.eval_uncapped b sigma)

(* ---------------- closed forms (Eq. 43 / 44) ---------------- *)

let test_bmux_matches_eq43 () =
  List.iter
    (fun h ->
      let p = mk_path ~h ~delta:Delta.Pos_inf in
      let gamma = 0.8 and sigma = 300. in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let closed = E2e.bmux_closed_form p ~gamma ~sigma in
      check_float ~tol:1e-9 (Fmt.str "H=%d" h) closed exact)
    [ 1; 2; 5; 10; 20 ]

let test_fifo_matches_eq44 () =
  List.iter
    (fun h ->
      let p = mk_path ~h ~delta:(Delta.Fin 0.) in
      let gamma = 0.8 and sigma = 300. in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let closed = E2e.fifo_closed_form p ~gamma ~sigma in
      (* the closed form uses the paper's K choice, which is near-optimal:
         the exact optimum can only be (weakly) better *)
      Alcotest.(check bool)
        (Fmt.str "H=%d exact %.9g <= closed %.9g" h exact closed)
        true
        (exact <= closed +. 1e-9 *. closed);
      check_float ~tol:1e-6 (Fmt.str "H=%d near-optimal" h) closed exact)
    [ 1; 2; 5; 10; 20 ]

let test_k_procedure_upper_bounds_exact () =
  List.iter
    (fun (h, delta, sigma) ->
      let p = mk_path ~h ~delta in
      let gamma = 0.5 in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let kproc = E2e.k_procedure p ~gamma ~sigma in
      Alcotest.(check bool)
        (Fmt.str "H=%d delta=%a exact %.6g <= kproc %.6g" h Delta.pp delta exact kproc)
        true
        (exact <= kproc +. 1e-6 *. (1. +. kproc));
      (* and the explicit procedure should be close to optimal *)
      Alcotest.(check bool)
        (Fmt.str "H=%d delta=%a kproc near-optimal" h Delta.pp delta)
        true
        (kproc <= exact *. 1.2 +. 1e-6))
    [
      (2, Delta.Fin 0., 250.);
      (5, Delta.Fin 0., 250.);
      (2, Delta.Fin (-5.), 250.);
      (5, Delta.Fin (-5.), 250.);
      (10, Delta.Fin (-20.), 250.);
      (5, Delta.Fin 3., 250.);
      (5, Delta.Pos_inf, 250.);
      (5, Delta.Neg_inf, 250.);
      (* the long, loose-EDF and BMUX paths of the K-procedure ablation *)
      (30, Delta.Fin 0., 300.);
      (10, Delta.Fin 5., 300.);
      (10, Delta.Pos_inf, 300.);
    ]

let test_h1_theta_equals_d () =
  (* For H = 1 the paper notes the optimal theta is d itself (X = 0) and
     the result coincides with the single-node analysis of Section III-B:
     the classic FIFO bound d = sigma / C (cross traffic arriving after the
     tagged bit cannot delay it under FIFO). *)
  let p = mk_path ~h:1 ~delta:(Delta.Fin 0.) in
  let gamma = 1. and sigma = 200. in
  let d = E2e.delay_given p ~gamma ~sigma in
  check_float ~tol:1e-9 "single node FIFO" (sigma /. 100.) d;
  (* whereas BMUX at H = 1 pays the full leftover-rate price *)
  let pb = mk_path ~h:1 ~delta:Delta.Pos_inf in
  check_float ~tol:1e-9 "single node BMUX"
    (sigma /. (100. -. 35. -. gamma))
    (E2e.delay_given pb ~gamma ~sigma)

(* ---------------- structural properties ---------------- *)

let test_scheduler_ordering_e2e () =
  let gamma = 0.6 and sigma = 400. in
  List.iter
    (fun h ->
      let d_of delta = E2e.delay_given (mk_path ~h ~delta) ~gamma ~sigma in
      let sp = d_of Delta.Neg_inf in
      let edf_loose = d_of (Delta.Fin (-10.)) in
      let fifo = d_of (Delta.Fin 0.) in
      let edf_tight = d_of (Delta.Fin 10.) in
      let bmux = d_of Delta.Pos_inf in
      Alcotest.(check bool)
        (Fmt.str "H=%d: %.4g <= %.4g <= %.4g <= %.4g <= %.4g" h sp edf_loose fifo
           edf_tight bmux)
        true
        (sp <= edf_loose +. 1e-9
        && edf_loose <= fifo +. 1e-9
        && fifo <= edf_tight +. 1e-9
        && edf_tight <= bmux +. 1e-9))
    [ 1; 3; 8 ]

let test_delay_monotone_in_h () =
  let epsilon = 1e-9 in
  let prev = ref 0. in
  List.iter
    (fun h ->
      let d = E2e.delay_bound ~epsilon (mk_path ~h ~delta:(Delta.Fin 0.)) in
      Alcotest.(check bool) (Fmt.str "H=%d: %g >= %g" h d !prev) true (d >= !prev -. 1e-9);
      prev := d)
    [ 1; 2; 4; 8; 16 ]

let test_delay_monotone_in_epsilon () =
  let p = mk_path ~h:5 ~delta:(Delta.Fin 0.) in
  let d9 = E2e.delay_bound ~epsilon:1e-9 p in
  let d6 = E2e.delay_bound ~epsilon:1e-6 p in
  let d3 = E2e.delay_bound ~epsilon:1e-3 p in
  Alcotest.(check bool) (Fmt.str "%g >= %g >= %g" d9 d6 d3) true (d9 >= d6 && d6 >= d3)

let test_overload_infinite () =
  let through = Ebb.v ~m:1. ~rho:60. ~alpha:1. in
  let cross = Ebb.v ~m:1. ~rho:60. ~alpha:1. in
  let p = E2e.homogeneous ~h:3 ~capacity:100. ~cross ~delta:(Delta.Fin 0.) ~through in
  check_float "overloaded path" Float.infinity (E2e.delay_bound ~epsilon:1e-9 p);
  Alcotest.(check bool) "gamma_max non-positive" true (E2e.gamma_max p <= 0.)

let test_fifo_approaches_bmux_low_cross () =
  (* The paper's observation: for small cross utilization or long paths the
     FIFO bound approaches the BMUX bound. *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:5. ~alpha:0.8 in
  let d delta h =
    E2e.delay_bound ~epsilon:1e-9
      (E2e.homogeneous ~h ~capacity:100. ~cross ~delta ~through)
  in
  let ratio_h1 = d (Delta.Fin 0.) 1 /. d Delta.Pos_inf 1 in
  let ratio_h10 = d (Delta.Fin 0.) 10 /. d Delta.Pos_inf 10 in
  Alcotest.(check bool)
    (Fmt.str "ratio H=10 (%.4f) closer to 1 than H=1 (%.4f)" ratio_h10 ratio_h1)
    true
    (ratio_h10 > ratio_h1 && ratio_h10 > 0.97)

let test_heterogeneous_path () =
  (* Per-node capacities and deltas; the bound must still be finite and
     dominated by the weakest node's homogeneous bound. *)
  let through = Ebb.v ~m:1. ~rho:10. ~alpha:1. in
  let mk cap rho_c delta = { E2e.capacity = cap; cross_rho = rho_c; cross_m = 1.; delta } in
  let p =
    {
      E2e.nodes =
        [| mk 100. 30. (Delta.Fin 0.); mk 80. 20. Delta.Pos_inf; mk 120. 50. (Delta.Fin (-3.)) |];
      through;
    }
  in
  let d = E2e.delay_bound ~epsilon:1e-9 p in
  Alcotest.(check bool) (Fmt.str "finite heterogeneous bound %g" d) true (Float.is_finite d);
  (* worst node everywhere can only be worse *)
  let worst =
    E2e.homogeneous ~h:3 ~capacity:80. ~cross:(Ebb.v ~m:1. ~rho:50. ~alpha:1.)
      ~delta:Delta.Pos_inf ~through
  in
  let d_worst = E2e.delay_bound ~epsilon:1e-9 worst in
  Alcotest.(check bool) (Fmt.str "%g <= %g" d d_worst) true (d <= d_worst +. 1e-9)

(* ---------------- explicit network service curve ---------------- *)

let test_curve_agrees_with_optimizer () =
  (* The horizontal deviation against the materialized Eq.-30 curve at the
     optimal thetas must equal the Eq.-38 optimum. *)
  List.iter
    (fun (h, delta) ->
      let p = mk_path ~h ~delta in
      let gamma = 0.7 and sigma = 280. in
      let d_opt = E2e.delay_given p ~gamma ~sigma in
      let (thetas, _x) = E2e.Reference.optimal_thetas p ~gamma ~sigma in
      let d_curve = E2e.Reference.delay_via_curve p ~gamma ~sigma ~thetas in
      check_float ~tol:1e-6 (Fmt.str "H=%d delta=%a" h Delta.pp delta) d_opt d_curve)
    [
      (1, Delta.Fin 0.);
      (4, Delta.Fin 0.);
      (4, Delta.Pos_inf);
      (4, Delta.Fin (-8.));
      (4, Delta.Fin 4.);
      (7, Delta.Neg_inf);
    ]

let test_curve_shape () =
  let p = mk_path ~h:3 ~delta:Delta.Pos_inf in
  let thetas = [| 1.; 2.; 0.5 |] in
  let s = E2e.Reference.network_service_curve p ~gamma:0.5 ~thetas in
  let module Curve = Minplus.Curve in
  check_float "gated until sum of thetas" 0. (Curve.eval s 3.);
  Alcotest.(check bool) "positive after gate" true (Curve.eval s 4. > 0.);
  (* ultimate rate = min_h (C_h - rho_c - gamma) = C - 2 gamma - rho_c - gamma *)
  check_float ~tol:1e-9 "ultimate rate" (100. -. 1. -. 35. -. 0.5) (Curve.ultimate_rate s)

let test_backlog_properties () =
  let p = mk_path ~h:4 ~delta:(Delta.Fin 0.) in
  let b9 = E2e.backlog_bound ~epsilon:1e-9 p in
  let b3 = E2e.backlog_bound ~epsilon:1e-3 p in
  Alcotest.(check bool) (Fmt.str "finite backlog %g" b9) true (Float.is_finite b9);
  Alcotest.(check bool) (Fmt.str "monotone in eps: %g >= %g" b9 b3) true (b9 >= b3);
  (* backlog grows with path length *)
  let b9_short = E2e.backlog_bound ~epsilon:1e-9 (mk_path ~h:2 ~delta:(Delta.Fin 0.)) in
  Alcotest.(check bool) (Fmt.str "grows with H: %g >= %g" b9 b9_short) true (b9 >= b9_short)

(* ---------------- scenario layer ---------------- *)

let test_scenario_flow_counts () =
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.15 ~u_cross:0.35 in
  check_float ~tol:1e-6 "N0 ~ 100"
    (0.15 *. 100. /. Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source)
    sc.Scenario.n_through;
  check_float ~tol:1e-9 "utilization" 0.5
    ((sc.Scenario.n_through +. sc.Scenario.n_cross)
    *. Envelope.Mmpp.mean_rate sc.Scenario.source /. sc.Scenario.capacity)

let test_scenario_fifo_between_sp_and_bmux () =
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.3 in
  let d s = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:s sc in
  let sp = d Classes.Sp_through_high in
  let fifo = d Classes.Fifo in
  let bmux = d Classes.Bmux in
  Alcotest.(check bool)
    (Fmt.str "%g <= %g <= %g" sp fifo bmux)
    true
    (sp <= fifo +. 1e-9 && fifo <= bmux +. 1e-9)

let test_scenario_increasing_in_utilization () =
  let d u =
    Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Fifo
      (Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:(u -. 0.15))
  in
  let d30 = d 0.30 and d60 = d 0.60 and d90 = d 0.90 in
  Alcotest.(check bool) (Fmt.str "%g < %g < %g" d30 d60 d90) true (d30 < d60 && d60 < d90)

let test_scenario_edf_fixed_point () =
  let sc = Scenario.of_utilization ~h:5 ~u_through:0.15 ~u_cross:0.35 in
  let r =
    (Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points sc
       ~spec:{ Scenario.cross_over_through = 10. })
      .Deltanet.Diag.value
  in
  let fifo = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc in
  Alcotest.(check bool) (Fmt.str "EDF %g < FIFO %g" r.Scenario.bound fifo) true
    (r.Scenario.bound < fifo);
  (* self-consistency of the fixed point: recomputing at the returned gap
     reproduces the bound *)
  let gap = r.Scenario.d_through -. r.Scenario.d_cross in
  let again = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:(Classes.Edf_gap gap) sc in
  check_float ~tol:1e-3 "fixed point" r.Scenario.bound again

let test_scenario_edf_tight_deadlines_above_fifo () =
  (* d*_0 = 2 d*_c makes the cross traffic more urgent: bound above FIFO,
     below BMUX. *)
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.15 ~u_cross:0.35 in
  let r =
    (Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points sc
       ~spec:{ Scenario.cross_over_through = 0.5 })
      .Deltanet.Diag.value
  in
  let fifo = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc in
  let bmux = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Bmux sc in
  Alcotest.(check bool)
    (Fmt.str "FIFO %g <= EDF-tight %g <= BMUX %g" fifo r.Scenario.bound bmux)
    true
    (fifo <= r.Scenario.bound +. 1e-6 && r.Scenario.bound <= bmux +. 1e-6)

let test_scenario_backlog () =
  (* the backlog bound reads ∆ only at ∆ = -∞: FIFO and BMUX agree bit
     for bit, and SP (cross traffic never ahead) is lower *)
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.35 in
  let b scheduler = (Scenario.backlog_bound_checked ~s_points:Scenario.s_points ~scheduler sc).Deltanet.Diag.value in
  let b_fifo = b Classes.Fifo and b_bmux = b Classes.Bmux and b_sp = b Classes.Sp_through_high in
  Alcotest.(check bool) (Fmt.str "finite backlog %g" b_fifo) true (Float.is_finite b_fifo);
  Alcotest.(check int64) "fifo = bmux bit for bit" (Int64.bits_of_float b_fifo)
    (Int64.bits_of_float b_bmux);
  Alcotest.(check bool) (Fmt.str "sp %g < fifo %g" b_sp b_fifo) true (b_sp < b_fifo)

(* ---------------- kernel vs reference (bit-for-bit) ---------------- *)

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let delta_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Delta.Neg_inf);
        (1, return Delta.Pos_inf);
        (2, map (fun d -> Delta.Fin d) (float_range (-30.) 30.));
      ])

let node_gen =
  QCheck.Gen.(
    map
      (fun (capacity, cross_rho, cross_m, delta) ->
        { E2e.capacity; cross_rho; cross_m; delta })
      (quad (float_range 60. 150.) (float_range 0.5 40.) (float_range 0.5 3.) delta_gen))

let print_node (nd : E2e.node) =
  Fmt.str "{C=%g rho_c=%g m=%g d=%a}" nd.E2e.capacity nd.E2e.cross_rho nd.E2e.cross_m
    Delta.pp nd.E2e.delta

(* A random heterogeneous path (mixed SP/FIFO/EDF/BMUX deltas, H in
   1..20).  The generator keeps [C -. rho_c -. rho >= 5] at every node,
   so [gamma_max > 0] always. *)
let path_gen =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  QCheck.Gen.(
    int_range 1 20 >>= fun h ->
    array_repeat h node_gen >|= fun nodes -> { E2e.nodes; through })

let print_path p =
  Fmt.str "H=%d nodes=[%s]"
    (Array.length p.E2e.nodes)
    (String.concat "; " (Array.to_list (Array.map print_node p.E2e.nodes)))

let path_arb = QCheck.make ~print:print_path path_gen

(* ---------------- backlog = σ ---------------- *)

(* The curve-based backlog bound, the oracle for [E2e.backlog_bound]:
   the vertical deviation of the through envelope sigma + (ρ+γ)t against
   the Eq.-30 network service curve, minimized over the θ vectors of
   Eq. (38)'s X candidates. *)
let backlog_given p ~gamma ~sigma =
  let arrival = Minplus.Curve.affine ~rate:(p.E2e.through.Ebb.rho +. gamma) ~burst:sigma in
  let backlog_at x =
    let thetas = Array.init (E2e.hop_count p) (E2e.theta_of_x p ~gamma ~sigma ~x) in
    if Array.exists (fun t -> not (Float.is_finite t)) thetas then Float.infinity
    else Minplus.Deviation.vertical ~arrival ~service:(E2e.Reference.network_service_curve p ~gamma ~thetas)
  in
  List.fold_left
    (fun acc x -> Float.min acc (backlog_at x))
    Float.infinity
    (E2e.Reference.x_candidates p ~gamma ~sigma)

(* The oracle equals sigma up to one rounding (DESIGN.md §7, "Backlog =
   σ"): the gated curve makes the gap at t = 0 exactly sigma, and at the
   largest X candidate, where every θ_h is 0, each gap
   fl(fl(sigma + A) - S) with A <= S rounds to at most [Float.succ sigma]. *)
let prop_backlog_is_sigma =
  QCheck.Test.make ~name:"backlog = sigma: curve oracle in [sigma, succ sigma]"
    ~count:(Qc.count 300)
    (QCheck.pair path_arb (QCheck.float_range 1e-6 0.999))
    (fun (p, u) ->
      let gamma = u *. E2e.gamma_max p in
      let sigma = E2e.sigma_for p ~gamma ~epsilon:1e-9 in
      let b = backlog_given p ~gamma ~sigma in
      if not (sigma <= b && b <= Float.succ sigma) then
        QCheck.Test.fail_reportf "gamma %.17g: sigma %.17g, curve backlog %.17g" gamma sigma b;
      true)

(* [E2e.backlog_bound] is the least sigma over the γ bracket (sigma is
   non-increasing in γ), and reads ∆ only at ∆ = -∞: any finite or +∞
   gap in place of another gives the same bits. *)
let prop_backlog_bound_least_sigma =
  QCheck.Test.make ~name:"backlog_bound = least sigma over the bracket, blind to finite delta"
    ~count:(Qc.count 300)
    (QCheck.triple path_arb (QCheck.float_range 0. 1.) (QCheck.float_range (-12.) (-2.)))
    (fun (p, u, log_eps) ->
      let epsilon = 10. ** log_eps in
      let lo, hi = E2e.gamma_bracket (E2e.gamma_max p) in
      let b = E2e.backlog_bound ~epsilon p in
      List.iter
        (fun gamma ->
          let s = E2e.sigma_for p ~gamma ~epsilon in
          if not (b <= s) then
            QCheck.Test.fail_reportf "gamma %.17g: bound %.17g > sigma %.17g" gamma b s)
        [ lo; lo *. ((hi /. lo) ** u); hi ];
      let fifo_like (nd : E2e.node) =
        match nd.E2e.delta with Delta.Neg_inf -> nd | _ -> { nd with E2e.delta = Delta.Fin 0. }
      in
      let b0 = E2e.backlog_bound ~epsilon { p with E2e.nodes = Array.map fifo_like p.E2e.nodes } in
      if not (bit_eq b b0) then
        QCheck.Test.fail_reportf "finite gaps moved the bound: %.17g vs %.17g" b b0;
      true)

(* The bound costs one sigma per s: no min-plus curve and no γ search *)
let test_backlog_skips_curves () =
  let vertical = Telemetry.Counter.make "minplus.deviation.vertical.calls" in
  let gamma_evals = Telemetry.Counter.make "e2e.gamma.evals" in
  let added c f =
    let c0 = Telemetry.Counter.value c in
    f ();
    Telemetry.Counter.value c - c0
  in
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let sc = Scenario.of_utilization ~h:30 ~u_through:0.15 ~u_cross:0.35 in
      let backlog () =
        ignore (Scenario.backlog_bound_checked ~scheduler:Classes.Fifo sc : float Deltanet.Diag.outcome)
      in
      Alcotest.(check int) "no vertical deviation" 0 (added vertical backlog);
      Alcotest.(check int) "no gamma evaluation" 0 (added gamma_evals backlog);
      (* the counter is live: the curve oracle bumps it *)
      let p = mk_path ~h:3 ~delta:(Delta.Fin 0.) in
      let gamma = 0.5 in
      let oracle () = ignore (backlog_given p ~gamma ~sigma:(E2e.sigma_for p ~gamma ~epsilon:1e-9)) in
      Alcotest.(check bool) "the oracle counts" true (added vertical oracle > 0))

(* ---------------- batch vs reference ---------------- *)

(* Sigma draws for the bit-identity property: mostly a spread of
   positive values, plus both signed zeros.  sigma = -0. passes
   [delay_given]'s [sigma < 0.] guard and makes the compiled candidate
   sort keep -0. and +0. as two candidates where the reference keeps
   one; the results must still match bit for bit. *)
let sigma_gen =
  QCheck.Gen.(
    frequency [ (1, return (-0.)); (1, return 0.); (6, float_range 0. 500.) ])

(* A path plus unsorted γ fractions and σ values: one batch is reused
   across every point, so each [set] overwrites state compiled for an
   arbitrary earlier point, not just a smooth sweep. *)
let panel_arb =
  let gen =
    QCheck.Gen.(
      triple path_gen
        (list_size (int_range 1 5) (float_range 1e-4 0.95))
        (list_size (int_range 1 5) sigma_gen))
  in
  let print (p, us, sigmas) =
    Fmt.str "us=[%s] sigmas=[%s] %s"
      (String.concat "; " (List.map (Fmt.str "%g") us))
      (String.concat "; " (List.map (Fmt.str "%g") sigmas))
      (print_path p)
  in
  QCheck.make ~print gen

let check_bits what got want =
  if not (bit_eq got want) then
    QCheck.Test.fail_reportf "%s: batch %.17g reference %.17g" what got want

(* The compiled evaluator's contract: it replays the list-based
   reference float for float, so sigma_for, the Eq.-38 delay and
   optimal_thetas (thetas and X) are bit-identical — for every
   scheduler mix, every H, and every (γ, σ) point, including σ = ±0.
   and σ = sigma_for γ.  The public [delay_given] built on [Batch] must
   agree too. *)
let prop_batch_matches_reference =
  QCheck.Test.make ~name:"batch = reference bit-for-bit (Eq. 38)" ~count:(Qc.count 300)
    panel_arb
    (fun (p, us, sigmas) ->
      let epsilon = 1e-9 in
      let gmax = E2e.gamma_max p in
      let gammas = Array.of_list (List.map (fun u -> gmax *. u) us) in
      let bt = E2e.Batch.make p in
      Array.iteri
        (fun i gamma ->
          let sref = E2e.Reference.sigma_for p ~gamma ~epsilon in
          check_bits (Fmt.str "sigma_for %d" i)
            (E2e.Batch.sigma_for bt ~gamma ~epsilon)
            sref;
          List.iteri
            (fun j sigma ->
              let at what = Fmt.str "%s (%d,%d)" what i j in
              let dref = E2e.Reference.delay_given p ~gamma ~sigma in
              E2e.Batch.set bt ~gamma ~sigma;
              check_bits (at "delay") (E2e.Batch.delay bt) dref;
              check_bits (at "delay_given") (E2e.delay_given p ~gamma ~sigma) dref;
              let (tref, xref) = E2e.Reference.optimal_thetas p ~gamma ~sigma in
              let (tb, xb) = E2e.Batch.optimal_thetas bt in
              check_bits (at "optimal X") xb xref;
              if Array.length tb <> Array.length tref then
                QCheck.Test.fail_reportf "%s: %d vs %d" (at "theta arity")
                  (Array.length tb) (Array.length tref);
              Array.iteri
                (fun h v -> check_bits (at (Fmt.str "theta %d" h)) tb.(h) v)
                tref)
            (sref :: sigmas))
        gammas;
      true)

(* The γ-row drivers: [Batch.delay_at_gamma], the public
   [delay_at_gamma] and the allocation-free [run_gammas] each equal the
   reference delay at σ = sigma_for γ, bit for bit.  The batch is first
   dirtied at arbitrary (γ, σ) points, so every row entry overwrites
   stale state; the empty row is a no-op. *)
let prop_batch_rows_match_reference =
  QCheck.Test.make ~name:"batch rows = reference bit-for-bit (sigma_for)"
    ~count:(Qc.count 300) panel_arb
    (fun (p, us, sigmas) ->
      let epsilon = 1e-9 in
      let gmax = E2e.gamma_max p in
      let gammas = Array.of_list (List.map (fun u -> gmax *. u) us) in
      let bt = E2e.Batch.make p in
      List.iter (fun sigma -> E2e.Batch.set bt ~gamma:gammas.(0) ~sigma) sigmas;
      Array.iteri
        (fun i gamma ->
          let sref = E2e.Reference.sigma_for p ~gamma ~epsilon in
          let dref = E2e.Reference.delay_given p ~gamma ~sigma:sref in
          check_bits (Fmt.str "Batch.delay_at_gamma %d" i)
            (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon)
            dref)
        gammas;
      let out = Array.make (Array.length gammas) Float.nan in
      E2e.Batch.run_gammas bt ~epsilon ~gammas ~out;
      Array.iteri
        (fun i gamma ->
          let sigma = E2e.Reference.sigma_for p ~gamma ~epsilon in
          check_bits (Fmt.str "run_gammas %d" i) out.(i)
            (E2e.Reference.delay_given p ~gamma ~sigma))
        gammas;
      E2e.Batch.run_gammas bt ~epsilon ~gammas:[||] ~out:[||];
      true)

(* Homogeneous path + (gamma, sigma) for the K-procedure properties. *)
let homog_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      quad (float_range 60. 150.) (float_range 0.5 40.) (float_range 0.5 3.) delta_gen
      >>= fun (capacity, rho_c, m_c, delta) ->
      pair (float_range 1e-4 0.9) (float_range 0. 500.)
      >>= fun (u, extra) ->
      let cross = Ebb.v ~m:m_c ~rho:rho_c ~alpha:0.8 in
      return (E2e.homogeneous ~h ~capacity ~cross ~delta ~through, u, extra))
  in
  let print (p, u, extra) =
    Fmt.str "H=%d u=%g extra=%g node=%s"
      (Array.length p.E2e.nodes)
      u extra
      (print_node p.E2e.nodes.(0))
  in
  QCheck.make ~print gen

(* Eq. 40–44 dispatch: the paper's explicit K-procedure equals the
   candidate-enumeration minimum (to ~1e-9 relative) for SP, BMUX and
   FIFO deltas, and upper-bounds it for every homogeneous delta. *)
let prop_k_procedure_vs_enumeration =
  QCheck.Test.make ~name:"k_procedure vs candidate enumeration (homogeneous)"
    ~count:(Qc.count 400) homog_arb
    (fun (p, u, extra) ->
      let gamma = E2e.gamma_max p *. u in
      let sigma = E2e.Reference.sigma_for p ~gamma ~epsilon:1e-9 +. extra in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let kproc = E2e.k_procedure p ~gamma ~sigma in
      (* always a valid upper bound *)
      if not (exact <= kproc +. 1e-9 *. (1. +. Float.abs kproc)) then
        QCheck.Test.fail_reportf "k_procedure %.17g below exact %.17g" kproc exact;
      (* exact (not just an upper bound) for the three named disciplines *)
      let must_be_exact =
        match p.E2e.nodes.(0).E2e.delta with
        | Delta.Neg_inf | Delta.Pos_inf -> true
        | Delta.Fin d -> Float.equal d 0.
      in
      if must_be_exact then begin
        let agree =
          (Float.equal exact Float.infinity && Float.equal kproc Float.infinity)
          || Float.abs (exact -. kproc)
             <= 1e-9 *. (1. +. Float.max (Float.abs exact) (Float.abs kproc))
        in
        if not agree then
          QCheck.Test.fail_reportf "SP/BMUX/FIFO: k_procedure %.17g <> exact %.17g"
            kproc exact
      end;
      true)

(* Eq. 40-44 at the edges: gaps of any magnitude up to 1e300 (mostly
   negative, Eq. 42) and a sigma up to +inf (where Eq. 38 is
   infeasible).  The K-procedure is never NaN where the exact solver is
   not, and +inf wherever the exact solver is. *)
let neg_gap_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 30 >>= fun h ->
      quad (float_range 60. 150.) (float_range 0.5 40.) (float_range 0.5 3.)
        (frequency
           [
             (4, map (fun e -> Delta.Fin (-.(10. ** e))) (float_range (-300.) 300.));
             (1, map (fun e -> Delta.Fin (10. ** e)) (float_range (-300.) 300.));
             (1, return (Delta.Fin 0.));
             (1, return Delta.Neg_inf);
             (1, return Delta.Pos_inf);
           ])
      >>= fun (capacity, rho_c, m_c, delta) ->
      let cross = Ebb.v ~m:m_c ~rho:rho_c ~alpha:0.8 in
      let p = E2e.homogeneous ~h ~capacity ~cross ~delta ~through in
      float_range 1e-12 0.999 >>= fun u ->
      let gamma = E2e.gamma_max p *. u in
      frequency
        [
          (4, map (fun extra -> E2e.Reference.sigma_for p ~gamma ~epsilon:1e-9 +. extra)
                (float_range 0. 500.));
          (2, return Float.infinity);
          (2, map (fun e -> 10. ** e) (float_range 0. 308.));
        ]
      >>= fun sigma -> return (p, gamma, sigma))
  in
  let print (p, gamma, sigma) =
    Fmt.str "H=%d gamma=%h sigma=%h node=%s" (Array.length p.E2e.nodes) gamma sigma
      (print_node p.E2e.nodes.(0))
  in
  QCheck.make ~print gen

let prop_k_procedure_never_nan =
  QCheck.Test.make ~name:"k_procedure: no NaN, +inf where Eq. 38 is (edge gaps)"
    ~count:(Qc.count 400) neg_gap_arb
    (fun (p, gamma, sigma) ->
      let exact = E2e.delay_given p ~gamma ~sigma in
      let kproc = E2e.k_procedure p ~gamma ~sigma in
      if Float.is_nan kproc && not (Float.is_nan exact) then
        QCheck.Test.fail_reportf "k_procedure NaN where delay_given = %h" exact;
      if Float.equal exact Float.infinity && not (Float.equal kproc Float.infinity) then
        QCheck.Test.fail_reportf "delay_given +inf, k_procedure %h" kproc;
      true)

(* The engine's eager refusal reads one stability probe; it must agree
   with the full stability scan, up to the stability edge *)
let test_has_stable_s () =
  List.iter
    (fun (u0, uc) ->
      List.iter
        (fun h ->
          let sc = Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc in
          Alcotest.(check bool)
            (Printf.sprintf "h=%d u0=%g uc=%g" h u0 uc)
            (Option.is_some (Scenario.s_stable_max sc))
            (Scenario.has_stable_s sc))
        [ 1; 10; 10_000 ])
    [
      (0., 0.); (0.15, 0.35); (0.5, 0.4998); (0.5, 0.49989); (0.5, 0.4999); (0.5, 0.49995);
      (0.99, 0.0099); (1e-300, 0.99999);
    ]

(* ---------------- additive baseline ---------------- *)

let test_additive_dominates_network_bound () =
  List.iter
    (fun h ->
      let sc = Scenario.of_utilization ~h ~u_through:0.25 ~u_cross:0.25 in
      let net = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Bmux sc in
      let add = Additive.delay_bound_scenario ~s_points:Scenario.s_points sc in
      Alcotest.(check bool)
        (Fmt.str "H=%d: additive %g >= network %g" h add net)
        true
        (add >= net *. 0.99))
    [ 2; 5; 10 ]

let test_additive_superlinear_growth () =
  (* Ratio additive/network must grow with H (Fig. 4's message). *)
  let ratio h =
    let sc = Scenario.of_utilization ~h ~u_through:0.25 ~u_cross:0.25 in
    let net = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Bmux sc in
    let add = Additive.delay_bound_scenario ~s_points:Scenario.s_points sc in
    add /. net
  in
  let r2 = ratio 2 and r10 = ratio 10 in
  Alcotest.(check bool) (Fmt.str "ratio grows: %g -> %g" r2 r10) true (r10 > r2)

let test_additive_per_node_increasing () =
  (* Per-node delay bounds must increase along the path (burstiness grows). *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:25. ~alpha:0.8 in
  let (per, total) =
    Additive.analyze ~capacity:100. ~cross ~through ~h:6 ~gamma:1. ~epsilon:1e-9
  in
  Alcotest.(check int) "six nodes" 6 (List.length per);
  Alcotest.(check bool) "total finite" true (Float.is_finite total);
  let ds = List.map (fun p -> p.Additive.delay) per in
  let rec nondecr = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecr rest
    | _ -> true
  in
  Alcotest.(check bool) "per-node delays nondecreasing" true (nondecr ds)

(* ---------------- the pruned evaluator ---------------- *)

(* Long paths for the slope sweep: mostly mixed-∆ paths with H in
   1..40, past the figures' H = 30 and the 20 of [path_gen], and four
   kinds aimed at its exclusion rule:
   - flat stretches: strict-priority and BMUX nodes, whose slope is 1
     less one per node still above its kink, so exactly 0 between the
     two largest kinks; one BMUX node with little margin stretches that
     flat, and EDF nodes with a large negative gap put their -∆ and
     root kinks, where the slope does not jump, anywhere along it;
   - candidates a few ulps apart: EDF gaps -∆0 (1 + k ulp), k in 0..4,
     under a heavy cross load, so the slope turns positive inside the
     cluster of -∆ kinks;
   - ∆ > 0 at every node: one concave kink per node, several bottoms;
   - now and then H in 100..1000. *)
let long_path_gen =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let path nodes = { E2e.nodes; through } in
  let node delta (capacity, cross_rho) = { E2e.capacity; cross_rho; cross_m = 1.; delta } in
  let load = QCheck.Gen.(pair (float_range 60. 150.) (float_range 0.5 40.)) in
  QCheck.Gen.(
    frequency
      [
        (12, int_range 1 40 >>= fun h -> array_repeat h node_gen >|= path);
        ( 2,
          int_range 1 20 >>= fun h ->
          array_repeat h
            (oneof
               [
                 map (node Delta.Neg_inf) load;
                 map (node Delta.Pos_inf) load;
                 map2 (fun d -> node (Delta.Fin (-.d))) (float_range 1. 500.) load;
               ])
          >|= fun nodes -> path (Array.append [| node Delta.Pos_inf (60., 40.) |] nodes) );
        ( 2,
          int_range 2 8 >>= fun h ->
          float_range 0.2 3. >>= fun d0 ->
          array_repeat h (pair (int_range 0 4) (float_range 88. 95.)) >|= fun ks ->
          let rec ulps x k = if k = 0 then x else ulps (Float.succ x) (k - 1) in
          {
            E2e.nodes = Array.map (fun (k, rho) -> node (Delta.Fin (-.ulps d0 k)) (100., rho)) ks;
            through = Ebb.v ~m:1. ~rho:2. ~alpha:0.8;
          } );
        ( 2,
          int_range 2 30 >>= fun h ->
          array_repeat h (map2 (fun d -> node (Delta.Fin d)) (float_range 0.5 30.) load) >|= path );
        (1, int_range 100 1000 >>= fun h -> array_repeat h node_gen >|= path);
      ])

(* γ fractions of gamma_max up to the top of the search bracket,
   0.999, which is drawn exactly now and then. *)
let gamma_frac_gen = QCheck.Gen.(frequency [ (1, return 0.999); (6, float_range 1e-6 0.999) ])

(* On one batch, a γ sequence at σ = sigma_for γ and then at arbitrary
   σ: [Batch.delay_at_gamma], [Batch.delay] and [optimal_thetas] all
   equal the reference bit for bit. *)
let prop_batch_long_paths =
  let gen =
    QCheck.Gen.(
      triple long_path_gen (list_size (int_range 1 6) gamma_frac_gen)
        (list_size (int_range 0 3) sigma_gen))
  in
  let print (p, us, sigmas) =
    Fmt.str "us=[%s] sigmas=[%s] %s"
      (String.concat "; " (List.map (Fmt.str "%h") us))
      (String.concat "; " (List.map (Fmt.str "%h") sigmas))
      (print_path p)
  in
  QCheck.Test.make ~name:"long paths: batch = reference (H to 1000, gamma to 0.999 gamma_max)"
    ~count:(Qc.count 200) (QCheck.make ~print gen)
    (fun (p, us, sigmas) ->
      let epsilon = 1e-9 in
      let gmax = E2e.gamma_max p in
      let bt = E2e.Batch.make p in
      List.iteri
        (fun i u ->
          let gamma = gmax *. u in
          let sref = E2e.Reference.sigma_for p ~gamma ~epsilon in
          check_bits (Fmt.str "delay_at_gamma %d" i)
            (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon)
            (E2e.Reference.delay_given p ~gamma ~sigma:sref);
          List.iteri
            (fun j sigma ->
              let at what = Fmt.str "%s (%d,%d)" what i j in
              E2e.Batch.set bt ~gamma ~sigma;
              check_bits (at "delay") (E2e.Batch.delay bt)
                (E2e.Reference.delay_given p ~gamma ~sigma);
              let (tref, xref) = E2e.Reference.optimal_thetas p ~gamma ~sigma in
              let (tb, xb) = E2e.Batch.optimal_thetas bt in
              check_bits (at "optimal X") xb xref;
              Array.iteri (fun h v -> check_bits (at (Fmt.str "theta %d" h)) tb.(h) v) tref)
            sigmas)
        us;
      true)

(* A figures-shaped path: [Scenario.path_at] on a paper scenario, every
   node alike, with EDF gaps of both signs among the schedulers. *)
let figure_path_gen =
  QCheck.Gen.(
    int_range 1 30 >>= fun h ->
    pair (float_range 0.1 0.95) (float_range 0.1 0.9) >>= fun (u, share) ->
    frequency
      [
        (1, return Classes.Bmux);
        (1, return Classes.Fifo);
        (1, return Classes.Sp_through_high);
        (3, map (fun g -> Classes.Edf_gap g) (float_range (-40.) 40.));
      ]
    >>= fun sched ->
    float_range (log 1e-4) (log 0.999) >>= fun log_frac ->
    let sc = Scenario.of_utilization ~h ~u_through:(u *. share) ~u_cross:(u -. (u *. share)) in
    match Scenario.s_stable_max sc with
    | None -> return None
    | Some m ->
      let p = Scenario.path_at sc ~s:(m *. exp log_frac) ~delta:(Classes.delta_through_cross sched) in
      return (Some (p, sched)))

(* The γ probes of a coarse search: a 12-point log grid over the
   bracket, then 20 golden-section steps around its best point, the
   call sequence a γ search makes. *)
let search_probes bt ~epsilon p =
  let gmax = E2e.gamma_max p in
  let lo, hi = E2e.gamma_bracket gmax in
  let ratio = (hi /. lo) ** (1. /. 11.) in
  let grid = Array.to_list (Deltanet.Search.log_spaced ~lo ~ratio ~points:12) in
  let f g = E2e.Batch.delay_at_gamma bt ~gamma:g ~epsilon in
  let best = List.fold_left (fun b g -> if f g < f b then g else b) lo grid in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec golden a b n acc =
    if n = 0 then List.rev (0.5 *. (a +. b) :: acc)
    else
      let x1 = b -. (phi *. (b -. a)) and x2 = a +. (phi *. (b -. a)) in
      if f x1 <= f x2 then golden a x2 (n - 1) (x2 :: x1 :: acc)
      else golden x1 b (n - 1) (x2 :: x1 :: acc)
  in
  grid @ golden (Float.max lo (best /. ratio)) (Float.min hi (best *. ratio)) 20 []

(* On figures-shaped paths, one batch walks a search's probe sequence
   in order and then shuffled, and every value equals the reference's
   at σ = sigma_for γ: what the batch computes does not depend on the
   calls before. *)
let prop_batch_search_sequences =
  let gen = QCheck.Gen.(pair figure_path_gen (int_range 0 1_000_000)) in
  let print (c, seed) =
    match c with
    | None -> "unstable scenario"
    | Some (p, sched) ->
      Fmt.str "seed=%d %a %s" seed Scheduler.Delta.pp (Classes.delta_through_cross sched) (print_path p)
  in
  QCheck.Test.make ~name:"search sequences: batch = reference (in order and shuffled)"
    ~count:(Qc.count 100 ~cap:500) (QCheck.make ~print gen)
    (fun (c, seed) ->
      match c with
      | None -> QCheck.assume_fail ()
      | Some (p, _) ->
        let epsilon = 1e-9 in
        let probes = Array.of_list (search_probes (E2e.Batch.make p) ~epsilon p) in
        let rng = Desim.Prng.create ~seed:(Int64.of_int seed) in
        let shuffled = Array.copy probes in
        for i = Array.length shuffled - 1 downto 1 do
          let j = Desim.Prng.int rng ~bound:(i + 1) in
          let tmp = shuffled.(i) in
          shuffled.(i) <- shuffled.(j);
          shuffled.(j) <- tmp
        done;
        let bt = E2e.Batch.make p in
        Array.iteri
          (fun i gamma ->
            let sigma = E2e.Reference.sigma_for p ~gamma ~epsilon in
            check_bits (Fmt.str "probe %d (%s) gamma=%h" (i mod Array.length probes)
                          (if i < Array.length probes then "in order" else "shuffled") gamma)
              (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon)
              (E2e.Reference.delay_given p ~gamma ~sigma))
          (Array.append probes shuffled);
        true)

let same_float a b = bit_eq a b || (Float.is_nan a && Float.is_nan b)

(* The fallbacks of the pruned fold, value for value against the
   reference: a NaN σ, σ = ±0, a path where every node is infeasible,
   and an infinite cross rate, whose thetas are NaN at some candidates
   and +inf at others — also behind a node that is +inf at every
   candidate. *)
let test_batch_exact_edges () =
  let gamma = 0.5 in
  let check name p sigma =
    let bt = E2e.Batch.make p in
    E2e.Batch.set bt ~gamma ~sigma;
    let got = E2e.Batch.delay bt and want = E2e.Reference.delay_given p ~gamma ~sigma in
    if not (same_float got want) then
      Alcotest.failf "%s: batch %h reference %h" name got want;
    got
  in
  let fifo = mk_path ~h:6 ~delta:(Delta.Fin 0.) in
  Alcotest.(check bool) "NaN sigma: NaN" true (Float.is_nan (check "NaN sigma" fifo Float.nan));
  List.iter
    (fun delta ->
      let p = mk_path ~h:6 ~delta in
      List.iter
        (fun sigma ->
          ignore (check (Fmt.str "sigma %h, delta %a" sigma Delta.pp delta) p sigma))
        [ 0.; -0. ])
    [ Delta.Fin 0.; Delta.Fin (-5.); Delta.Fin 5.; Delta.Pos_inf; Delta.Neg_inf ];
  (* BMUX with the cross rate above capacity: no node can serve *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let node delta cross_rho = { E2e.capacity = 100.; cross_rho; cross_m = 1.; delta } in
  let dead = { E2e.nodes = Array.make 4 (node Delta.Pos_inf 120.); through } in
  check_float "all nodes infeasible: +inf" Float.infinity (check "all infeasible" dead 300.);
  let inf_cross delta = node delta Float.infinity in
  List.iter
    (fun (name, nodes) ->
      let p = { E2e.nodes; through } in
      Alcotest.(check bool) (name ^ ": NaN") true (Float.is_nan (check name p 300.)))
    [
      ("infinite cross rate, FIFO", [| node (Delta.Fin 0.) 35.; inf_cross (Delta.Fin 0.) |]);
      ("infinite cross rate, EDF d < 0", [| node (Delta.Fin 0.) 35.; inf_cross (Delta.Fin (-5.)) |]);
      ( "infinite cross rate behind an infeasible node",
        [| node Delta.Pos_inf 120.; inf_cross (Delta.Fin (-5.)) |] );
    ]

(* The sweep's work bound.  Every fold runs all H nodes, so node steps
   / H counts the candidates folded: the bottoms of the slope sweep and
   the window its walks cannot rule out.  A path without a ∆ > 0 node
   is convex, one bottom per evaluation, and the bound is c H (bottoms
   + window) with c = 1 and a window of at most two on average: 3 H per
   evaluation, here over a search on a figures path (EDF gap -5, H =
   10).  [optimal_thetas]' full fold adds exactly candidates x H. *)
let work_bound_per_eval h = 3 * h

let test_node_steps_counter () =
  let sc = Scenario.of_utilization ~h:10 ~u_through:0.25 ~u_cross:0.25 in
  let s = Option.get (Scenario.s_stable_max sc) *. 0.3 in
  let p = Scenario.path_at sc ~s ~delta:(Classes.delta_through_cross (Classes.Edf_gap (-5.))) in
  let evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
  and steps = Telemetry.Counter.make "e2e.eq38.node_steps" in
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let bt = E2e.Batch.make p in
      let probes = search_probes bt ~epsilon:1e-9 p in
      let n0 = Telemetry.Counter.value steps in
      List.iter (fun gamma -> ignore (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon:1e-9)) probes;
      let n = Telemetry.Counter.value steps - n0 and calls = List.length probes in
      Alcotest.(check bool)
        (Fmt.str "%d node steps over %d evaluations <= 3 H each" n calls)
        true
        (0 < n && n <= calls * work_bound_per_eval 10);
      E2e.Batch.set bt ~gamma:(E2e.gamma_max p *. 0.5) ~sigma:100.;
      let e0 = Telemetry.Counter.value evals and n0 = Telemetry.Counter.value steps in
      ignore (E2e.Batch.optimal_thetas bt);
      let de = Telemetry.Counter.value evals - e0 and dn = Telemetry.Counter.value steps - n0 in
      Alcotest.(check int) "full fold: candidates x H" (de * 10) dn)

(* [set] allocates nothing — no closure per node, no boxed float per
   candidate push — so one γ evaluation allocates only its two boxed
   floats, σ and the delay. *)
let test_batch_eval_allocation () =
  let sc = Scenario.of_utilization ~h:30 ~u_through:0.25 ~u_cross:0.25 in
  let s = Option.get (Scenario.s_stable_max sc) *. 0.3 in
  List.iter
    (fun sched ->
      let p = Scenario.path_at sc ~s ~delta:(Classes.delta_through_cross sched) in
      let bt = E2e.Batch.make p in
      let gamma = E2e.gamma_max p *. 0.3 in
      (* the closure holds γ boxed once, as a caller's batch loop does *)
      let eval () = ignore (Sys.opaque_identity (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon:1e-9)) in
      eval ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        eval ()
      done;
      let words = (Gc.minor_words () -. w0) /. 1000. in
      Alcotest.(check bool)
        (Fmt.str "%a H=30: %.1f words per evaluation <= 4" Scheduler.Delta.pp (Classes.delta_through_cross sched) words)
        true (words <= 4.))
    [ Classes.Fifo; Classes.Bmux; Classes.Sp_through_high; Classes.Edf_gap 5.; Classes.Edf_gap (-5.) ]

let check_bitwise name a b =
  if not (bit_eq a b) then Alcotest.failf "%s: %.17g and %.17g differ bitwise" name a b

(* The γ evaluations one search costs on the Fig. 2 path H = 10,
   U = 50% (FIFO, s at 30% of its stable range): the floorless search
   evaluates the whole grid, then the golden probes the memo does not
   catch; [delay_bound] prunes the grid to 11 evaluations and 9
   interval floors, read off [e2e.gamma.evals] and [e2e.gamma.floors],
   and runs the same 53 golden probes. *)
let test_gamma_eval_counts () =
  let sc = Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.35 in
  let s = Option.get (Scenario.s_stable_max sc) *. 0.3 in
  let p = Scenario.path_at sc ~s ~delta:(Classes.delta_through_cross Classes.Fifo) in
  let epsilon = 1e-9 in
  let evals = Telemetry.Counter.make "e2e.gamma.evals" in
  let floors = Telemetry.Counter.make "e2e.gamma.floors" in
  let count c f =
    let e0 = Telemetry.Counter.value c in
    let v = f () in
    (v, Telemetry.Counter.value c - e0)
  in
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let lo, hi = E2e.gamma_bracket (E2e.gamma_max p) in
      let batch = E2e.Batch.make p in
      let floorless =
        Deltanet.Search.minimize ~refine:(Deltanet.Search.Golden 40) ~points:40 ~lo ~hi
          (fun gamma -> E2e.Batch.delay_at_gamma batch ~gamma ~epsilon)
      in
      Alcotest.(check int) "floorless search: 40 grid + golden" 93 floorless.Deltanet.Search.evals;
      let floorless = floorless.Deltanet.Search.value in
      let f0 = Telemetry.Counter.value floors in
      let (pruned, n) = count evals (fun () -> E2e.delay_bound ~epsilon p) in
      check_bitwise "delay_bound = the floorless search" floorless pruned;
      Alcotest.(check int) "delay_bound: 11 grid + the same golden" 64 n;
      Alcotest.(check int) "delay_bound: interval floors" 9
        (Telemetry.Counter.value floors - f0))

(* ---------------- retarget and the fused additive loop ---------------- *)

(* Paths of one hop count [h]: random heterogeneous nodes (every ∆ kind,
   so Neg_inf <-> finite changes the stochastic-node count between
   steps) under a random through envelope, or a figures-shaped path
   ([Scenario.path_at]) at a random s and scheduler. *)
let same_h_path_gen h =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun nodes (m, rho, alpha) -> Some { E2e.nodes; through = { Ebb.m; rho; alpha } })
            (array_repeat h node_gen)
            (triple (float_range 0.2 3.) (float_range 1. 15.) (float_range 0.05 2.)) );
        ( 1,
          pair (float_range 0.1 0.95) (float_range 0.1 0.9) >>= fun (u, share) ->
          pair (float_range (log 1e-4) (log 0.999))
            (oneofl
               [ Classes.Bmux; Classes.Fifo; Classes.Sp_through_high; Classes.Edf_gap 5.;
                 Classes.Edf_gap (-5.) ])
          >|= fun (log_frac, sched) ->
          let sc = Scenario.of_utilization ~h ~u_through:(u *. share) ~u_cross:(u -. (u *. share)) in
          Option.map
            (fun m ->
              Scenario.path_at sc ~s:(m *. exp log_frac) ~delta:(Classes.delta_through_cross sched))
            (Scenario.s_stable_max sc) );
      ])

(* One batch retargeted through a sequence of same-H paths gives, at
   every step, what a batch freshly made for that path gives, bit for
   bit: the γ search and its floor, [delay_at_gamma] at a few γ, and
   [optimal_thetas].  The retargeted batch has served the paths before;
   nothing of them may show in its results. *)
let prop_retarget_is_make =
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      pair
        (list_size (int_range 2 6) (same_h_path_gen h) >|= List.filter_map Fun.id)
        (list_size (int_range 1 3) gamma_frac_gen))
  in
  let print (ps, us) =
    Fmt.str "us=[%s] paths=[%s]"
      (String.concat "; " (List.map (Fmt.str "%h") us))
      (String.concat " | " (List.map print_path ps))
  in
  QCheck.Test.make ~name:"retarget = fresh make, bit for bit" ~count:(Qc.count 200)
    (QCheck.make ~print gen)
    (fun (ps, us) ->
      let epsilon = 1e-9 in
      match ps with
      | [] -> QCheck.assume_fail ()
      | p0 :: _ ->
        let bt = E2e.Batch.make p0 in
        List.iteri
          (fun step p ->
            E2e.Batch.retarget bt p;
            let fresh = E2e.Batch.make p in
            let at what = Fmt.str "step %d: %s" step what in
            check_bits (at "delay_bound")
              (E2e.Batch.delay_bound bt ~epsilon)
              (E2e.Batch.delay_bound fresh ~epsilon);
            check_bits (at "delay_bound_floor")
              (E2e.Batch.delay_bound_floor bt ~epsilon)
              (E2e.Batch.delay_bound_floor fresh ~epsilon);
            let gmax = E2e.gamma_max p in
            List.iteri
              (fun i u ->
                let gamma = gmax *. u in
                check_bits (at (Fmt.str "delay_at_gamma %d" i))
                  (E2e.Batch.delay_at_gamma bt ~gamma ~epsilon)
                  (E2e.Batch.delay_at_gamma fresh ~gamma ~epsilon);
                let sigma = E2e.Batch.sigma_for fresh ~gamma ~epsilon in
                E2e.Batch.set bt ~gamma ~sigma;
                E2e.Batch.set fresh ~gamma ~sigma;
                let (tb, xb) = E2e.Batch.optimal_thetas bt
                and (tf, xf) = E2e.Batch.optimal_thetas fresh in
                check_bits (at (Fmt.str "optimal X %d" i)) xb xf;
                Array.iteri (fun k v -> check_bits (at (Fmt.str "theta %d/%d" i k)) tb.(k) v) tf)
              us)
          ps;
        true)

(* ---------------- long-path pins ---------------- *)

(* The long-path shapes of serve's degraded admits: [Admission.decide]
   on a 2-point s-grid, with serve's EDF anchoring (deadline 100 ms over
   H hops, cross deadlines 10x the through one: ∆ = -0.9 ms at H =
   1000).  The bits are pinned: the Eq.-38 evaluator may change how it
   finds each minimum, never which float it returns. *)
let long_shapes =
  [
    ("EDF H=1000 U0=0 Uc=0.9998", 1000, 0., 0.9998, Scheduler.Kind.Edf { cross_over_through = 10. },
     0x1.3d41971e6126ap+36);
    ("EDF H=1000 U0=0.15 Uc=0.35", 1000, 0.15, 0.35, Scheduler.Kind.Edf { cross_over_through = 10. },
     0x1.17572502d0f77p+15);
    ("FIFO H=10^4 U0=0.5 Uc=0.4998", 10_000, 0.5, 0.4998, Scheduler.Kind.Fifo, 0x1.bbc81d6dcd3f4p+30);
  ]

let long_shape_request ~h ~u0 ~uc sched =
  let base = Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc in
  ( { Deltanet.Admission.base; guarantee = { Deltanet.Admission.deadline = 100.; epsilon = 1e-9 } },
    Scheduler.Kind.two_class ~d_through:(100. /. float_of_int h) sched )

(* ... and they run within the work bound of [test_node_steps_counter]:
   every gap is <= 0, so each evaluation (a γ probe or an interval
   floor) folds one bottom and a short window. *)
let test_long_shape_bits () =
  let steps = Telemetry.Counter.make "e2e.eq38.node_steps"
  and evals = Telemetry.Counter.make "e2e.gamma.evals"
  and floors = Telemetry.Counter.make "e2e.gamma.floors" in
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      List.iter
        (fun (name, h, u0, uc, sched, want) ->
          let r, scheduler = long_shape_request ~h ~u0 ~uc sched in
          let count () = Telemetry.Counter.(value steps, value evals + value floors) in
          let n0, c0 = count () in
          let d = Deltanet.Admission.decide ~s_points:2 r ~scheduler in
          check_bitwise name want d.Deltanet.Admission.bound;
          let n1, c1 = count () in
          Alcotest.(check bool)
            (Fmt.str "%s: %d node steps over %d evaluations <= 3 H each" name (n1 - n0) (c1 - c0))
            true
            (n1 - n0 <= (c1 - c0) * work_bound_per_eval h))
        long_shapes)

(* On the two H = 1000 shapes, at three (s, γ) points each, the batch
   equals the list-based reference bit for bit. *)
let test_long_shape_points () =
  List.iter
    (fun (name, h, u0, uc, sched, _) ->
      if h = 1000 then begin
        let r, scheduler = long_shape_request ~h ~u0 ~uc sched in
        let sc = r.Deltanet.Admission.base in
        let m = Option.get (Scenario.s_stable_max sc) in
        List.iter
          (fun (s_frac, g_frac) ->
            let p = Scenario.path_at sc ~s:(m *. s_frac) ~delta:(Classes.delta_through_cross scheduler) in
            let gamma = E2e.gamma_max p *. g_frac in
            let bt = E2e.Batch.make p in
            let sigma = E2e.Batch.sigma_for bt ~gamma ~epsilon:1e-9 in
            E2e.Batch.set bt ~gamma ~sigma;
            check_bitwise
              (Fmt.str "%s s=%g gamma=%g" name s_frac g_frac)
              (E2e.Reference.delay_given p ~gamma ~sigma)
              (E2e.Batch.delay bt))
          [ (0.1, 0.5); (0.5, 1e-3); (0.9, 0.9) ]
      end)
    long_shapes

let test_retarget_hop_count () =
  let bt = E2e.Batch.make (mk_path ~h:4 ~delta:(Delta.Fin 0.)) in
  Alcotest.check_raises "other hop count"
    (Invalid_argument "E2e.Batch.retarget: hop count differs") (fun () ->
      E2e.Batch.retarget bt (mk_path ~h:5 ~delta:(Delta.Fin 0.)))

(* Additive inputs around and past the edges [analyze] checks: NaN,
   zero and negative prefactors, rates, decays, γ and ε, H = 0, and
   cross rates that leave no service (+inf). *)
let additive_args_gen =
  QCheck.Gen.(
    let edgy lo hi specials =
      frequency [ (6, float_range lo hi); (1, oneofl specials) ]
    in
    let ebb =
      map3
        (fun m rho alpha -> { Ebb.m; rho; alpha })
        (edgy 0.1 3. [ Float.nan; 0.; -1.; Float.infinity ])
        (edgy 0. 60. [ Float.nan; -20.; 95.; Float.infinity ])
        (edgy 0.01 2. [ Float.nan; 0.; -0.5; 1e-300; Float.infinity ])
    in
    map3
      (fun (capacity, h) (cross, through) (gamma, epsilon) ->
        (capacity, h, cross, through, gamma, epsilon))
      (pair (edgy 50. 150. [ Float.nan; 0.; Float.infinity ]) (frequency [ (12, int_range 1 12); (1, return 0) ]))
      (pair ebb ebb)
      (pair
         (edgy 1e-4 5. [ Float.nan; 0.; -1.; 1e-300 ])
         (edgy 1e-12 0.5 [ Float.nan; 0.; -1e-9; 2. ])))

let print_additive_args (capacity, h, (c : Ebb.t), (t : Ebb.t), gamma, epsilon) =
  Fmt.str "C=%h H=%d cross=(%h,%h,%h) through=(%h,%h,%h) gamma=%h eps=%h" capacity h c.Ebb.m
    c.Ebb.rho c.Ebb.alpha t.Ebb.m t.Ebb.rho t.Ebb.alpha gamma epsilon

(* The fused γ objective is [analyze]'s sum, bit for bit, and raises
   [analyze]'s [Invalid_argument] message wherever [analyze] raises. *)
let prop_delay_sum_is_analyze =
  QCheck.Test.make ~name:"fused Additive = snd (Additive.analyze ...), bit for bit"
    ~count:(Qc.count 1000)
    (QCheck.make ~print:print_additive_args additive_args_gen)
    (fun (capacity, h, cross, through, gamma, epsilon) ->
      let run f = match f () with v -> Ok (Int64.bits_of_float v) | exception Invalid_argument m -> Error m in
      let fused = run (fun () -> Additive.delay_sum ~capacity ~cross ~through ~h ~gamma ~epsilon)
      and oracle =
        run (fun () -> snd (Additive.analyze ~capacity ~cross ~through ~h ~gamma ~epsilon))
      in
      match (fused, oracle) with
      | Ok a, Ok b when Int64.equal a b -> true
      | Error a, Error b when String.equal a b -> true
      | _ ->
        let show = function
          | Ok b -> Fmt.str "%h" (Int64.float_of_bits b)
          | Error m -> "Invalid_argument " ^ m
        in
        QCheck.Test.fail_reportf "fused %s, analyze %s" (show fused) (show oracle))

(* [retarget] allocates nothing, and one fused additive γ evaluation
   only its boxed result. *)
let test_retarget_and_delay_sum_allocation () =
  let sc = Scenario.of_utilization ~h:30 ~u_through:0.25 ~u_cross:0.25 in
  let m = Option.get (Scenario.s_stable_max sc) in
  let p1 = Scenario.path_at sc ~s:(m *. 0.3) ~delta:(Classes.delta_through_cross Classes.Fifo)
  and p2 =
    Scenario.path_at sc ~s:(m *. 0.6) ~delta:(Classes.delta_through_cross Classes.Sp_through_high)
  in
  let bt = E2e.Batch.make p1 in
  let per n f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let words = per 1000 (fun () -> E2e.Batch.retarget bt p2; E2e.Batch.retarget bt p1) in
  Alcotest.(check (float 0.)) "words per retarget" 0. words;
  let through = Ebb.v ~m:1. ~rho:25. ~alpha:0.8 and cross = Ebb.v ~m:1. ~rho:25. ~alpha:0.8 in
  let gamma = 0.5 and epsilon = 1e-9 in
  let words =
    per 1000 (fun () ->
        ignore
          (Sys.opaque_identity
             (Additive.delay_sum ~capacity:100. ~cross ~through ~h:30 ~gamma ~epsilon)))
  in
  (* a boxed float: a header word and the double *)
  Alcotest.(check bool) (Fmt.str "%.1f words per fused evaluation <= 2" words) true (words <= 2.)

(* ---------------- overloaded ∆ < 0 nodes ---------------- *)

(* Eq. 38 in node order at X = x, as the solvers sum it. *)
let objective_at p ~gamma ~sigma x =
  let acc = ref x in
  for h = 0 to E2e.hop_count p - 1 do
    acc := !acc +. E2e.theta_of_x p ~gamma ~sigma ~x h
  done;
  !acc

let through_probe = Ebb.v ~m:1. ~rho:15. ~alpha:0.8

let node ~capacity ~cross_rho delta = { E2e.capacity; cross_rho; cross_m = 1.; delta }

(* An EDF node with cross rate above its capacity and ∆ = -5: past
   X = -∆ its theta climbs from 0 only once X passes the root
   (σ + (ρc + γ) ∆) / margin, margin < 0, and there the objective's
   slope turns from -0.09 to +0.115, so the minimum, 33.2678, sits at
   that root; without it the candidates' least objective is 34.1547. *)
let test_overloaded_kink () =
  let p =
    {
      E2e.nodes =
        [|
          node ~capacity:100. ~cross_rho:120. (Delta.Fin (-5.));
          node ~capacity:10. ~cross_rho:0. Delta.Neg_inf;
          node ~capacity:100. ~cross_rho:89.5 (Delta.Fin 0.);
        |];
      through = through_probe;
    }
  in
  let gamma = 0.5 and sigma = 300. in
  let root = (sigma +. ((120. +. gamma) *. -5.)) /. (100. -. 120. -. gamma) in
  let want = objective_at p ~gamma ~sigma root in
  List.iter
    (fun (name, got) ->
      if not (Float.equal got want) then
        Alcotest.failf "%s: %.17g, the objective at the root %.17g is %.17g" name got root
          want)
    [
      ("Reference.delay_given", E2e.Reference.delay_given p ~gamma ~sigma);
      ("delay_given", E2e.delay_given p ~gamma ~sigma);
    ];
  check_float ~tol:1e-6 "the minimum" 33.267787 want

(* Short paths led by an overloaded ∆ < 0 node, then strict-priority,
   FIFO and ∆ < 0 nodes (overloaded or not).  The exact minimum lies
   below the objective at every X, so [delay_given] may exceed the
   objective on a grid of X only by DESIGN.md §7's summation-rounding
   allowance: at the minimizing candidate F (1 - ρ) <= Φ + A, and at X
   Φ <= F(X) (1 + ρ) + A, with ρ = 32 (H + 2) u and A = 4 u Σ_{∆ >= 0}
   σ / margin + 8 (H + 1) min_float. *)
let overloaded_arb =
  let gen =
    QCheck.Gen.(
      let overloaded =
        triple (float_range 20. 150.) (float_range 1.02 1.6) (float_range 0.5 10.)
        >|= fun (c, load, d) -> node ~capacity:c ~cross_rho:(c *. load) (Delta.Fin (-.d))
      in
      let other =
        frequency
          [
            (2, float_range 5. 150. >|= fun c -> node ~capacity:c ~cross_rho:0. Delta.Neg_inf);
            ( 2,
              pair (float_range 20. 150.) (float_range 0.3 0.95) >|= fun (c, load) ->
              node ~capacity:c ~cross_rho:(c *. load) (Delta.Fin 0.) );
            ( 1,
              triple (float_range 20. 150.) (float_range 0.3 1.6) (float_range 0.5 10.)
              >|= fun (c, load, d) -> node ~capacity:c ~cross_rho:(c *. load) (Delta.Fin (-.d))
            );
          ]
      in
      int_range 1 3 >>= fun rest ->
      pair overloaded (array_repeat rest other) >>= fun (first, others) ->
      pair (float_range 0.01 1.) (float_range 5. 600.) >|= fun (gamma, sigma) ->
      ({ E2e.nodes = Array.append [| first |] others; through = through_probe }, gamma, sigma))
  in
  let print (p, gamma, sigma) =
    Fmt.str "gamma=%h sigma=%h nodes=[%s]" gamma sigma
      (String.concat "; " (Array.to_list (Array.map print_node p.E2e.nodes)))
  in
  QCheck.make ~print gen

let prop_overloaded_minimum =
  QCheck.Test.make ~name:"overloaded paths: delay_given <= the objective on a grid"
    ~count:(Qc.count 200) overloaded_arb (fun (p, gamma, sigma) ->
      let h = E2e.hop_count p in
      let u = epsilon_float in
      let rho = 32. *. float_of_int (h + 2) *. u in
      let a = ref (8. *. float_of_int (h + 1) *. Float.min_float) in
      let xmax = ref 0. in
      Array.iteri
        (fun i (nd : E2e.node) ->
          let c_h = nd.E2e.capacity -. (float_of_int i *. gamma) in
          let margin = c_h -. nd.E2e.cross_rho -. gamma in
          xmax := Float.max !xmax (sigma /. c_h);
          match nd.E2e.delta with
          | Delta.Fin d when d >= 0. -> if margin > 0. then a := !a +. (4. *. u *. sigma /. margin)
          | Delta.Fin d -> xmax := Float.max !xmax (-.d)
          | Delta.Neg_inf | Delta.Pos_inf -> ())
        p.E2e.nodes;
      let got = E2e.delay_given p ~gamma ~sigma in
      let n = 2000 in
      for k = 0 to n do
        let x = !xmax *. float_of_int k /. float_of_int n in
        let f = objective_at p ~gamma ~sigma x in
        if got *. (1. -. rho) > (f *. (1. +. rho)) +. (2. *. !a) then
          QCheck.Test.fail_reportf "delay_given %.17g > %.17g, the objective at X = %.17g" got
            f x
      done;
      true)

let suite =
  [
    Alcotest.test_case "Eq. 34 closed form" `Quick test_total_bound_matches_eq34;
    Alcotest.test_case "sigma roundtrip" `Quick test_sigma_roundtrip;
    Alcotest.test_case "BMUX = Eq. 43" `Quick test_bmux_matches_eq43;
    Alcotest.test_case "FIFO = Eq. 44" `Quick test_fifo_matches_eq44;
    Alcotest.test_case "K-procedure bounds exact" `Quick test_k_procedure_upper_bounds_exact;
    Alcotest.test_case "H=1 single-node consistency" `Quick test_h1_theta_equals_d;
    Alcotest.test_case "scheduler ordering" `Quick test_scheduler_ordering_e2e;
    Alcotest.test_case "monotone in H" `Quick test_delay_monotone_in_h;
    Alcotest.test_case "monotone in epsilon" `Quick test_delay_monotone_in_epsilon;
    Alcotest.test_case "overload infinite" `Quick test_overload_infinite;
    Alcotest.test_case "FIFO -> BMUX at low cross load" `Quick test_fifo_approaches_bmux_low_cross;
    Alcotest.test_case "heterogeneous path" `Quick test_heterogeneous_path;
    Alcotest.test_case "curve agrees with optimizer" `Quick test_curve_agrees_with_optimizer;
    Alcotest.test_case "network curve shape" `Quick test_curve_shape;
    Alcotest.test_case "backlog properties" `Quick test_backlog_properties;
    QCheck_alcotest.to_alcotest prop_backlog_is_sigma;
    QCheck_alcotest.to_alcotest prop_backlog_bound_least_sigma;
    Alcotest.test_case "backlog skips curves and gamma search" `Quick test_backlog_skips_curves;
    Alcotest.test_case "scenario flow counts" `Quick test_scenario_flow_counts;
    Alcotest.test_case "scenario ordering" `Slow test_scenario_fifo_between_sp_and_bmux;
    Alcotest.test_case "scenario monotone in U" `Slow test_scenario_increasing_in_utilization;
    Alcotest.test_case "scenario EDF fixed point" `Slow test_scenario_edf_fixed_point;
    Alcotest.test_case "scenario EDF tight deadlines" `Slow test_scenario_edf_tight_deadlines_above_fifo;
    Alcotest.test_case "scenario backlog" `Slow test_scenario_backlog;
    Alcotest.test_case "additive dominates" `Slow test_additive_dominates_network_bound;
    Alcotest.test_case "additive superlinear" `Slow test_additive_superlinear_growth;
    Alcotest.test_case "additive per-node increasing" `Quick test_additive_per_node_increasing;
    QCheck_alcotest.to_alcotest prop_batch_matches_reference;
    QCheck_alcotest.to_alcotest prop_batch_rows_match_reference;
    QCheck_alcotest.to_alcotest prop_k_procedure_vs_enumeration;
    QCheck_alcotest.to_alcotest prop_batch_long_paths;
    QCheck_alcotest.to_alcotest prop_batch_search_sequences;
    Alcotest.test_case "batch fallbacks = reference (NaN, +-0, infeasible, infinite cross)"
      `Quick test_batch_exact_edges;
    Alcotest.test_case "node_steps counter shows the pruning" `Quick test_node_steps_counter;
    Alcotest.test_case "gamma evaluation allocates only its results" `Quick
      test_batch_eval_allocation;
    Alcotest.test_case "gamma evaluation counts" `Quick test_gamma_eval_counts;
    QCheck_alcotest.to_alcotest prop_retarget_is_make;
    Alcotest.test_case "retarget refuses another hop count" `Quick test_retarget_hop_count;
    Alcotest.test_case "long-path admits: bits and work bound" `Quick test_long_shape_bits;
    Alcotest.test_case "long-path points: batch = reference" `Quick test_long_shape_points;
    QCheck_alcotest.to_alcotest prop_delay_sum_is_analyze;
    Alcotest.test_case "retarget and the fused additive loop allocate nothing" `Quick
      test_retarget_and_delay_sum_allocation;
    QCheck_alcotest.to_alcotest prop_k_procedure_never_nan;
    Alcotest.test_case "overloaded kink: theta leaves 0 at the root" `Quick
      test_overloaded_kink;
    QCheck_alcotest.to_alcotest prop_overloaded_minimum;
    Alcotest.test_case "has_stable_s = a stable s exists" `Quick test_has_stable_s;
  ]
