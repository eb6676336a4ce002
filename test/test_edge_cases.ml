(* Edge-case and failure-injection tests across the libraries. *)

module Curve = Minplus.Curve
module Conv = Minplus.Convolution
module Exp = Envelope.Exponential
module Estimate = Envelope.Estimate
module E2e = Deltanet.E2e
module Delta = Scheduler.Delta
module Tandem = Netsim.Tandem

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- curves ---------------- *)

let test_zero_curve_algebra () =
  let z = Curve.zero in
  check_float "min with zero" 0. (Curve.eval (Curve.min z (Curve.constant_rate 5.)) 3.);
  check_float "conv with zero" 0. (Curve.eval (Conv.convolve z (Curve.constant_rate 5.)) 3.);
  check_float "add with zero" 15. (Curve.eval (Curve.add z (Curve.constant_rate 5.)) 3.)

let test_infinite_tail_operations () =
  let d = Curve.delta 2. in
  let f = Curve.constant_rate 3. in
  let m = Curve.min d f in
  (* min(delta_2, 3t): 0 until... delta is 0 on [0,2), then inf; min = 0
     until 0 vs 3t -> min is 0 on [0,2) only where delta smaller *)
  check_float "min with delta before" 0. (Curve.eval m 1.);
  check_float "min with delta after" 9. (Curve.eval m 3.);
  let s = Curve.add d f in
  check_float "add with delta" Float.infinity (Curve.eval s 3.)

let test_degenerate_single_point_pieces () =
  (* Nearly-zero-length pieces survive normalization without corruption. *)
  let f = Curve.v [ (0., 0., 1.); (1e-12, 0.5, 2.) ] in
  check_float ~tol:1e-6 "tiny piece" (0.5 +. 2.) (Curve.eval f 1.)

let test_inverse_at_jump () =
  let f = Curve.step ~at:3. ~height:5. in
  check_float "inverse below jump" 3. (Curve.inverse f 2.);
  check_float "inverse at height" 3. (Curve.inverse f 5.);
  check_float "inverse above" Float.infinity (Curve.inverse f 5.1)

(* ---------------- exponential / estimation ---------------- *)

let test_combine_singleton_identity () =
  let e = Exp.v ~m:2. ~a:0.7 in
  let c = Exp.combine [ e ] in
  check_float "m" 2. c.Exp.m;
  check_float "a" 0.7 c.Exp.a

let test_invert_epsilon_above_m () =
  (* target epsilon above the prefactor: sigma = 0 suffices *)
  let e = Exp.v ~m:0.5 ~a:1. in
  check_float "sigma 0" 0. (Exp.invert e ~epsilon:0.9)

let test_estimate_validation () =
  Alcotest.check_raises "empty trace"
    (Invalid_argument "Estimate.mean_rate_of_trace: empty trace") (fun () ->
      ignore (Estimate.mean_rate_of_trace [||]));
  Alcotest.check_raises "window too long"
    (Invalid_argument "Estimate.windowed_sums: window exceeds trace") (fun () ->
      ignore (Estimate.windowed_sums [| 1.; 2. |] ~tau:3))

let test_max_reliable_s_constant_trace () =
  (* constant trace: max = mean, estimator reliable at any s *)
  check_float "infinite for constant" Float.infinity
    (Estimate.max_reliable_s (Array.make 100 2.) ~tau:5)

(* ---------------- e2e boundary conditions ---------------- *)

let mk_path ~h ~cross_rho =
  E2e.homogeneous ~h ~capacity:100.
    ~cross:(Envelope.Ebb.v ~m:1. ~rho:cross_rho ~alpha:1.)
    ~delta:(Delta.Fin 0.)
    ~through:(Envelope.Ebb.v ~m:1. ~rho:10. ~alpha:1.)

let test_sigma_zero_delay_zero () =
  let p = mk_path ~h:3 ~cross_rho:30. in
  check_float "zero sigma, zero delay" 0. (E2e.delay_given p ~gamma:1. ~sigma:0.)

let test_gamma_at_boundary () =
  let p = mk_path ~h:3 ~cross_rho:30. in
  let gmax = E2e.gamma_max p in
  (* at gamma slightly below the cap the bound is finite but large *)
  let d = E2e.Batch.delay_at_gamma (E2e.Batch.make p) ~gamma:(gmax *. 0.999) ~epsilon:1e-9 in
  Alcotest.(check bool) (Fmt.str "finite at boundary: %g" d) true (Float.is_finite d)

let test_exactly_critical_load_infinite () =
  let p = mk_path ~h:3 ~cross_rho:90. in
  (* through 10 + cross 90 = 100 = capacity: gamma_max = 0 *)
  check_float "critical load" Float.infinity (E2e.delay_bound ~epsilon:1e-9 p);
  Alcotest.(check bool) "gamma_max zero" true (E2e.gamma_max p <= 0.)

let test_h1_consistency_all_deltas () =
  (* At H = 1 with sigma fixed, BMUX >= EDF(+) >= FIFO = EDF(-) = SP:
     FIFO and looser-deadline EDF coincide at a single node because the
     optimal X = 0 removes the cross term for any delta <= 0. *)
  let d delta =
    let p =
      E2e.homogeneous ~h:1 ~capacity:100.
        ~cross:(Envelope.Ebb.v ~m:1. ~rho:30. ~alpha:1.)
        ~delta
        ~through:(Envelope.Ebb.v ~m:1. ~rho:10. ~alpha:1.)
    in
    E2e.delay_given p ~gamma:1. ~sigma:100.
  in
  check_float "fifo = sigma/C" 1. (d (Delta.Fin 0.));
  check_float "edf- = fifo" (d (Delta.Fin 0.)) (d (Delta.Fin (-5.)));
  check_float "sp = fifo at one node" (d (Delta.Fin 0.)) (d Delta.Neg_inf);
  Alcotest.(check bool) "bmux larger" true (d Delta.Pos_inf > d (Delta.Fin 0.))

(* ---------------- simulator failure injection ---------------- *)

let test_tandem_censoring_reported () =
  (* A drain window too short to flush the path must report censored data
     rather than silently dropping it. *)
  let r =
    Tandem.run
      {
        Tandem.default_config with
        Tandem.h = 4;
        n_cross = 600 (* over 100% load: queues grow without bound *);
        slots = 2_000;
        drain_limit = 0;
        seed = 3L;
      }
  in
  Alcotest.(check bool) "censored data reported" true (r.Tandem.censored_kb > 0.)

let test_tandem_overload_utilization_saturates () =
  let r =
    Tandem.run
      {
        Tandem.default_config with
        Tandem.h = 2;
        n_cross = 800;
        slots = 5_000;
        drain_limit = 500;
        seed = 4L;
      }
  in
  Alcotest.(check bool) "first node saturated" true (r.Tandem.utilization.(0) > 0.95)

let test_single_slot_horizon () =
  let r =
    Tandem.run
      { Tandem.default_config with Tandem.h = 1; slots = 1; drain_limit = 100; seed = 5L }
  in
  Alcotest.(check bool) "runs with one slot" true
    (Desim.Stats.Sample.count r.Tandem.delays <= 1)

let suite =
  [
    Alcotest.test_case "zero curve algebra" `Quick test_zero_curve_algebra;
    Alcotest.test_case "infinite tails" `Quick test_infinite_tail_operations;
    Alcotest.test_case "degenerate pieces" `Quick test_degenerate_single_point_pieces;
    Alcotest.test_case "inverse at jump" `Quick test_inverse_at_jump;
    Alcotest.test_case "combine singleton" `Quick test_combine_singleton_identity;
    Alcotest.test_case "invert above prefactor" `Quick test_invert_epsilon_above_m;
    Alcotest.test_case "estimate validation" `Quick test_estimate_validation;
    Alcotest.test_case "reliable s constant trace" `Quick test_max_reliable_s_constant_trace;
    Alcotest.test_case "sigma zero" `Quick test_sigma_zero_delay_zero;
    Alcotest.test_case "gamma boundary" `Quick test_gamma_at_boundary;
    Alcotest.test_case "critical load" `Quick test_exactly_critical_load_infinite;
    Alcotest.test_case "H=1 delta consistency" `Quick test_h1_consistency_all_deltas;
    Alcotest.test_case "censoring reported" `Quick test_tandem_censoring_reported;
    Alcotest.test_case "overload saturates" `Quick test_tandem_overload_utilization_saturates;
    Alcotest.test_case "single slot horizon" `Quick test_single_slot_horizon;
  ]
