(* Tests for the output (deconvolution) characterization, empirical
   envelope estimation from traces, and admission control. *)

module Ebb = Envelope.Ebb
module Exp = Envelope.Exponential
module Curve = Minplus.Curve
module Output = Deltanet.Output

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    Float.abs (expected -. got)
    <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- output characterization ---------------- *)

let test_output_rate_and_decay () =
  let input = Ebb.v ~m:1. ~rho:10. ~alpha:1. in
  let out =
    Output.ebb_through_node ~input ~service_rate:50.
      ~service_bound:(Exp.v ~m:1. ~a:1.) ~gamma:0.5
  in
  check_float "rate grows by gamma" 10.5 out.Ebb.rho;
  Alcotest.(check bool) "decay degrades" true (out.Ebb.alpha < 1.);
  Alcotest.(check bool) "prefactor grows" true (out.Ebb.m > 1.)

let test_output_unstable_rejected () =
  let input = Ebb.v ~m:1. ~rho:10. ~alpha:1. in
  Alcotest.check_raises "unstable"
    (Invalid_argument "Output.ebb_through_node: unstable node") (fun () ->
      ignore
        (Output.ebb_through_node ~input ~service_rate:10.2
           ~service_bound:(Exp.v ~m:1. ~a:1.) ~gamma:0.5))

let test_output_deterministic () =
  let arrival = Curve.affine ~rate:2. ~burst:5. in
  let service = Curve.rate_latency ~rate:10. ~latency:3. in
  let out = Output.deterministic ~arrival ~service in
  (* gamma_{r,b} ⊘ beta_{R,T} = gamma_{r, b + r T} *)
  check_float "burst grows by r T" 11. (Curve.eval out 0.);
  check_float "rate preserved" 2. (Curve.ultimate_rate out)

let test_output_chain_matches_additive () =
  (* Chaining Output.ebb_through_node reproduces the Additive module's
     per-node envelope sequence. *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:25. ~alpha:0.8 in
  let gamma = 1. in
  let (per, _total) =
    Deltanet.Additive.analyze ~capacity:100. ~cross ~through ~h:4 ~gamma ~epsilon:1e-9
  in
  let service_rate = 100. -. 25. -. gamma in
  let service_bound = Exp.geometric_sum (Ebb.bounding cross) ~gamma in
  let rec check inp = function
    | [] -> ()
    | (node : Deltanet.Additive.per_node) :: rest ->
      check_float "chained rho" node.Deltanet.Additive.input.Ebb.rho inp.Ebb.rho;
      check_float "chained alpha" node.Deltanet.Additive.input.Ebb.alpha inp.Ebb.alpha;
      let out = Output.ebb_through_node ~input:inp ~service_rate ~service_bound ~gamma in
      check out rest
  in
  check through per

(* ---------------- empirical estimation ---------------- *)

module Estimate = Envelope.Estimate

let test_windowed_sums () =
  let trace = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 1e-12))) "tau=2" [| 3.; 5.; 7. |]
    (Estimate.windowed_sums trace ~tau:2);
  Alcotest.(check (array (float 1e-12))) "tau=4" [| 10. |]
    (Estimate.windowed_sums trace ~tau:4)

let test_estimate_constant_trace () =
  let trace = Array.make 500 2.5 in
  let eb = Estimate.effective_bandwidth_of_trace trace ~s:1. in
  check_float ~tol:1e-9 "constant trace" 2.5 eb;
  check_float ~tol:1e-9 "mean rate" 2.5 (Estimate.mean_rate_of_trace trace)

let test_estimate_mmpp_brackets () =
  (* The empirical effective bandwidth of a simulated on-off aggregate lies
     between the mean rate and the analytic effective-bandwidth bound. *)
  let src = Envelope.Mmpp.paper_source in
  let n = 50 and slots = 200_000 and s = 0.5 in
  let rng = Desim.Prng.create ~seed:2024L in
  let agg = Netsim.Source.create src ~n ~rng in
  let trace = Array.init slots (fun _ -> Netsim.Source.step agg) in
  let eb_hat = Estimate.effective_bandwidth_of_trace trace ~s in
  let mean = float_of_int n *. Envelope.Mmpp.mean_rate src in
  let eb_true = float_of_int n *. Envelope.Mmpp.effective_bandwidth src ~s in
  Alcotest.(check bool)
    (Fmt.str "mean %.1f <= eb_hat %.1f <= analytic %.1f" mean eb_hat eb_true)
    true
    (eb_hat >= mean *. 0.98 && eb_hat <= eb_true *. 1.02)

let test_estimated_ebb_usable_end_to_end () =
  (* Characterize a trace empirically and push it through the full e2e
     analysis — the measurement-based workflow. *)
  let src = Envelope.Mmpp.paper_source in
  let rng = Desim.Prng.create ~seed:7L in
  let mk n = Netsim.Source.create src ~n ~rng:(Desim.Prng.split rng) in
  let trace_of agg = Array.init 50_000 (fun _ -> Netsim.Source.step agg) in
  (* small decay: within the reliably-estimated region of a 5e4 trace *)
  let s = 0.05 in
  let through = Estimate.ebb_of_trace (trace_of (mk 100)) ~s in
  let cross = Estimate.ebb_of_trace (trace_of (mk 233)) ~s in
  let p =
    Deltanet.E2e.homogeneous ~h:5 ~capacity:100. ~cross
      ~delta:(Scheduler.Delta.Fin 0.) ~through
  in
  let d = Deltanet.E2e.delay_bound ~epsilon:1e-9 p in
  Alcotest.(check bool) (Fmt.str "finite measured-trace bound %g" d) true
    (Float.is_finite d && d > 0.)

(* ---------------- admission ---------------- *)

module Admission = Deltanet.Admission
module Scenario = Deltanet.Scenario

let request deadline =
  {
    Admission.base = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.;
    guarantee = { Admission.deadline; epsilon = 1e-9 };
  }

let test_admission_monotone_in_deadline () =
  let u d =
    Admission.max_cross_utilization (request d) ~scheduler:Scheduler.Kind.Fifo
  in
  let u20 = u 20. and u80 = u 80. in
  Alcotest.(check bool) (Fmt.str "%g <= %g" u20 u80) true (u20 <= u80 +. 1e-6)

let test_admission_scheduler_ordering () =
  let r = request 40. in
  let u scheduler = Admission.max_cross_utilization r ~scheduler in
  let bmux = u Scheduler.Kind.Bmux and fifo = u Scheduler.Kind.Fifo in
  let sp = u Scheduler.Kind.Sp and edf = u (Scheduler.Kind.Edf { cross_over_through = 10. }) in
  Alcotest.(check bool)
    (Fmt.str "bmux %g <= fifo %g <= edf %g <= sp %g" bmux fifo edf sp)
    true
    (bmux <= fifo +. 1e-4 && fifo <= edf +. 1e-4 && edf <= sp +. 1e-4)

let test_admission_consistency () =
  (* The returned utilization is itself admissible, a bit more is not. *)
  let r = request 40. in
  let u = Admission.max_cross_utilization r ~scheduler:Scheduler.Kind.Fifo in
  Alcotest.(check bool) "admissible at u" true
    (Admission.admissible r ~scheduler:Scheduler.Kind.Fifo ~u_cross:(u *. 0.999));
  Alcotest.(check bool) "not admissible above" false
    (Admission.admissible r ~scheduler:Scheduler.Kind.Fifo ~u_cross:(u +. 0.02))

(* H = 10, U0 = 15%, ratio 10: above ~14% cross load the EDF fixed
   point stops Diverged, and a bisection that read those last iterates
   as bounds answered 56% at d = 200 ms.  The answer must be a load
   whose fixed point converged within the deadline. *)
let test_admission_edf_converged () =
  List.iter
    (fun deadline ->
      let r =
        {
          Admission.base = Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.;
          guarantee = { Admission.deadline; epsilon = 1e-9 };
        }
      in
      let u =
        Admission.max_cross_utilization r
          ~scheduler:(Scheduler.Kind.Edf { cross_over_through = 10. })
      in
      let o =
        Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points
          (Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:u)
          ~spec:{ Scenario.cross_over_through = 10. }
      in
      Alcotest.(check string)
        (Fmt.str "d = %g ms: the fixed point at u = %g" deadline u)
        "converged"
        (Deltanet.Diag.status_to_string o.Deltanet.Diag.diag.Deltanet.Diag.status);
      Alcotest.(check bool)
        (Fmt.str "d = %g ms: bound %g within it" deadline o.Deltanet.Diag.value.Scenario.bound)
        true
        (o.Deltanet.Diag.value.Scenario.bound <= deadline))
    [ 50.; 200. ]

let suite =
  [
    Alcotest.test_case "output rate/decay" `Quick test_output_rate_and_decay;
    Alcotest.test_case "output unstable" `Quick test_output_unstable_rejected;
    Alcotest.test_case "output deterministic" `Quick test_output_deterministic;
    Alcotest.test_case "output chain = additive" `Quick test_output_chain_matches_additive;
    Alcotest.test_case "windowed sums" `Quick test_windowed_sums;
    Alcotest.test_case "estimate constant trace" `Quick test_estimate_constant_trace;
    Alcotest.test_case "estimate brackets analytic eb" `Slow test_estimate_mmpp_brackets;
    Alcotest.test_case "measured-trace e2e workflow" `Slow test_estimated_ebb_usable_end_to_end;
    Alcotest.test_case "admission monotone" `Slow test_admission_monotone_in_deadline;
    Alcotest.test_case "admission scheduler order" `Slow test_admission_scheduler_ordering;
    Alcotest.test_case "admission consistency" `Slow test_admission_consistency;
    Alcotest.test_case "admission EDF answer converged" `Quick test_admission_edf_converged;
  ]
