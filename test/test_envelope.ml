(* Tests for EBB and MMPP effective bandwidth. *)

module Ebb = Envelope.Ebb
module Mmpp = Envelope.Mmpp
module Exp = Envelope.Exponential
module Curve = Minplus.Curve

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    Float.abs (expected -. got)
    <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- EBB ---------------- *)

let test_ebb_aggregate () =
  let f1 = Ebb.v ~m:1. ~rho:2. ~alpha:1. in
  let f2 = Ebb.v ~m:1. ~rho:3. ~alpha:1. in
  let agg = Ebb.aggregate [ f1; f2 ] in
  check_float "rates add" 5. agg.Ebb.rho;
  check_float "decay halves (equal rates)" 0.5 agg.Ebb.alpha;
  check_float "prefactor" 2. agg.Ebb.m

let test_ebb_sample_path () =
  let f = Ebb.v ~m:1. ~rho:2. ~alpha:0.8 in
  let sp = Ebb.sample_path_envelope f ~gamma:0.5 in
  check_float "envelope rate" 2.5 sp.Ebb.envelope_rate;
  check_float "bound prefactor" (1. /. (1. -. exp (-0.4))) sp.Ebb.bound.Exp.m;
  check_float "bound rate" 0.8 sp.Ebb.bound.Exp.a

let test_ebb_to_curve () =
  let f = Ebb.v ~m:1. ~rho:2. ~alpha:0.8 in
  let c = Ebb.to_curve f ~gamma:0.5 in
  check_float "affine through origin" 0. (Curve.eval c 0.);
  check_float "slope" 2.5 (Curve.eval c 1.)

(* ---------------- MMPP ---------------- *)

let test_paper_source_rates () =
  let src = Mmpp.paper_source in
  check_float "peak" 1.5 (src.Mmpp.peak);
  (* pi_on = p12 / (p12 + p21) = 0.011 / 0.111 *)
  check_float "stationary on" (0.011 /. 0.111) (Mmpp.stationary_on src);
  check_float ~tol:1e-6 "mean ~ 0.1486 kb/ms" 0.148648648 (Mmpp.mean_rate src)

let test_eb_limits () =
  let src = Mmpp.paper_source in
  let eb_small = Mmpp.effective_bandwidth src ~s:1e-7 in
  let eb_large = Mmpp.effective_bandwidth src ~s:400. in
  check_float ~tol:1e-3 "s -> 0 gives mean rate" (Mmpp.mean_rate src) eb_small;
  check_float ~tol:1e-2 "s -> inf approaches peak" (src.Mmpp.peak) eb_large

let test_eb_monotone () =
  let src = Mmpp.paper_source in
  let prev = ref 0. in
  List.iter
    (fun s ->
      let eb = Mmpp.effective_bandwidth src ~s in
      if eb < !prev -. 1e-12 then Alcotest.failf "eb not monotone at s=%g" s;
      prev := eb)
    [ 0.001; 0.01; 0.1; 0.5; 1.; 2.; 5.; 10.; 100.; 1000. ]

let test_eb_between_mean_and_peak () =
  let src = Mmpp.paper_source in
  List.iter
    (fun s ->
      let eb = Mmpp.effective_bandwidth src ~s in
      if eb < Mmpp.mean_rate src -. 1e-9 || eb > src.Mmpp.peak +. 1e-9 then
        Alcotest.failf "eb out of [mean, peak] at s=%g: %g" s eb)
    [ 0.01; 0.3; 1.; 3.; 30.; 300. ]

let test_ebb_of_aggregate () =
  let src = Mmpp.paper_source in
  let e = Mmpp.ebb src ~n:100. ~s:1. in
  check_float "m = 1" 1. e.Ebb.m;
  check_float "alpha = s" 1. e.Ebb.alpha;
  check_float "rho = n * eb" (100. *. Mmpp.effective_bandwidth src ~s:1.) e.Ebb.rho

let test_mmpp_validation () =
  Alcotest.check_raises "correlation condition"
    (Invalid_argument "Mmpp.v: requires p12 + p21 <= 1 (positively correlated states)")
    (fun () -> ignore (Mmpp.v ~p_stay_off:0.2 ~p_stay_on:0.2 ~peak:1.))

let test_autocovariance () =
  check_float "second eigenvalue" (0.989 +. 0.9 -. 1.)
    (Mmpp.autocovariance_decay Mmpp.paper_source)

(* A direct Monte-Carlo check that the EBB bound holds for the MMPP
   aggregate: P(A(0,t) > rho t + sigma) <= e^{-s sigma}. *)
let test_ebb_bound_holds_empirically () =
  let src = Mmpp.paper_source in
  let n = 20 and s = 0.8 and t = 30 in
  let e = Mmpp.ebb src ~n:(float_of_int n) ~s in
  let rng = Desim.Prng.create ~seed:7L in
  let trials = 20_000 in
  let sigma = 10. in
  let threshold = (e.Ebb.rho *. float_of_int t) +. sigma in
  let violations = ref 0 in
  for _ = 1 to trials do
    (* simulate n independent sources for t slots *)
    let agg = ref 0. in
    let on = ref (Desim.Prng.binomial rng ~n ~p:(Mmpp.stationary_on src)) in
    for _ = 1 to t do
      agg := !agg +. (float_of_int !on *. 1.5);
      let stay = Desim.Prng.binomial rng ~n:!on ~p:0.9 in
      let flip = Desim.Prng.binomial rng ~n:(n - !on) ~p:0.011 in
      on := stay + flip
    done;
    if !agg > threshold then incr violations
  done;
  let empirical = float_of_int !violations /. float_of_int trials in
  let bound = exp (-.s *. sigma) in
  if empirical > bound then
    Alcotest.failf "EBB bound violated empirically: %g > %g" empirical bound

let suite =
  [
    Alcotest.test_case "ebb aggregate" `Quick test_ebb_aggregate;
    Alcotest.test_case "ebb sample path" `Quick test_ebb_sample_path;
    Alcotest.test_case "ebb to curve" `Quick test_ebb_to_curve;
    Alcotest.test_case "paper source rates" `Quick test_paper_source_rates;
    Alcotest.test_case "eb limits" `Quick test_eb_limits;
    Alcotest.test_case "eb monotone" `Quick test_eb_monotone;
    Alcotest.test_case "eb in [mean, peak]" `Quick test_eb_between_mean_and_peak;
    Alcotest.test_case "ebb of aggregate" `Quick test_ebb_of_aggregate;
    Alcotest.test_case "mmpp validation" `Quick test_mmpp_validation;
    Alcotest.test_case "autocovariance decay" `Quick test_autocovariance;
    Alcotest.test_case "EBB bound holds empirically" `Slow test_ebb_bound_holds_empirically;
  ]
