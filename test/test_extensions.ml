(* Tests for the extension modules: deterministic additive bounds, the
   multi-class single-node simulator, and replication output analysis. *)

module Mmpp = Envelope.Mmpp
module Curve = Minplus.Curve
module Det = Deltanet.Det_e2e
module Delta = Scheduler.Delta
module Sns = Netsim.Single_node_sim
module Single = Deltanet.Single_node

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- deterministic additive vs convolution ---------------- *)

let det_nodes h =
  List.init h (fun _ ->
      {
        Det.capacity = 10.;
        cross_envelope = Curve.affine ~rate:3. ~burst:5.;
        delta = Delta.Pos_inf;
      })

let test_det_additive_dominates () =
  let through = Curve.affine ~rate:2. ~burst:4. in
  List.iter
    (fun h ->
      let nodes = det_nodes h in
      let conv = Det.delay_bound ~nodes ~through ~thetas:(List.init h (fun _ -> 0.)) in
      let add = Det.additive_delay_bound ~nodes ~through in
      Alcotest.(check bool)
        (Fmt.str "H=%d: additive %g >= convolution %g" h add conv)
        true (add >= conv -. 1e-9))
    [ 1; 2; 4; 8 ]

let test_det_additive_equal_at_h1 () =
  let through = Curve.affine ~rate:2. ~burst:4. in
  let nodes = det_nodes 1 in
  check_float ~tol:1e-9 "single node equal"
    (Det.delay_bound ~nodes ~through ~thetas:[ 0. ])
    (Det.additive_delay_bound ~nodes ~through)

let test_det_additive_quadratic_growth () =
  (* Additive worst-case bounds grow quadratically (burst replays at each
     hop), convolution grows linearly: the gap widens with H. *)
  let through = Curve.affine ~rate:2. ~burst:4. in
  let gap h =
    let nodes = det_nodes h in
    Det.additive_delay_bound ~nodes ~through
    -. Det.delay_bound ~nodes ~through ~thetas:(List.init h (fun _ -> 0.))
  in
  Alcotest.(check bool) "gap widens" true (gap 8 > gap 4 && gap 4 > gap 2)

let test_det_backlog () =
  let through = Curve.affine ~rate:2. ~burst:4. in
  let nodes = det_nodes 3 in
  let b = Det.backlog_bound ~nodes ~through ~thetas:[ 0.; 0.; 0. ] in
  Alcotest.(check bool) (Fmt.str "finite backlog %g" b) true (Float.is_finite b && b >= 4.)

(* ---------------- multi-class single node ---------------- *)

let test_three_class_edf_sim_ordering () =
  (* Three classes with increasingly loose deadlines: measured delays at a
     high quantile must follow deadline order (tighter deadline, lower
     delay). *)
  let cfg =
    {
      Sns.capacity = 100.;
      classes =
        [|
          { Sns.n_flows = 180; source = Mmpp.paper_source };
          { Sns.n_flows = 180; source = Mmpp.paper_source };
          { Sns.n_flows = 180; source = Mmpp.paper_source };
        |];
      policy = Scheduler.Policy.edf ~deadlines:[| 2.; 20.; 200. |];
      slots = 60_000;
      drain_limit = 5_000;
      seed = 5L;
      faults = None;
    }
  in
  let r = Sns.run cfg in
  let q j = Sns.quantile r ~cls:j 0.999 in
  Alcotest.(check bool)
    (Fmt.str "deadline order: %.1f <= %.1f <= %.1f" (q 0) (q 1) (q 2))
    true
    (q 0 <= q 1 +. 1e-9 && q 1 <= q 2 +. 1e-9)

let test_three_class_bounds_dominate_sim () =
  (* Theorem-1 / Eq.-23 bounds for each class of a 3-class EDF node must
     dominate the simulated per-class quantiles. *)
  let n = 180. and capacity = 100. in
  let deadlines = [| 2.; 20.; 200. |] in
  let s = 1.0 and gamma = 0.5 and epsilon = 1e-3 in
  let ebb = Mmpp.ebb Mmpp.paper_source ~n ~s in
  let sp = Envelope.Ebb.sample_path_envelope ebb ~gamma in
  let flow_for j k =
    {
      Single.envelope = Curve.affine ~rate:sp.Envelope.Ebb.envelope_rate ~burst:0.;
      bound = sp.Envelope.Ebb.bound;
      delta = Delta.fin (deadlines.(j) -. deadlines.(k));
    }
  in
  let bound j =
    Single.delay_bound ~capacity ~epsilon (List.init 3 (fun k -> flow_for j k))
  in
  let cfg =
    {
      Sns.capacity;
      classes = Array.make 3 { Sns.n_flows = 180; source = Mmpp.paper_source };
      policy = Scheduler.Policy.edf ~deadlines;
      slots = 60_000;
      drain_limit = 5_000;
      seed = 6L;
      faults = None;
    }
  in
  let r = Sns.run cfg in
  for j = 0 to 2 do
    let q = Sns.quantile r ~cls:j 0.999 in
    let b = bound j in
    if q > b then
      Alcotest.failf "class %d: sim q99.9 %.1f above bound %.1f" j q b
  done

(* ---------------- replication ---------------- *)

let test_replicate_ci () =
  let experiment ~seed =
    let r =
      Netsim.Tandem.run
        {
          Netsim.Tandem.default_config with
          Netsim.Tandem.h = 2;
          n_cross = 500;
          slots = 10_000;
          drain_limit = 3_000;
          seed;
        }
    in
    r.Netsim.Tandem.delays
  in
  let s = Netsim.Replicate.quantile_ci ~runs:5 ~base_seed:77L ~q:0.99 experiment in
  Alcotest.(check int) "five replications" 5 (Array.length s.Netsim.Replicate.values);
  Alcotest.(check bool) "positive mean" true (s.Netsim.Replicate.mean > 0.);
  Alcotest.(check bool) "finite hw" true (Float.is_finite s.Netsim.Replicate.half_width95)

let test_replicate_deterministic_statistic () =
  let s =
    Netsim.Replicate.statistic_ci ~runs:4 ~base_seed:1L (fun ~seed ->
        ignore seed;
        3.5)
  in
  check_float "mean of constant" 3.5 s.Netsim.Replicate.mean;
  check_float "zero width" 0. s.Netsim.Replicate.half_width95

let suite =
  [
    Alcotest.test_case "det additive dominates" `Quick test_det_additive_dominates;
    Alcotest.test_case "det additive H=1" `Quick test_det_additive_equal_at_h1;
    Alcotest.test_case "det additive gap widens" `Quick test_det_additive_quadratic_growth;
    Alcotest.test_case "det backlog" `Quick test_det_backlog;
    Alcotest.test_case "3-class EDF ordering (sim)" `Slow test_three_class_edf_sim_ordering;
    Alcotest.test_case "3-class bounds dominate sim" `Slow test_three_class_bounds_dominate_sim;
    Alcotest.test_case "replication CI" `Slow test_replicate_ci;
    Alcotest.test_case "replication constant" `Quick test_replicate_deterministic_statistic;
  ]
