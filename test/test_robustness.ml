(* Fault injection, checked numerics and resilient replication. *)

module Curve = Minplus.Curve
module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Faults = Netsim.Faults
module Tandem = Netsim.Tandem
module Single = Netsim.Single_node_sim
module Replicate = Netsim.Replicate
module Stats = Desim.Stats
module Classes = Scheduler.Classes

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ---------------- fault specs and processes ---------------- *)

let test_spec_validation () =
  check_invalid "factor above 1" (fun () -> Faults.validate (Constant 1.5));
  check_invalid "negative factor" (fun () -> Faults.validate (Constant (-0.1)));
  check_invalid "NaN factor" (fun () -> Faults.validate (Constant Float.nan));
  check_invalid "empty windows" (fun () -> Faults.validate (Windows []));
  check_invalid "backwards window" (fun () ->
      Faults.validate (Windows [ (10, 5, 0.5) ]));
  check_invalid "bad probability" (fun () ->
      Faults.validate (Gilbert { p_fail = 1.5; p_recover = 0.5; factor = 0.5 }));
  Faults.validate (Constant 0.);
  Faults.validate (Windows [ (0, 10, 0.5); (5, 20, 0.2) ]);
  Faults.validate (Gilbert { p_fail = 0.01; p_recover = 0.2; factor = 0.3 })

let test_constant_process () =
  let p = Faults.make (Faults.Constant 0.7) in
  for _ = 1 to 10 do
    check_float "constant factor" 0.7 (Faults.step p)
  done;
  check_float "constant mean" 0.7 (Faults.mean_factor p)

let test_windows_process () =
  (* windows [2,4) at 0.5 and [3,6) at 0.2 — overlap takes the min *)
  let p = Faults.make (Faults.Windows [ (2, 4, 0.5); (3, 6, 0.2) ]) in
  let expected = [| 1.; 1.; 0.5; 0.2; 0.2; 0.2; 1.; 1. |] in
  Array.iteri (fun i e -> check_float (Fmt.str "slot %d" i) e (Faults.step p)) expected

let test_gilbert_process () =
  check_invalid "gilbert without rng" (fun () ->
      Faults.make (Gilbert { p_fail = 0.1; p_recover = 0.5; factor = 0.4 }));
  let spec = Faults.Gilbert { p_fail = 0.05; p_recover = 0.2; factor = 0.4 } in
  let run () =
    let rng = Desim.Prng.create ~seed:7L in
    let p = Faults.make ~rng spec in
    Array.init 5000 (fun _ -> Faults.step p)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "deterministic under a fixed seed" true (a = b);
  let mean = Array.fold_left ( +. ) 0. a /. 5000. in
  (* stationary degraded fraction p_fail /. (p_fail +. p_recover) = 0.2 *)
  check_float ~tol:0.05 "mean factor near stationary" (Faults.stationary_factor spec) mean;
  Alcotest.(check bool) "saw degraded slots" true (Array.exists (fun f -> Float.equal f 0.4) a);
  Alcotest.(check bool) "saw healthy slots" true (Array.exists (fun f -> Float.equal f 1.) a)

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      match Faults.spec_of_string (Faults.spec_to_string spec) with
      | Ok spec' ->
        Alcotest.(check string)
          "round trip" (Faults.spec_to_string spec) (Faults.spec_to_string spec')
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    [
      Faults.Constant 0.75;
      Faults.Windows [ (100, 200, 0.5) ];
      Faults.Windows [ (0, 10, 0.1); (50, 60, 0.9) ];
      Faults.Gilbert { p_fail = 0.01; p_recover = 0.25; factor = 0.3 };
    ];
  (match Faults.spec_of_string "nonsense" with
  | Ok _ -> Alcotest.fail "parsed nonsense"
  | Error _ -> ());
  match Faults.spec_of_string "const:1.5" with
  | Ok _ -> Alcotest.fail "parsed invalid factor"
  | Error _ -> ()

(* ---------------- fault-injected simulation ---------------- *)

let test_tandem_fault_factor () =
  let cfg =
    {
      Tandem.default_config with
      Tandem.slots = 2000;
      drain_limit = 2000;
      faults = [ (0, Faults.Constant 0.5) ];
    }
  in
  let r = Tandem.run cfg in
  check_float ~tol:1e-6 "node 0 degraded" 0.5 r.Tandem.fault_factor.(0);
  check_float "node 1 healthy" 1. r.Tandem.fault_factor.(1)

let test_tandem_faults_deterministic () =
  let cfg =
    {
      Tandem.default_config with
      Tandem.slots = 2000;
      drain_limit = 2000;
      faults =
        [ (0, Faults.Gilbert { p_fail = 0.01; p_recover = 0.1; factor = 0.3 }) ];
    }
  in
  let q cfg = Tandem.delay_quantile (Tandem.run cfg) 0.99 in
  check_float "same seed, same quantile" (q cfg) (q cfg);
  Alcotest.(check bool)
    "different seed, different quantile" true
    (q cfg <> q { cfg with Tandem.seed = 43L })

let test_tandem_faults_reject_bad_node () =
  check_invalid "fault on a node off the path" (fun () ->
      Tandem.run
        {
          Tandem.default_config with
          Tandem.slots = 100;
          faults = [ (5, Faults.Constant 0.5) ];
        });
  check_invalid "duplicate fault spec for a node" (fun () ->
      Tandem.run
        {
          Tandem.default_config with
          Tandem.slots = 100;
          faults = [ (0, Faults.Constant 0.5); (0, Faults.Constant 0.9) ];
        })

let test_degraded_run_within_degraded_bound () =
  (* A tandem whose every node runs at factor 0.8 must stay within the
     analytical bound of a healthy path of capacity 0.8 *. C — the
     operational reading of the leftover service curve under degradation. *)
  let factor = 0.8 in
  let cfg =
    {
      Tandem.default_config with
      Tandem.h = 2;
      n_through = 40;
      n_cross = 80;
      slots = 6000;
      drain_limit = 4000;
      seed = 11L;
      faults = [ (0, Faults.Constant factor); (1, Faults.Constant factor) ];
    }
  in
  let r = Tandem.run cfg in
  let sc =
    {
      (Scenario.paper_defaults ~h:2 ~n_through:40. ~n_cross:80.) with
      Scenario.capacity = factor *. Tandem.default_config.Tandem.capacity;
    }
  in
  let bound = Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc in
  Alcotest.(check bool) "degraded bound finite" true (Float.is_finite bound);
  let worst = Stats.Sample.max r.Tandem.delays in
  Alcotest.(check bool)
    (Fmt.str "worst simulated delay %g within degraded bound %g" worst bound)
    true
    (worst <= bound)

let test_single_node_fault_factor () =
  let r =
    Single.run
      {
        Single.default_config with
        Single.slots = 1500;
        faults = Some (Faults.Constant 0.7);
      }
  in
  check_float ~tol:1e-6 "single-node degraded factor" 0.7 r.Single.fault_factor

(* Data still queued at the horizon is reported per class, not dropped:
   an overloaded link with no drain leaves some of every class behind,
   a drained one leaves nothing. *)
let test_single_node_censored () =
  let cut =
    Single.run { Single.default_config with Single.capacity = 40.; slots = 500; drain_limit = 0 }
  in
  Array.iteri
    (fun j c ->
      let offered = cut.Single.offered_kb.(j) in
      Alcotest.(check bool)
        (Fmt.str "class %d: 0 < censored %g <= offered %g" j c offered)
        true
        (c > 0. && c <= offered))
    cut.Single.censored_kb;
  let drained = Single.run { Single.default_config with Single.slots = 1500 } in
  Array.iteri
    (fun j c -> check_float ~tol:0. (Fmt.str "class %d drained: censored" j) 0. c)
    drained.Single.censored_kb

(* ---------------- guard tripwires ---------------- *)

let test_stats_tripwires () =
  check_invalid "Online.add nan" (fun () ->
      Stats.Online.add (Stats.Online.create ()) Float.nan);
  check_invalid "Sample.add nan" (fun () ->
      Stats.Sample.add (Stats.Sample.create ()) Float.nan);
  check_invalid "quantile of empty sample" (fun () ->
      Stats.Sample.quantile (Stats.Sample.create ()) 0.5);
  (* finite samples still accepted *)
  let s = Stats.Sample.create () in
  Stats.Sample.add s 1.;
  Alcotest.(check int) "finite sample accepted" 1 (Stats.Sample.count s)

let test_curve_tripwires () =
  let f = Curve.constant_rate 2. in
  check_invalid "hshift nan" (fun () -> Curve.hshift Float.nan f);
  check_invalid "scale nan" (fun () -> Curve.scale Float.nan f)

(* ---------------- scenario validation and checked bounds ---------------- *)

let test_scenario_validation () =
  check_invalid "h = 0" (fun () -> Scenario.paper_defaults ~h:0 ~n_through:1. ~n_cross:1.);
  check_invalid "negative flows" (fun () ->
      Scenario.paper_defaults ~h:2 ~n_through:(-1.) ~n_cross:1.);
  check_invalid "NaN flows" (fun () ->
      Scenario.paper_defaults ~h:2 ~n_through:Float.nan ~n_cross:1.);
  check_invalid "utilization at 1" (fun () ->
      Scenario.of_utilization ~h:2 ~u_through:1. ~u_cross:0.);
  check_invalid "negative utilization" (fun () ->
      Scenario.of_utilization ~h:2 ~u_through:(-0.1) ~u_cross:0.3);
  check_invalid "total utilization 1" (fun () ->
      Scenario.of_utilization ~h:2 ~u_through:0.5 ~u_cross:0.5);
  (* zero through-utilization is a legitimate corner (cross traffic only) *)
  ignore (Scenario.of_utilization ~h:2 ~u_through:0. ~u_cross:0.5)

let test_checked_delay_bound () =
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.15 ~u_cross:0.3 in
  let o = Scenario.delay_bound_checked ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc in
  Alcotest.(check bool) "converged" true (o.Diag.diag.Diag.status = Diag.Converged);
  Alcotest.(check bool) "iterations counted" true (o.Diag.diag.Diag.iterations > 0);
  check_float "matches unchecked bound"
    (Scenario.delay_bound ~s_points:Scenario.s_points ~scheduler:Classes.Fifo sc)
    o.Diag.value;
  (* overloaded scenario (constructed via paper_defaults, which allows it) *)
  let over = Scenario.paper_defaults ~h:2 ~n_through:400. ~n_cross:400. in
  let o = Scenario.delay_bound_checked ~s_points:Scenario.s_points ~scheduler:Classes.Fifo over in
  Alcotest.(check bool) "unstable" true (o.Diag.diag.Diag.status = Diag.Unstable);
  check_float "unstable value is inf" Float.infinity o.Diag.value

let test_checked_edf_bound () =
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.3 in
  let spec = { Scenario.cross_over_through = 10. } in
  let o = Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points ~spec sc in
  Alcotest.(check bool) "converged" true (o.Diag.diag.Diag.status = Diag.Converged);
  Alcotest.(check bool) "finite bound" true (Float.is_finite o.Diag.value.Scenario.bound);
  Alcotest.(check bool) "iterations reported" true
    (o.Diag.value.Scenario.iterations >= 1);
  (* starve the fixed point of iterations: Diverged, last iterate returned *)
  let d = Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points ~max_iter:1 ~spec sc in
  Alcotest.(check bool) "diverged under max_iter:1" true
    (d.Diag.diag.Diag.status = Diag.Diverged);
  (* overloaded scenario: Unstable, no finite FIFO seed *)
  let over = Scenario.paper_defaults ~h:2 ~n_through:400. ~n_cross:400. in
  let u = Scenario.delay_bound_edf_checked ~s_points:Scenario.s_points ~spec over in
  Alcotest.(check bool) "unstable" true (u.Diag.diag.Diag.status = Diag.Unstable)

(* ---------------- resilient replication ---------------- *)

let test_replicate_retry () =
  (* first invocation yields a non-finite statistic; the retry (fresh
     derived seed) succeeds *)
  let calls = ref 0 in
  let f ~seed =
    incr calls;
    if !calls = 1 then Float.nan else Int64.to_float (Int64.rem seed 97L)
  in
  (* call-counting [f] assumes sequential execution; the parallel suite
     covers retry behaviour under a multi-domain pool *)
  let s = Replicate.statistic_ci ~jobs:1 ~max_retries:1 ~runs:5 ~base_seed:3L f in
  Alcotest.(check int) "all completed" 5 s.Replicate.completed;
  Alcotest.(check int) "one retry" 1 s.Replicate.retried;
  Alcotest.(check int) "no failures" 0 (List.length s.Replicate.failures)

let test_replicate_partial () =
  (* one replication keeps failing; the sweep degrades gracefully *)
  let calls = ref 0 in
  let f ~seed:_ =
    incr calls;
    if !calls = 2 then failwith "injected fault" else 1.0
  in
  (* call-counting [f]: pin to one domain so "second call" = index 1 *)
  let s = Replicate.statistic_ci ~jobs:1 ~max_retries:0 ~runs:4 ~base_seed:3L f in
  Alcotest.(check int) "requested" 4 s.Replicate.requested;
  Alcotest.(check int) "completed" 3 s.Replicate.completed;
  (match s.Replicate.failures with
  | [ { Replicate.index = 1; attempts = 1; reason } ] ->
    Alcotest.(check bool) "reason recorded" true
      (String.length reason > 0)
  | _ -> Alcotest.fail "expected exactly one failure at index 1")

let test_replicate_too_few () =
  (match Replicate.statistic_ci ~runs:3 ~base_seed:1L (fun ~seed:_ -> Float.nan) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  check_invalid "runs < 2" (fun () ->
      Replicate.statistic_ci ~runs:1 ~base_seed:1L (fun ~seed:_ -> 1.))

let test_replicate_wall_deadline () =
  let f ~seed:_ =
    Unix.sleepf 0.02;
    1.0
  in
  match Replicate.statistic_ci ~max_wall:1e-4 ~runs:2 ~base_seed:1L f with
  | _ -> Alcotest.fail "expected Failure: every replication blows the deadline"
  | exception Failure msg ->
    Alcotest.(check bool) "deadline in message" true
      (String.length msg > 0)

let with_temp_checkpoint k =
  let path = Filename.temp_file "deltanet-ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      k path)

let test_checkpoint_resume () =
  with_temp_checkpoint (fun path ->
      let f ~seed = Int64.to_float (Int64.abs (Int64.rem seed 97L)) in
      (* first sweep is killed after three replications *)
      let n = ref 0 in
      let f_killed ~seed =
        incr n;
        if !n > 3 then raise Sys.Break;
        f ~seed
      in
      (* sequential semantics on purpose (kill-after-3 means exactly three
         checkpointed replications only at jobs 1); the parallel suite has
         the wave-based resume-parity counterpart *)
      (match
         Replicate.statistic_ci ~jobs:1 ~checkpoint:path ~runs:8 ~base_seed:21L
           f_killed
       with
      | _ -> Alcotest.fail "expected the simulated kill to propagate"
      | exception Sys.Break -> ());
      (* resume completes only the missing runs *)
      let resumed_calls = ref 0 in
      let f_resumed ~seed =
        incr resumed_calls;
        f ~seed
      in
      let s =
        Replicate.statistic_ci ~jobs:1 ~checkpoint:path ~runs:8 ~base_seed:21L
          f_resumed
      in
      Alcotest.(check int) "resumed from checkpoint" 3 s.Replicate.resumed;
      Alcotest.(check int) "only missing runs executed" 5 !resumed_calls;
      Alcotest.(check int) "all completed" 8 s.Replicate.completed;
      (* the summary matches a clean, checkpoint-free sweep *)
      let clean = Replicate.statistic_ci ~runs:8 ~base_seed:21L f in
      check_float "mean matches clean sweep" clean.Replicate.mean s.Replicate.mean;
      check_float "CI matches clean sweep" clean.Replicate.half_width95
        s.Replicate.half_width95)

let test_checkpoint_mismatch () =
  with_temp_checkpoint (fun path ->
      let _ = Replicate.statistic_ci ~checkpoint:path ~runs:3 ~base_seed:5L
          (fun ~seed -> Int64.to_float (Int64.abs (Int64.rem seed 7L))) in
      check_invalid "different sweep rejected" (fun () ->
          Replicate.statistic_ci ~checkpoint:path ~runs:3 ~base_seed:6L
            (fun ~seed:_ -> 1.)))

let test_checkpoint_truncated () =
  (* the atomic writer never leaves a torn file, so loading rejects one
     loudly instead of silently dropping replications from the summary *)
  with_temp_checkpoint (fun path ->
      let f ~seed = Int64.to_float (Int64.abs (Int64.rem seed 13L)) in
      let _ = Replicate.statistic_ci ~checkpoint:path ~runs:4 ~base_seed:3L f in
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "checkpoint ends in newline" true
        (String.length whole > 0 && whole.[String.length whole - 1] = '\n');
      (* chop mid-line: kills the trailing newline *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub whole 0 (String.length whole - 3)));
      check_invalid "truncated checkpoint rejected" (fun () ->
          Replicate.statistic_ci ~checkpoint:path ~runs:4 ~base_seed:3L f);
      (* a malformed interior line (newline intact) is corruption too *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc whole;
          Out_channel.output_string oc "2 not-a-number\n");
      check_invalid "corrupt checkpoint line rejected" (fun () ->
          Replicate.statistic_ci ~checkpoint:path ~runs:4 ~base_seed:3L f))

let test_replicate_quantile_over_tandem () =
  (* smoke: the full CLI path — replicated fault-injected tandem runs *)
  let f ~seed =
    (Tandem.run
       {
         Tandem.default_config with
         Tandem.slots = 800;
         drain_limit = 800;
         seed;
         faults = [ (0, Faults.Constant 0.9) ];
       })
      .Tandem.delays
  in
  let s = Replicate.quantile_ci ~runs:3 ~base_seed:99L ~q:0.9 f in
  Alcotest.(check int) "completed" 3 s.Replicate.completed;
  Alcotest.(check bool) "finite CI" true
    (Float.is_finite s.Replicate.mean && Float.is_finite s.Replicate.half_width95)

let suite =
  [
    Alcotest.test_case "fault spec validation" `Quick test_spec_validation;
    Alcotest.test_case "constant fault process" `Quick test_constant_process;
    Alcotest.test_case "windowed fault process" `Quick test_windows_process;
    Alcotest.test_case "gilbert fault process" `Quick test_gilbert_process;
    Alcotest.test_case "fault spec round trip" `Quick test_spec_round_trip;
    Alcotest.test_case "tandem fault factor" `Quick test_tandem_fault_factor;
    Alcotest.test_case "tandem faults deterministic" `Quick test_tandem_faults_deterministic;
    Alcotest.test_case "tandem rejects off-path fault" `Quick test_tandem_faults_reject_bad_node;
    Alcotest.test_case "degraded run within degraded bound" `Slow
      test_degraded_run_within_degraded_bound;
    Alcotest.test_case "single-node fault factor" `Quick test_single_node_fault_factor;
    Alcotest.test_case "single-node censored data" `Quick test_single_node_censored;
    Alcotest.test_case "stats NaN tripwires" `Quick test_stats_tripwires;
    Alcotest.test_case "curve NaN tripwires" `Quick test_curve_tripwires;
    Alcotest.test_case "scenario input validation" `Quick test_scenario_validation;
    Alcotest.test_case "checked delay bound" `Quick test_checked_delay_bound;
    Alcotest.test_case "checked EDF fixed point" `Quick test_checked_edf_bound;
    Alcotest.test_case "replicate retries" `Quick test_replicate_retry;
    Alcotest.test_case "replicate partial results" `Quick test_replicate_partial;
    Alcotest.test_case "replicate too few completions" `Quick test_replicate_too_few;
    Alcotest.test_case "replicate wall deadline" `Quick test_replicate_wall_deadline;
    Alcotest.test_case "checkpoint resume after kill" `Quick test_checkpoint_resume;
    Alcotest.test_case "checkpoint sweep mismatch" `Quick test_checkpoint_mismatch;
    Alcotest.test_case "checkpoint truncation rejected" `Quick test_checkpoint_truncated;
    Alcotest.test_case "replicated fault-injected tandem" `Slow
      test_replicate_quantile_over_tandem;
  ]
