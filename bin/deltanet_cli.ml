(* deltanet — command-line front end for the ∆-scheduler delay-bound
   analysis and the tandem-network simulator.

   Subcommands:
     bound           end-to-end probabilistic delay bound for one setting
     sweep           bound as a function of utilization or path length (CSV)
     simulate        packet-level tandem simulation with delay quantiles
     replicate       independent replications with CIs, retries and resume
     schedulability  deterministic single-node check (Theorem 2)
     scaling         empirical growth exponents of the bounds in H
     admission       largest admissible cross load under a delay guarantee
     check           validate domain contracts (∆ matrices, envelopes, load)
     serve           long-running admission-control daemon (JSON lines on stdin)
     loadgen         deterministic request-line generator for serve
     report          offline analyzer for --metrics telemetry files

   The serve daemon reads one JSON request per line on stdin and writes
   one JSON response per line on stdout; SIGTERM/SIGINT drain the input
   buffer, emit a final stats line and exit 0 (Serve.Daemon).

   Exit codes: 0 success; 1 runtime/numerical failure or partial results;
   2 invalid arguments; 3 unstable scenario (no finite bound exists).     *)

module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Classes = Scheduler.Classes
module Delta = Scheduler.Delta
module Tandem = Netsim.Tandem
module Faults = Netsim.Faults
module Replicate = Netsim.Replicate

open Cmdliner

let exit_runtime = 1
let exit_usage = 2
let exit_unstable = 3

(* ---------------- shared arguments ---------------- *)

type sched_choice = S_fifo | S_bmux | S_sp | S_edf

let sched_conv =
  let parse = function
    | "fifo" -> Ok S_fifo
    | "bmux" -> Ok S_bmux
    | "sp" -> Ok S_sp
    | "edf" -> Ok S_edf
    | s -> Error (`Msg (Fmt.str "unknown scheduler %S (fifo|bmux|sp|edf)" s))
  in
  let print ppf = function
    | S_fifo -> Fmt.string ppf "fifo"
    | S_bmux -> Fmt.string ppf "bmux"
    | S_sp -> Fmt.string ppf "sp"
    | S_edf -> Fmt.string ppf "edf"
  in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(
    value
    & opt sched_conv S_fifo
    & info [ "s"; "scheduler" ] ~docv:"SCHED" ~doc:"Scheduler: fifo, bmux, sp, or edf.")

let hops_arg =
  Arg.(value & opt int 5 & info [ "H"; "hops" ] ~docv:"H" ~doc:"Path length (nodes).")

let u0_arg =
  Arg.(
    value
    & opt float 0.15
    & info [ "u0" ] ~docv:"FRAC" ~doc:"Through-traffic utilization (fraction).")

let uc_arg =
  Arg.(
    value
    & opt float 0.35
    & info [ "uc" ] ~docv:"FRAC" ~doc:"Cross-traffic utilization per node (fraction).")

let epsilon_arg =
  Arg.(
    value
    & opt float 1e-9
    & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc:"Target violation probability.")

let edf_ratio_arg =
  Arg.(
    value
    & opt float 10.
    & info [ "edf-ratio" ] ~docv:"R"
        ~doc:"EDF deadline ratio d*_cross / d*_through (fixed point on the bound).")

let s_points_arg =
  Arg.(
    value
    & opt int 24
    & info [ "s-points" ] ~docv:"N"
        ~doc:"Grid resolution for the effective-bandwidth parameter search.")

let faults_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg (Fmt.str "expected NODE:SPEC, got %S" s))
    | Some i -> (
      let node = String.sub s 0 i in
      let spec = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt node, Faults.spec_of_string spec) with
      | (Some node, Ok spec) when node >= 0 -> Ok (node, spec)
      | (None, _) -> Error (`Msg (Fmt.str "bad node index %S" node))
      | (_, Error msg) -> Error (`Msg msg)
      | (Some n, Ok _) -> Error (`Msg (Fmt.str "negative node index %d" n)))
  in
  let print ppf (node, spec) = Fmt.pf ppf "%d:%s" node (Faults.spec_to_string spec) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt_all faults_conv []
    & info [ "faults" ] ~docv:"NODE:SPEC"
        ~doc:
          "Inject a capacity-degradation fault process at node $(i,NODE) (0-based). \
           SPEC is const:F (permanent drop to a fraction F of capacity), \
           window:A-B:F (drop during slots [A, B), several joinable with +), or \
           gilbert:PFAIL:PREC:F (random transient faults: fail with PFAIL per healthy \
           slot, recover with PREC per degraded slot).  Repeatable.")

(* ---------------- parallel execution ---------------- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel sweep/replication paths (default: the \
           $(b,DELTANET_JOBS) environment variable, else 1; 0 means all cores).  \
           Outputs are bit-for-bit identical at every setting.")

let setup_jobs jobs =
  (* DELTANET_PAR_CUTOFF tunes the adaptive sequential cutoff (abstract
     work units below which hinted maps skip domain fan-out; 0 disables);
     it composes with --jobs rather than replacing it — jobs picks the
     pool size, the cutoff decides which grids are worth using it. *)
  Parallel.Default.apply_cutoff_env ();
  let n =
    match jobs with Some n -> Some n | None -> Parallel.Default.jobs_from_env ()
  in
  Option.iter Parallel.Default.set_jobs n

(* ---------------- telemetry flags (all subcommands) ---------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write telemetry to $(docv) as JSON-lines: span boundaries and structured \
           events as they happen, plus a final counter/gauge/histogram snapshot.")

let trace_arg =
  Arg.(
    value
    & flag
    & info [ "trace" ]
        ~doc:"Print the telemetry span tree (with per-span wall times) to stderr.")

(* Flushing hangs off [at_exit] so the snapshot survives the typed [exit]
   paths (unstable scenario, numerical failure), which do not unwind.
   Crashes leave evidence too: the uncaught-exception handler merges the
   flight-recorder rings into the sink before the default handler prints
   the backtrace, and SIGUSR1 dumps the rings of a live process. *)
let setup_telemetry metrics trace =
  if metrics <> None || trace then begin
    let sinks = ref [] in
    if trace then sinks := Telemetry.Sink.fmt () :: !sinks;
    (match metrics with
    | Some path ->
      let oc = open_out path in
      at_exit (fun () -> close_out_noerr oc);
      sinks := Telemetry.Sink.jsonl oc :: !sinks
    | None -> ());
    Telemetry.configure ~sink:(Telemetry.Sink.tee !sinks) ();
    at_exit Telemetry.shutdown;
    Printexc.set_uncaught_exception_handler (fun e bt ->
        (try Telemetry.flush () with _ -> ());
        Printexc.default_uncaught_exception_handler e bt);
    try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Telemetry.flush ()))
    with Invalid_argument _ | Sys_error _ -> ()
  end

let with_telemetry name metrics trace f =
  setup_telemetry metrics trace;
  Telemetry.span ("cli." ^ name) f

(* ---------------- scenario construction with typed failure modes ------- *)

let scenario_or_exit ~h ~u0 ~uc ~epsilon =
  if h < 1 || Float.is_nan u0 || Float.is_nan uc || u0 < 0. || uc < 0. then begin
    Fmt.epr "invalid arguments: need H >= 1 and utilizations >= 0 (got H=%d, u0=%g, uc=%g)@."
      h u0 uc;
    exit exit_usage
  end;
  if u0 >= 1. || uc >= 1. || u0 +. uc >= 1. then begin
    Fmt.epr
      "unstable scenario: total utilization %g >= 1 — the path admits no finite bound@."
      (u0 +. uc);
    exit exit_unstable
  end;
  { (Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc) with Scenario.epsilon }

let report_diag_and_exit (diag : Diag.t) =
  match diag.Diag.status with
  | Diag.Converged -> ()
  | Diag.Unstable ->
    Fmt.epr "unstable scenario: no stable operating point (no finite bound)@.";
    exit exit_unstable
  | Diag.Diverged ->
    Fmt.epr "did not converge after %d iterations — result untrusted@." diag.Diag.iterations;
    exit exit_runtime
  | Diag.Non_finite ->
    Fmt.epr "numerical failure: NaN escaped the optimization@.";
    exit exit_runtime
  | Diag.Invalid ->
    Fmt.epr "invalid model: a domain contract is violated (see findings above)@.";
    exit exit_runtime

(* ---------------- bound ---------------- *)

let compute_bound_checked ~s_points ~edf_ratio scenario = function
  | S_fifo -> Scenario.delay_bound_checked ~s_points ~scheduler:Classes.Fifo scenario
  | S_bmux -> Scenario.delay_bound_checked ~s_points ~scheduler:Classes.Bmux scenario
  | S_sp -> Scenario.delay_bound_checked ~s_points ~scheduler:Classes.Sp_through_high scenario
  | S_edf ->
    let o =
      Scenario.delay_bound_edf_checked ~s_points scenario
        ~spec:{ Scenario.cross_over_through = edf_ratio }
    in
    { Diag.value = o.Diag.value.Scenario.bound; diag = o.Diag.diag }

let compute_bound ~h ~u0 ~uc ~epsilon ~s_points ~edf_ratio sched =
  let scenario =
    { (Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc) with Scenario.epsilon }
  in
  compute_bound_checked ~s_points ~edf_ratio scenario sched

(* A sweep cell: the value, followed by its Diag status unless Converged *)
let sweep_cell (o : float Diag.outcome) =
  if Diag.ok o.Diag.diag then Printf.sprintf "%.4f" o.Diag.value
  else
    Printf.sprintf "%.4f (%s)" o.Diag.value (Diag.status_to_string o.Diag.diag.Diag.status)

let bound_cmd =
  let run h u0 uc epsilon s_points edf_ratio sched metric jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "bound" metrics trace @@ fun () ->
    let scenario = scenario_or_exit ~h ~u0 ~uc ~epsilon in
    let (outcome, unit_) =
      match metric with
      | "delay" -> (compute_bound_checked ~s_points ~edf_ratio scenario sched, "ms")
      | "backlog" ->
        let scheduler =
          match sched with
          | S_fifo -> Classes.Fifo
          | S_bmux -> Classes.Bmux
          | S_sp -> Classes.Sp_through_high
          | S_edf ->
            (* use the delay fixed point to set the gap, then bound backlog *)
            let r =
              Scenario.delay_bound_edf_checked ~s_points scenario
                ~spec:{ Scenario.cross_over_through = edf_ratio }
            in
            report_diag_and_exit r.Diag.diag;
            Classes.Edf_gap (r.Diag.value.Scenario.d_through -. r.Diag.value.Scenario.d_cross)
        in
        (Scenario.backlog_bound_checked ~s_points ~scheduler scenario, "kb")
      | other ->
        Fmt.epr "unknown metric %S (delay|backlog)@." other;
        exit exit_usage
    in
    report_diag_and_exit outcome.Diag.diag;
    Fmt.pr "%.4f %s@." outcome.Diag.value unit_
  in
  let metric_arg =
    Arg.(
      value
      & opt string "delay"
      & info [ "metric" ] ~docv:"METRIC" ~doc:"Bound to compute: delay (ms) or backlog (kb).")
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ epsilon_arg $ s_points_arg $ edf_ratio_arg
      $ sched_arg $ metric_arg $ jobs_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:
         "End-to-end probabilistic delay bound for the paper's workload (on-off \
          Markov sources on equal-capacity 100 Mbps links).  Exits 0 on success, \
          3 when the scenario is unstable (no finite bound exists), 1 on a \
          numerical failure, 2 on invalid arguments.")
    term

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let run h u0 epsilon s_points edf_ratio dimension jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "sweep" metrics trace @@ fun () ->
    Fmt.pr "# %s sweep, u0=%g, eps=%g@." dimension u0 epsilon;
    (* Rows fan out on the default pool (one task per sweep point, each
       computing all three schedulers); printing stays on the main domain,
       in input order, so the CSV is identical at every --jobs. *)
    (match dimension with
    | "utilization" ->
      Fmt.pr "u,bmux,fifo,edf@.";
      Parallel.Default.map_list
        (fun u_pct ->
          let uc = (float_of_int u_pct /. 100.) -. u0 in
          if uc < 0. || u0 +. uc >= 1. then (u_pct, None)
          else begin
            let d s = compute_bound ~h ~u0 ~uc ~epsilon ~s_points ~edf_ratio s in
            (u_pct, Some (d S_bmux, d S_fifo, d S_edf))
          end)
        [ 20; 30; 40; 50; 60; 70; 80; 90; 95 ]
      |> List.iter (function
           | (u_pct, None) ->
             Fmt.epr "# skipping u=%d%% (infeasible with u0=%g)@." u_pct u0
           | (u_pct, Some (bmux, fifo, edf)) ->
             Fmt.pr "%d,%s,%s,%s@." u_pct (sweep_cell bmux) (sweep_cell fifo) (sweep_cell edf))
    | "hops" ->
      if u0 < 0. || 2. *. u0 >= 1. then begin
        Fmt.epr "unstable scenario: hops sweep runs at uc = u0, so u0 must be in [0, 0.5)@.";
        exit exit_unstable
      end;
      Fmt.pr "h,bmux,fifo,edf@.";
      Parallel.Default.map_list
        (fun h ->
          let d s = compute_bound ~h ~u0 ~uc:u0 ~epsilon ~s_points ~edf_ratio s in
          (h, (d S_bmux, d S_fifo, d S_edf)))
        [ 1; 2; 3; 4; 5; 6; 8; 10; 15; 20; 25; 30 ]
      |> List.iter (fun (h, (bmux, fifo, edf)) ->
             Fmt.pr "%d,%s,%s,%s@." h (sweep_cell bmux) (sweep_cell fifo) (sweep_cell edf))
    | other -> Fmt.epr "unknown sweep dimension %S (utilization|hops)@." other);
    ()
  in
  let dim_arg =
    Arg.(
      value
      & pos 0 string "utilization"
      & info [] ~docv:"DIM" ~doc:"Sweep dimension: utilization or hops.")
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ epsilon_arg $ s_points_arg $ edf_ratio_arg $ dim_arg
      $ jobs_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"CSV sweep of the delay bound over utilization or path length.")
    term

(* ---------------- simulate ---------------- *)

let scheduler_of_choice ~edf_ratio = function
  | S_fifo -> Classes.Fifo
  | S_bmux -> Classes.Bmux
  | S_sp -> Classes.Sp_through_high
  | S_edf -> Classes.Edf_gap (10. *. (1. -. edf_ratio))

let tandem_config ~h ~u0 ~uc ~slots ~sched ~edf_ratio ~faults ~seed =
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  let n_through = int_of_float (Float.round (u0 *. 100. /. mean)) in
  let n_cross = int_of_float (Float.round (uc *. 100. /. mean)) in
  List.iteri
    (fun k (node, _) ->
      if node >= h then begin
        Fmt.epr "fault spec for node %d, but the path has only nodes 0..%d@." node (h - 1);
        exit exit_usage
      end;
      if List.exists (fun (j, _) -> j = node) (List.filteri (fun k' _ -> k' < k) faults)
      then begin
        Fmt.epr "duplicate fault spec for node %d@." node;
        exit exit_usage
      end)
    faults;
  {
    Tandem.default_config with
    Tandem.h;
    n_through;
    n_cross;
    slots;
    drain_limit = slots / 10;
    scheduler = scheduler_of_choice ~edf_ratio sched;
    through_deadline = 10.;
    cross_deadline = 10. *. edf_ratio;
    seed;
    faults;
  }

let slots_arg =
  Arg.(value & opt int 100_000 & info [ "slots" ] ~docv:"N" ~doc:"Arrival horizon (1 ms slots).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let engine_conv =
  let parse s =
    match Tandem.engine_of_string s with Ok e -> Ok e | Error m -> Error (`Msg m)
  in
  let print ppf e = Fmt.string ppf (Tandem.engine_to_string e) in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(
    value
    & opt engine_conv Tandem.Slotted
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: $(b,slotted) (the reference time-stepped loop) or \
           $(b,event) (heap-based event engine — bit-identical delay samples on \
           slot-aligned configs, and much faster when traffic is sparse).")

let cbr_conv =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (`Msg (Fmt.str "expected PERIOD:BURST, got %S" s))
    | Some i -> (
      let period = String.sub s 0 i in
      let burst = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt period, float_of_string_opt burst) with
      | (Some p, Some b) when p >= 1 && b > 0. && Float.is_finite b ->
        Ok (p, b)
      | _ -> Error (`Msg (Fmt.str "bad CBR spec %S (need PERIOD >= 1, BURST > 0)" s)))
  in
  let print ppf (p, b) = Fmt.pf ppf "%d:%g" p b in
  Arg.conv (parse, print)

let cbr_arg =
  Arg.(
    value
    & opt (some cbr_conv) None
    & info [ "cbr" ] ~docv:"PERIOD:BURST"
        ~doc:
          "Replace the Markov through aggregate with a deterministic source: \
           $(i,BURST) kb every $(i,PERIOD) slots.  Engine-independent by \
           construction, and sparse traffic is where $(b,--engine event) wins \
           (the Markov sources step their chains every slot).")

let simulate_cmd =
  let run h u0 uc slots seed sched edf_ratio faults engine cbr metrics trace =
    with_telemetry "simulate" metrics trace @@ fun () ->
    let cfg =
      tandem_config ~h ~u0 ~uc ~slots ~sched ~edf_ratio ~faults ~seed:(Int64.of_int seed)
    in
    let cfg =
      match cbr with
      | None -> cfg
      | Some (period, burst) ->
        { cfg with Tandem.through_kind = Tandem.Cbr { period; burst } }
    in
    let t0 = Unix.gettimeofday () in
    let r = Tandem.run ~engine cfg in
    let wall = Unix.gettimeofday () -. t0 in
    Fmt.pr "through flows: %d, cross flows/node: %d, slots: %d@." cfg.Tandem.n_through
      cfg.Tandem.n_cross slots;
    Fmt.pr "through data: %.0f kb (censored %.0f kb)@." r.Tandem.through_kb
      r.Tandem.censored_kb;
    Array.iteri (fun i u -> Fmt.pr "node %d utilization: %.1f%%@." i (100. *. u))
      r.Tandem.utilization;
    if faults <> [] then
      Array.iteri
        (fun i f ->
          if f < 1. then Fmt.pr "node %d mean capacity factor: %.3f (degraded)@." i f)
        r.Tandem.fault_factor;
    List.iter
      (fun q ->
        Fmt.pr "delay quantile %-7g: %6.1f ms@." q (Tandem.delay_quantile r q))
      [ 0.5; 0.9; 0.99; 0.999; 0.9999 ];
    Fmt.pr "delay max         : %6.1f ms@."
      (Desim.Stats.Sample.max r.Tandem.delays);
    let pps =
      float_of_int (Desim.Stats.Sample.count r.Tandem.delays) /. Float.max wall 1e-9
    in
    (match engine with
    | Tandem.Slotted ->
      Fmt.pr "engine: slotted (%.0f packets/s, %.2f s wall)@." pps wall
    | Tandem.Event ->
      Fmt.pr "engine: event (%d events for %d slots; %.0f packets/s, %.2f s wall)@."
        r.Tandem.events_processed
        (slots + cfg.Tandem.drain_limit)
        pps wall)
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ slots_arg $ seed_arg $ sched_arg
      $ edf_ratio_arg $ faults_arg $ engine_arg $ cbr_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Packet-level tandem simulation with empirical delay quantiles; use --faults \
          to degrade link capacities and compare against leftover-service bounds.")
    term

(* ---------------- replicate ---------------- *)

let replicate_cmd =
  let run h u0 uc slots seed sched edf_ratio faults engine runs q retries max_wall resume
      jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "replicate" metrics trace @@ fun () ->
    let experiment ~seed =
      (Tandem.run ~engine (tandem_config ~h ~u0 ~uc ~slots ~sched ~edf_ratio ~faults ~seed))
        .Tandem.delays
    in
    match
      Replicate.quantile_ci ~max_retries:retries ?max_wall ?checkpoint:resume ~runs
        ~base_seed:(Int64.of_int seed) ~q experiment
    with
    | exception Failure msg ->
      Fmt.epr "replication sweep failed: %s@." msg;
      exit exit_runtime
    | s ->
      Fmt.pr "delay quantile %g over %d/%d replications: %.2f ± %.2f ms (95%% CI)@." q
        s.Replicate.completed s.Replicate.requested s.Replicate.mean
        s.Replicate.half_width95;
      if s.Replicate.resumed > 0 then
        Fmt.pr "resumed %d completed replication(s) from checkpoint@." s.Replicate.resumed;
      if s.Replicate.retried > 0 then Fmt.pr "retried %d time(s)@." s.Replicate.retried;
      List.iter
        (fun f ->
          Fmt.epr "replication %d failed after %d attempt(s): %s@." f.Replicate.index
            f.Replicate.attempts f.Replicate.reason)
        s.Replicate.failures;
      if s.Replicate.completed < s.Replicate.requested then begin
        Fmt.epr "warning: partial results — CI covers %d of %d replications@."
          s.Replicate.completed s.Replicate.requested;
        exit exit_runtime
      end
  in
  let runs_arg =
    Arg.(value & opt int 10 & info [ "runs" ] ~docv:"N" ~doc:"Number of independent replications.")
  in
  let q_arg =
    Arg.(value & opt float 0.99 & info [ "q" ] ~docv:"Q" ~doc:"Delay quantile to summarize.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries per failed replication (fresh derived seed each time).")
  in
  let max_wall_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-wall" ] ~docv:"SECS"
          ~doc:
            "Wall-clock deadline per replication (seconds); a replication exceeding it \
             is abandoned without retry and reported.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file: completed replications are appended as they finish, and \
             an existing file from the same sweep is loaded so only missing \
             replications run.")
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ slots_arg $ seed_arg $ sched_arg
      $ edf_ratio_arg $ faults_arg $ engine_arg $ runs_arg $ q_arg $ retries_arg
      $ max_wall_arg $ resume_arg $ jobs_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:
         "Independent tandem-simulation replications with a Student-t confidence \
          interval on a delay quantile.  Failed replications are retried under fresh \
          derived seeds; --max-wall abandons slow ones; --resume checkpoints completed \
          runs and restarts a killed sweep where it stopped.  Exits 1 on partial \
          results.")
    term

(* ---------------- schedulability ---------------- *)

let schedulability_cmd =
  let flow_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ r; b ] -> (
        try Ok (float_of_string r, float_of_string b, Delta.Fin 0.)
        with _ -> Error (`Msg "expected RATE:BURST[:DELTA]"))
      | [ r; b; d ] -> (
        try
          let delta =
            match d with
            | "inf" -> Delta.Pos_inf
            | "-inf" -> Delta.Neg_inf
            | _ -> Delta.fin (float_of_string d)
          in
          Ok (float_of_string r, float_of_string b, delta)
        with _ -> Error (`Msg "expected RATE:BURST[:DELTA]"))
      | _ -> Error (`Msg "expected RATE:BURST[:DELTA]")
    in
    let print ppf (r, b, d) = Fmt.pf ppf "%g:%g:%a" r b Delta.pp d in
    Arg.conv (parse, print)
  in
  let run capacity flows metrics trace =
    with_telemetry "schedulability" metrics trace @@ fun () ->
    match flows with
    | [] -> Fmt.epr "no flows given@."
    | _ ->
      let sched_flows =
        List.map
          (fun (rate, burst, delta) ->
            { Deltanet.Schedulability.envelope = Minplus.Curve.affine ~rate ~burst; delta })
          flows
      in
      let d = Deltanet.Schedulability.min_delay ~capacity sched_flows in
      if Float.is_finite d then Fmt.pr "minimum guaranteeable delay: %.6f ms@." d
      else begin
        Fmt.epr "overloaded: no finite worst-case delay@.";
        exit 1
      end
  in
  let capacity_arg =
    Arg.(value & opt float 100. & info [ "C"; "capacity" ] ~docv:"C" ~doc:"Link capacity (kb/ms).")
  in
  let flows_arg =
    Arg.(
      value
      & pos_all flow_conv []
      & info [] ~docv:"FLOW"
          ~doc:
            "Leaky-bucket flows RATE:BURST[:DELTA].  The first flow is the tagged one \
             (delta 0); DELTA is the precedence constant of the others (number, inf, \
             -inf).")
  in
  let term = Term.(const run $ capacity_arg $ flows_arg $ metrics_arg $ trace_arg) in
  Cmd.v
    (Cmd.info "schedulability"
       ~doc:"Deterministic single-node minimum delay via Theorem 2 (Eq. 24).")
    term

(* ---------------- admission ---------------- *)

let admission_cmd =
  let run h u0 epsilon deadline edf_ratio metrics trace =
    with_telemetry "admission" metrics trace @@ fun () ->
    let request =
      {
        Deltanet.Admission.base =
          Scenario.of_utilization ~h ~u_through:u0 ~u_cross:0.;
        guarantee = { Deltanet.Admission.deadline; epsilon };
      }
    in
    Fmt.pr "max admissible cross utilization (H=%d, U0=%g, d=%g ms, eps=%g):@." h u0
      deadline epsilon;
    let pr name u = Fmt.pr "  %-8s %6.2f%%@." name (100. *. u) in
    pr "bmux" (Deltanet.Admission.max_cross_utilization request ~scheduler:Classes.Bmux);
    pr "fifo" (Deltanet.Admission.max_cross_utilization request ~scheduler:Classes.Fifo);
    pr "edf"
      (Deltanet.Admission.max_cross_utilization_edf request ~cross_over_through:edf_ratio);
    pr "sp"
      (Deltanet.Admission.max_cross_utilization request ~scheduler:Classes.Sp_through_high)
  in
  let deadline_arg =
    Arg.(
      value
      & opt float 50.
      & info [ "d"; "deadline" ] ~docv:"MS" ~doc:"End-to-end delay budget (ms).")
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ epsilon_arg $ deadline_arg $ edf_ratio_arg
      $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "admission"
       ~doc:"Largest admissible cross load under an end-to-end delay guarantee, per scheduler.")
    term

(* ---------------- scaling ---------------- *)

let scaling_cmd =
  let run u0 epsilon sim_slots engine jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "scaling" metrics trace @@ fun () ->
    let sc =
      { (Scenario.of_utilization ~h:2 ~u_through:u0 ~u_cross:u0) with Scenario.epsilon }
    in
    Fmt.pr "# growth of the e2e bound in the path length (U0 = Uc = %g)@." u0;
    List.iter
      (fun (name, f) ->
        let (points, e) = f () in
        Fmt.pr "%-22s exponent %.3f  (" name e;
        List.iter (fun (h, d) -> Fmt.pr " H=%.0f:%.1f" h d) points;
        Fmt.pr " )@.")
      [
        ("FIFO (network curve)",
         fun () -> Deltanet.Scaling.delay_growth ~scheduler:Classes.Fifo sc);
        ("BMUX (network curve)",
         fun () -> Deltanet.Scaling.delay_growth ~scheduler:Classes.Bmux sc);
        ("BMUX (additive)", fun () -> Deltanet.Scaling.additive_growth sc);
      ];
    if sim_slots > 0 then begin
      (* Empirical overlay: simulated q0.99 delays at the same H points as
         the analytic curves, fitted with the same log-log regression.  The
         simulated exponent sits below the analytic one (a sample quantile
         vs a tail bound) but should stay near-linear in H. *)
      let hs = [ 2; 4; 8; 16; 32 ] in
      let points =
        List.map
          (fun h ->
            let cfg =
              tandem_config ~h ~u0 ~uc:u0 ~slots:sim_slots ~sched:S_fifo ~edf_ratio:10.
                ~faults:[] ~seed:(Int64.of_int (4242 + h))
            in
            let r = Tandem.run ~engine cfg in
            (float_of_int h, Desim.Stats.Sample.quantile r.Tandem.delays 0.99))
          hs
      in
      let e = Deltanet.Scaling.growth_exponent points in
      Fmt.pr "%-22s exponent %.3f  (" "FIFO (simulated q99)" e;
      List.iter (fun (h, d) -> Fmt.pr " H=%.0f:%.1f" h d) points;
      Fmt.pr " )  [engine %s, %d slots]@." (Tandem.engine_to_string engine) sim_slots
    end;
    Fmt.pr "# Θ(H log H) appears as an exponent slightly above 1;@.";
    Fmt.pr "# the additive baseline's exponent is >= 2.@."
  in
  let sim_slots_arg =
    Arg.(
      value
      & opt int 0
      & info [ "sim-slots" ] ~docv:"N"
          ~doc:
            "Overlay an empirical growth exponent from packet-level simulation: run \
             the tandem simulator for $(docv) slots at each path length and fit the \
             q0.99 delay (0 disables the overlay).")
  in
  let term =
    Term.(
      const run $ u0_arg $ epsilon_arg $ sim_slots_arg $ engine_arg $ jobs_arg
      $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Empirical growth exponents of the delay bounds in the path length.")
    term

(* ---------------- check ---------------- *)

module Contracts = Deltanet.Contracts

let check_cmd =
  let matrix_conv =
    let parse s =
      let entry e =
        match String.trim e with
        | "inf" | "+inf" -> Ok Delta.Pos_inf
        | "-inf" -> Ok Delta.Neg_inf
        | e -> (
          (* [float_of_string] accepts "nan": deliberately representable so
             the checker, not the parser, rejects it as a typed finding. *)
          match float_of_string_opt e with
          | Some x -> Ok (Delta.Fin x)
          | None -> Error (`Msg (Fmt.str "bad delta entry %S (float, inf, -inf or nan)" e)))
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> ( match entry e with Ok d -> collect (d :: acc) rest | Error _ as err -> err)
      in
      let rows =
        String.split_on_char ';' s |> List.map (fun r -> String.split_on_char ',' r)
      in
      let n = List.length rows in
      if List.exists (fun r -> List.length r <> n) rows then
        Error (`Msg (Fmt.str "matrix is not square (%d row(s))" n))
      else
        let rec build acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | r :: rest -> (
            match collect [] r with
            | Ok row -> build (Array.of_list row :: acc) rest
            | Error _ as err -> err)
        in
        build [] rows
    in
    let print ppf m =
      let pp_row ppf row =
        Fmt.pf ppf "%a" (Fmt.array ~sep:Fmt.comma Delta.pp) row
      in
      Fmt.pf ppf "%a" Fmt.(array ~sep:semi pp_row) m
    in
    Arg.conv (parse, print)
  in
  let envelope_conv =
    let parse s =
      let triple t =
        match String.split_on_char ':' t with
        | [ x; y; r ] -> (
          match (float_of_string_opt x, float_of_string_opt y, float_of_string_opt r) with
          | (Some x, Some y, Some r) -> Ok (x, y, r)
          | _ -> Error (`Msg (Fmt.str "bad envelope piece %S (expected X:Y:R)" t)))
        | _ -> Error (`Msg (Fmt.str "bad envelope piece %S (expected X:Y:R)" t))
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> ( match triple t with Ok p -> collect (p :: acc) rest | Error _ as err -> err)
      in
      match collect [] (String.split_on_char ',' s) with
      | Error _ as err -> err
      | Ok triples -> (
        try Ok (Minplus.Curve.v_unsafe triples)
        with Invalid_argument msg -> Error (`Msg msg))
    in
    Arg.conv (parse, Minplus.Curve.pp)
  in
  let matrices_arg =
    Arg.(
      value
      & opt_all matrix_conv []
      & info [ "matrix" ] ~docv:"ROWS"
          ~doc:
            "Check a raw ∆ matrix, rows separated by $(b,;) and entries by $(b,,); \
             entries are floats, $(b,inf), $(b,-inf) or $(b,nan).  An all-finite \
             matrix is held to the EDF contracts (antisymmetry and translation \
             consistency), one over {-inf, 0, inf} to the static-priority ones \
             (entry domain and transitivity).  Repeatable.")
  in
  let envelopes_arg =
    Arg.(
      value
      & opt_all envelope_conv []
      & info [ "envelope" ] ~docv:"PIECES"
          ~doc:
            "Check a piecewise-linear traffic envelope given as comma-separated \
             X:Y:R pieces (value Y + R(t - X) from abscissa X) against the \
             Theorem-2 contracts: concavity and non-negativity.  Repeatable.")
  in
  let run h u0 uc matrices envelopes metrics trace =
    with_telemetry "check" metrics trace @@ fun () ->
    if h < 1 || Float.is_nan u0 || Float.is_nan uc || u0 < 0. || uc < 0. then begin
      Fmt.epr "invalid arguments: need H >= 1 and utilizations >= 0 (got H=%d, u0=%g, uc=%g)@."
        h u0 uc;
      exit exit_usage
    end;
    let labelled = ref [] in
    let record label findings =
      labelled := !labelled @ List.map (fun f -> (label, f)) findings
    in
    (* Scenario stability: aggregate load of the paper's workload. *)
    record "scenario"
      (Contracts.check_stability ~capacity:100. ~offered:((u0 +. uc) *. 100.));
    (* The shipped scheduler matrices, as a self-check of the model zoo. *)
    List.iter
      (fun (name, m) -> record name (Contracts.check_classes m))
      [
        ("fifo", Classes.fifo ~n:3);
        ("sp", Classes.static_priority ~priorities:[| 0; 1; 2 |]);
        ("bmux", Classes.bmux ~n:3 ~tagged:0);
        ("edf", Classes.edf ~deadlines:[| 10.; 20.; 30. |]);
      ];
    List.iteri
      (fun i m ->
        let n = Array.length m in
        record
          (Fmt.str "matrix#%d" i)
          (Contracts.check_matrix ~n (fun j k -> m.(j).(k))))
      matrices;
    List.iteri
      (fun i e ->
        let label = Fmt.str "envelope#%d" i in
        record label (Contracts.check_envelope ~label e))
      envelopes;
    List.iter (fun (label, f) -> Fmt.pr "%s %a@." label Contracts.pp_finding f) !labelled;
    let findings = List.map snd !labelled in
    if findings = [] then
      Fmt.pr "ok: %d contract check(s), no finding@."
        (5 + List.length matrices + List.length envelopes)
    else Fmt.pr "%d finding(s)@." (List.length findings);
    report_diag_and_exit (Contracts.diag_of findings)
  in
  let term =
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ matrices_arg $ envelopes_arg $ metrics_arg
      $ trace_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate domain contracts before spending compute: ∆ matrix \
          well-formedness (Section III), Theorem-2 envelope concavity, and \
          stability of the offered load.  Exits 0 when every contract holds and 1 \
          with one line per typed finding otherwise.  Meant as a pre-flight gate \
          for sweeps: $(b,deltanet check && deltanet sweep ...).")
    term

(* ---------------- serve ---------------- *)

let serve_cmd =
  let budget_arg =
    Arg.(
      value
      & opt float 250.
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request compute budget (wall ms); a request past it gets a \
             typed timeout response.  Requests may override with a $(b,budget_ms) \
             field.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int 512
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Backlog bound: admission requests beyond $(docv) in one batch are shed \
             with a retry-after hint instead of queued.")
  in
  let cache_arg =
    Arg.(
      value
      & opt int 4096
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Bounded LRU capacity for path-shape entries (memoized bounds and \
             compiled kernels) — the daemon's memory bound under shape churn.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_config.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:"Maximum request lines pulled into one processing batch.")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus text-exposition snapshot of the metric registry to \
             $(docv), atomically rewritten (tmp + rename) every \
             $(b,--prom-interval) seconds, on SIGUSR1 and on drain — point a \
             node-exporter textfile collector (or $(b,curl file://)) at it.")
  in
  let prom_interval_arg =
    Arg.(
      value
      & opt float Serve.Daemon.default_config.prom_interval
      & info [ "prom-interval" ] ~docv:"SECS"
          ~doc:"Seconds between $(b,--prom) snapshot rewrites.")
  in
  let run budget queue cache batch prom prom_interval jobs metrics trace =
    setup_jobs jobs;
    setup_telemetry metrics trace;
    (* recording entry points are load-and-branch no-ops until telemetry
       is configured; a server's stats op must count even without
       --metrics, so fall back to the null sink (registry only, nothing
       streamed — the pool keeps its parallelism) *)
    if not (Telemetry.is_enabled ()) then Telemetry.configure ();
    Telemetry.span "cli.serve" @@ fun () ->
    (* The handlers only raise flags, overriding setup_telemetry's
       flush-in-handler for SIGUSR1: the daemon loop drains, flushes and
       writes snapshots outside signal context. *)
    let stop = Atomic.make false in
    let snapshot = Atomic.make false in
    let raise_flag flag = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
    Sys.set_signal Sys.sigterm (raise_flag stop);
    Sys.set_signal Sys.sigint (raise_flag stop);
    (try Sys.set_signal Sys.sigusr1 (raise_flag snapshot)
     with Invalid_argument _ | Sys_error _ -> ());
    let engine =
      {
        Serve.Engine.default_config with
        Serve.Engine.budget_ms = budget;
        max_queue = queue;
        cache_entries = cache;
      }
    in
    Serve.Daemon.run ~stop ~snapshot
      { Serve.Daemon.engine; batch; prom; prom_interval }
      Unix.stdin stdout
  in
  let term =
    Term.(
      const run $ budget_arg $ queue_arg $ cache_arg $ batch_arg $ prom_arg
      $ prom_interval_arg $ jobs_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running admission-control daemon: one JSON request per line on stdin \
          (ops admit/check/stats/health), one JSON response per line on stdout.  \
          Repeat path shapes hit a bounded LRU of compiled kernels; overload is \
          shed with retry-after hints or degraded to closed-form upper bounds \
          (responses tagged exact/approx); SIGTERM/SIGINT drain and exit 0.  For per-outcome latency percentiles, run with $(b,--batch 1 --metrics) \
          FILE and read FILE with $(b,deltanet report).")
    term

(* ---------------- loadgen ---------------- *)

let loadgen_cmd =
  let d = Serve.Loadgen.default_config in
  let requests_arg =
    Arg.(
      value
      & opt int d.requests
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of request lines to emit.")
  in
  let shapes_arg =
    Arg.(
      value
      & opt int d.shapes
      & info [ "shapes" ] ~docv:"N"
          ~doc:
            "Number of distinct path shapes to draw from; smaller means a hotter \
             kernel cache.")
  in
  let malformed_arg =
    Arg.(
      value
      & opt float d.malformed
      & info [ "malformed" ] ~docv:"FRAC"
          ~doc:
            "Fraction of deliberately malformed lines (truncated JSON, bad types, \
             unknown ops, oversized payloads) mixed into the stream.")
  in
  let seed_arg =
    Arg.(value & opt int d.seed & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic stream seed.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt float d.deadline_ms
      & info [ "deadline" ] ~docv:"MS" ~doc:"Deadline (ms) carried by every admit request.")
  in
  let run requests shapes malformed seed deadline_ms sched =
    let scheduler =
      match sched with
      | S_fifo -> Serve.Protocol.Fifo
      | S_bmux -> Serve.Protocol.Bmux
      | S_sp -> Serve.Protocol.Sp
      | S_edf -> Serve.Protocol.Edf { cross_over_through = 10. }
    in
    Serve.Loadgen.iter
      { Serve.Loadgen.requests; shapes; malformed; seed; deadline_ms; scheduler }
      print_endline
  in
  let term =
    Term.(
      const run $ requests_arg $ shapes_arg $ malformed_arg $ seed_arg $ deadline_arg
      $ sched_arg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Emit a deterministic stream of serve-protocol request lines (optionally \
          salted with malformed input) on stdout, for piping into $(b,deltanet \
          serve) — the CI smoke test and the bench load generator.")
    term

(* ---------------- report ---------------- *)

let report_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Telemetry JSONL file(s) written by $(b,--metrics); several files \
             aggregate into one report.")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ] ~doc:"Emit the report as one JSON object instead of text.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Number of hot spans to list (by self time).")
  in
  let run files json top =
    if top < 1 then begin
      Fmt.epr "invalid --top %d (need >= 1)@." top;
      exit exit_usage
    end;
    let t = Report.create () in
    (try List.iter (Report.add_file t) files
     with Sys_error msg ->
       Fmt.epr "report: %s@." msg;
       exit exit_runtime);
    print_string (if json then Report.render_json ~top t else Report.render_text ~top t)
  in
  let term = Term.(const run $ files_arg $ json_arg $ top_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Offline analyzer for $(b,--metrics) telemetry files: aggregated span \
          trees with exact p50/p95/p99 per span name, counter rates, top-N hot \
          spans by self time, and — when the trace comes from $(b,deltanet serve) \
          — per-outcome request-latency percentiles and shed/timeout/error rates.")
    term

(* Library code rejects out-of-range arguments with [Invalid_argument];
   wherever that escapes a subcommand it is a usage error (exit 2), not a
   crash.  Any other exception keeps cmdliner's internal-error exit. *)
let () =
  let info =
    Cmd.info "deltanet" ~version:"1.0.0"
      ~doc:"Stochastic network-calculus delay bounds for ∆-schedulers on long paths."
  in
  let cmd =
    Cmd.group info
      [
        bound_cmd;
        sweep_cmd;
        simulate_cmd;
        replicate_cmd;
        schedulability_cmd;
        scaling_cmd;
        admission_cmd;
        check_cmd;
        serve_cmd;
        loadgen_cmd;
        report_cmd;
      ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Invalid_argument msg ->
      Fmt.epr "deltanet: %s@." msg;
      exit_usage
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Fmt.epr "deltanet: internal error, uncaught exception:@.%s@." (Printexc.to_string e);
      Printexc.print_raw_backtrace stderr bt;
      Cmd.Exit.internal_error)
