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

   This file is a shell over library calls: cmdliner terms, printing, and
   one mapping from a subcommand's outcome to the exit code.  The model
   code it drives (the scheduler kinds, the parsers, the checks) lives in
   the libraries, where tests call it directly.

   The serve daemon reads one JSON request per line on stdin and writes
   one JSON response per line on stdout; SIGTERM/SIGINT drain the input
   buffer, emit a final stats line and exit 0 (Serve.Daemon).

   Exit codes: 0 success; 1 runtime/numerical failure or partial results;
   2 invalid arguments; 3 unstable scenario (no finite bound exists).     *)

module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Kind = Scheduler.Kind
module Tandem = Netsim.Tandem
module Replicate = Netsim.Replicate

open Cmdliner

(* ---------------- outcomes and the exit-code mapping ---------------- *)

(* What a subcommand returns when it fails: the exit code's meaning and
   the message for stderr. *)
type failure = Runtime of string | Usage of string | Unstable of string

let exit_code = function
  | Ok () -> 0
  | Error f ->
    let (code, msg) = match f with Runtime m -> (1, m) | Usage m -> (2, m) | Unstable m -> (3, m) in
    Fmt.epr "%s@." msg;
    code

let ( let* ) = Result.bind
let usage fmt = Fmt.kstr (fun m -> Error (Usage m)) fmt

let of_diag (diag : Diag.t) =
  match diag.Diag.status with
  | Diag.Converged -> Ok ()
  | Diag.Unstable ->
    Error (Unstable "unstable scenario: no stable operating point (no finite bound)")
  | Diag.Diverged ->
    Error
      (Runtime
         (Fmt.str "did not converge after %d iterations — result untrusted" diag.Diag.iterations))
  | Diag.Non_finite -> Error (Runtime "numerical failure: NaN escaped the optimization")
  | Diag.Invalid ->
    Error (Runtime "invalid model: a domain contract is violated (see findings above)")

let scenario_of ~h ~u0 ~uc =
  Scenario.of_loads ~h ~u_through:u0 ~u_cross:uc
  |> Result.map_error (function `Invalid m -> Usage m | `Unstable m -> Unstable m)

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) Term.(const exit_code $ term)

(* A cmdliner converter over a library parser *)
let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

(* ---------------- shared arguments ---------------- *)

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

(* The scheduler name, with EDF's deadline ratio taken from [ratio] *)
let sched_term ratio =
  let parse s =
    Option.to_result (Kind.of_string ~ratio:1. s)
      ~none:(Fmt.str "unknown scheduler %S (fifo|bmux|sp|edf)" s)
  in
  let kind =
    Arg.(
      value
      & opt (conv_of parse (Fmt.of_to_string Kind.label)) Kind.Fifo
      & info [ "s"; "scheduler" ] ~docv:"SCHED" ~doc:"Scheduler: fifo, bmux, sp, or edf.")
  in
  let with_ratio k r =
    match k with Kind.Edf _ -> Kind.Edf { cross_over_through = r } | k -> k
  in
  Term.(const with_ratio $ kind $ ratio)

let s_points_arg =
  Arg.(
    value
    & opt int Scenario.s_points
    & info [ "s-points" ] ~docv:"N"
        ~doc:"Grid resolution for the effective-bandwidth parameter search.")

let faults_arg =
  let print ppf (node, spec) = Fmt.pf ppf "%d:%s" node (Netsim.Faults.spec_to_string spec) in
  Arg.(
    value
    & opt_all (conv_of Netsim.Faults.node_spec_of_string print) []
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

(* Flushing hangs off [at_exit], which [main]'s [exit] runs on every
   path.  Crashes leave evidence too: the uncaught-exception handler
   merges the flight-recorder rings into the sink before the default
   handler prints the backtrace, and SIGUSR1 dumps the rings of a live
   process. *)
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

(* ---------------- bound ---------------- *)

let bound_cmd =
  let run h u0 uc epsilon s_points scheduler metric jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "bound" metrics trace @@ fun () ->
    let* scenario = scenario_of ~h ~u0 ~uc in
    let* (metric, unit_) =
      match metric with
      | "delay" -> Ok (Scenario.Delay, "ms")
      | "backlog" -> Ok (Scenario.Backlog, "kb")
      | other -> usage "unknown metric %S (delay|backlog)" other
    in
    let o =
      Scenario.bound_checked ~s_points ~metric ~scheduler { scenario with Scenario.epsilon }
    in
    let* () = of_diag o.Diag.diag in
    Ok (Fmt.pr "%.4f %s@." o.Diag.value unit_)
  in
  let metric_arg =
    Arg.(
      value
      & opt string "delay"
      & info [ "metric" ] ~docv:"METRIC"
          ~doc:
            "Bound to compute: delay (ms) or backlog (kb).  The backlog bound reads the \
             scheduler only through whether cross traffic is ever served ahead of the \
             through flow: FIFO, BMUX and EDF give one value, valid for every finite \
             deadline, and SP a lower one.")
  in
  cmd "bound"
    ~doc:
      "End-to-end probabilistic delay bound for the paper's workload (on-off \
       Markov sources on equal-capacity 100 Mbps links).  Exits 0 on success, \
       3 when the scenario is unstable (no finite bound exists), 1 on a \
       numerical failure, 2 on invalid arguments."
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ epsilon_arg $ s_points_arg
      $ sched_term edf_ratio_arg $ metric_arg $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let run h u0 epsilon s_points edf_ratio dimension jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "sweep" metrics trace @@ fun () ->
    (* the label column's name, and (label, H, uc) per sweep point *)
    let* (column, points) =
      match dimension with
      | "utilization" ->
        Ok
          ( "u",
            List.map
              (fun u_pct -> (u_pct, h, (float_of_int u_pct /. 100.) -. u0))
              [ 20; 30; 40; 50; 60; 70; 80; 90; 95 ] )
      | "hops" when u0 < 0. || 2. *. u0 >= 1. ->
        Error
          (Unstable "unstable scenario: hops sweep runs at uc = u0, so u0 must be in [0, 0.5)")
      | "hops" ->
        Ok ("h", List.map (fun h -> (h, h, u0)) [ 1; 2; 3; 4; 5; 6; 8; 10; 15; 20; 25; 30 ])
      | other -> usage "unknown sweep dimension %S (utilization|hops)" other
    in
    Fmt.pr "# %s sweep, u0=%g, eps=%g@." dimension u0 epsilon;
    Fmt.pr "%s,bmux,fifo,edf@." column;
    (* Rows fan out on the default pool (one task per sweep point, each
       computing all three schedulers); printing stays on the main domain,
       in input order, so the CSV is identical at every --jobs. *)
    Parallel.Default.map_list
      (fun (label, h, uc) ->
        if uc < 0. || u0 +. uc >= 1. then (label, None)
        else
          let sc =
            { (Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc) with Scenario.epsilon }
          in
          let cell scheduler =
            let o = Scenario.bound_checked ~s_points ~scheduler sc in
            Printf.sprintf "%.4f%s" o.Diag.value (Diag.note o.Diag.diag)
          in
          let edf = Kind.Edf { cross_over_through = edf_ratio } in
          (label, Some (List.map cell [ Kind.Bmux; Kind.Fifo; edf ])))
      points
    |> List.iter (function
         | (label, None) -> Fmt.epr "# skipping u=%d%% (infeasible with u0=%g)@." label u0
         | (label, Some cells) -> Fmt.pr "%d,%s@." label (String.concat "," cells));
    Ok ()
  in
  let dim_arg =
    Arg.(
      value
      & pos 0 string "utilization"
      & info [] ~docv:"DIM" ~doc:"Sweep dimension: utilization or hops.")
  in
  cmd "sweep" ~doc:"CSV sweep of the delay bound over utilization or path length."
    Term.(
      const run $ hops_arg $ u0_arg $ epsilon_arg $ s_points_arg $ edf_ratio_arg $ dim_arg
      $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- simulate ---------------- *)

(* The paper's Example-1 tandem, checked before anything runs it *)
let tandem_config ?(through = Tandem.Markov) ~h ~u0 ~uc ~slots ~sched ~faults ~seed () =
  let cfg =
    { (Tandem.of_utilization ~faults ~h ~u_through:u0 ~u_cross:uc ~slots ~scheduler:sched
         ~seed ())
      with Tandem.through_kind = through }
  in
  Result.map (fun () -> cfg) (Tandem.check cfg)
  |> Result.map_error (fun m -> Usage (Fmt.str "deltanet: %s" m))

let slots_arg =
  Arg.(value & opt int 100_000 & info [ "slots" ] ~docv:"N" ~doc:"Arrival horizon (1 ms slots).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let engine_arg =
  Arg.(
    value
    & opt
        (conv_of Tandem.engine_of_string (Fmt.of_to_string Tandem.engine_to_string))
        Tandem.Slotted
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: $(b,slotted) (the reference time-stepped loop) or \
           $(b,event) (heap-based event engine — bit-identical results, and much \
           faster when traffic is sparse).")

let cbr_arg =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (Fmt.str "expected PERIOD:BURST, got %S" s)
    | Some i -> (
      let period = String.sub s 0 i in
      let burst = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt period, float_of_string_opt burst) with
      | (Some period, Some burst) when period >= 1 && burst > 0. && Float.is_finite burst ->
        Ok (Tandem.Cbr { period; burst })
      | _ -> Error (Fmt.str "bad CBR spec %S (need PERIOD >= 1, BURST > 0)" s))
  in
  let print ppf = function
    | Tandem.Cbr { period; burst } -> Fmt.pf ppf "%d:%g" period burst
    | Tandem.Markov -> Fmt.string ppf "markov"
  in
  Arg.(
    value
    & opt (some (conv_of parse print)) None
    & info [ "cbr" ] ~docv:"PERIOD:BURST"
        ~doc:
          "Replace the Markov through aggregate with a deterministic source: \
           $(i,BURST) kb every $(i,PERIOD) slots.  Engine-independent by \
           construction, and sparse traffic is where $(b,--engine event) wins \
           (the Markov sources step their chains every slot).")

let simulate_cmd =
  let run h u0 uc slots seed sched faults engine through metrics trace =
    with_telemetry "simulate" metrics trace @@ fun () ->
    let* cfg =
      tandem_config ?through ~h ~u0 ~uc ~slots ~sched ~faults ~seed:(Int64.of_int seed) ()
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
        pps wall);
    Ok ()
  in
  cmd "simulate"
    ~doc:
      "Packet-level tandem simulation with empirical delay quantiles; use --faults \
       to degrade link capacities and compare against leftover-service bounds."
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ slots_arg $ seed_arg $ sched_term edf_ratio_arg
      $ faults_arg $ engine_arg $ cbr_arg $ metrics_arg $ trace_arg)

(* ---------------- replicate ---------------- *)

let replicate_cmd =
  let run h u0 uc slots seed sched faults engine runs q retries max_wall resume jobs
      metrics trace =
    setup_jobs jobs;
    with_telemetry "replicate" metrics trace @@ fun () ->
    (* checked here: Replicate turns a late exception into failed runs *)
    let* cfg = tandem_config ~h ~u0 ~uc ~slots ~sched ~faults ~seed:0L () in
    let experiment ~seed = (Tandem.run ~engine { cfg with Tandem.seed }).Tandem.delays in
    match
      Replicate.quantile_ci ~max_retries:retries ?max_wall ?checkpoint:resume ~runs
        ~base_seed:(Int64.of_int seed) ~q experiment
    with
    | exception Failure msg -> Error (Runtime (Fmt.str "replication sweep failed: %s" msg))
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
      if s.Replicate.completed < s.Replicate.requested then
        Error
          (Runtime
             (Fmt.str "warning: partial results — CI covers %d of %d replications"
                s.Replicate.completed s.Replicate.requested))
      else Ok ()
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
  cmd "replicate"
    ~doc:
      "Independent tandem-simulation replications with a Student-t confidence \
       interval on a delay quantile.  Failed replications are retried under fresh \
       derived seeds; --max-wall abandons slow ones; --resume checkpoints completed \
       runs and restarts a killed sweep where it stopped.  Exits 1 on partial \
       results."
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ slots_arg $ seed_arg $ sched_term edf_ratio_arg
      $ faults_arg $ engine_arg $ runs_arg $ q_arg $ retries_arg $ max_wall_arg $ resume_arg
      $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- schedulability ---------------- *)

let schedulability_cmd =
  let run capacity flows metrics trace =
    with_telemetry "schedulability" metrics trace @@ fun () ->
    if flows = [] then usage "no flows given"
    else
      let d = Deltanet.Schedulability.min_delay ~capacity flows in
      if Float.is_finite d then Ok (Fmt.pr "minimum guaranteeable delay: %.6f ms@." d)
      else Error (Runtime "overloaded: no finite worst-case delay")
  in
  let capacity_arg =
    Arg.(value & opt float 100. & info [ "C"; "capacity" ] ~docv:"C" ~doc:"Link capacity (kb/ms).")
  in
  let flows_arg =
    let print ppf f =
      Fmt.pf ppf "%a:%a" Minplus.Curve.pp f.Deltanet.Schedulability.envelope Scheduler.Delta.pp
        f.Deltanet.Schedulability.delta
    in
    Arg.(
      value
      & pos_all (conv_of Deltanet.Schedulability.flow_of_string print) []
      & info [] ~docv:"FLOW"
          ~doc:
            "Leaky-bucket flows RATE:BURST[:DELTA].  The first flow is the tagged one \
             (delta 0); DELTA is the precedence constant of the others (number, inf, \
             -inf).")
  in
  cmd "schedulability" ~doc:"Deterministic single-node minimum delay via Theorem 2 (Eq. 24)."
    Term.(const run $ capacity_arg $ flows_arg $ metrics_arg $ trace_arg)

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
    List.iter
      (fun scheduler ->
        Fmt.pr "  %-8s %6.2f%%@." (Scheduler.Kind.label scheduler)
          (100. *. Deltanet.Admission.max_cross_utilization request ~scheduler))
      Scheduler.Kind.[ Bmux; Fifo; Edf { cross_over_through = edf_ratio }; Sp ];
    Ok ()
  in
  let deadline_arg =
    Arg.(
      value
      & opt float 50.
      & info [ "d"; "deadline" ] ~docv:"MS" ~doc:"End-to-end delay budget (ms).")
  in
  cmd "admission"
    ~doc:"Largest admissible cross load under an end-to-end delay guarantee, per scheduler."
    Term.(
      const run $ hops_arg $ u0_arg $ epsilon_arg $ deadline_arg $ edf_ratio_arg
      $ metrics_arg $ trace_arg)

(* ---------------- scaling ---------------- *)

let scaling_cmd =
  let run u0 epsilon sim_slots engine jobs metrics trace =
    setup_jobs jobs;
    with_telemetry "scaling" metrics trace @@ fun () ->
    let sc =
      { (Scenario.of_utilization ~h:2 ~u_through:u0 ~u_cross:u0) with Scenario.epsilon }
    in
    let pr_growth ?(tail = "") name (points, e) =
      Fmt.pr "%-22s exponent %.3f  (" name e;
      List.iter (fun (h, d) -> Fmt.pr " H=%.0f:%.1f" h d) points;
      Fmt.pr " )%s@." tail
    in
    Fmt.pr "# growth of the e2e bound in the path length (U0 = Uc = %g)@." u0;
    pr_growth "FIFO (network curve)"
      (Deltanet.Scaling.delay_growth ~scheduler:Scheduler.Classes.Fifo sc);
    pr_growth "BMUX (network curve)"
      (Deltanet.Scaling.delay_growth ~scheduler:Scheduler.Classes.Bmux sc);
    pr_growth "BMUX (additive)" (Deltanet.Scaling.additive_growth sc);
    if sim_slots > 0 then begin
      (* Empirical overlay: simulated q0.99 delays at the same H points,
         fitted with the same log-log regression.  The simulated exponent
         sits below the analytic one (a sample quantile vs a tail bound)
         but should stay near-linear in H. *)
      let points = Tandem.q99_growth ~engine ~u:u0 ~slots:sim_slots () in
      pr_growth "FIFO (simulated q99)"
        ~tail:(Fmt.str "  [engine %s, %d slots]" (Tandem.engine_to_string engine) sim_slots)
        (points, Deltanet.Scaling.growth_exponent points)
    end;
    Fmt.pr "# Θ(H log H) appears as an exponent slightly above 1;@.";
    Fmt.pr "# the additive baseline's exponent is >= 2.@.";
    Ok ()
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
  cmd "scaling" ~doc:"Empirical growth exponents of the delay bounds in the path length."
    Term.(
      const run $ u0_arg $ epsilon_arg $ sim_slots_arg $ engine_arg $ jobs_arg
      $ metrics_arg $ trace_arg)

(* ---------------- check ---------------- *)

module Contracts = Deltanet.Contracts

let check_cmd =
  let matrices_arg =
    let print ppf m =
      let pp_row ppf row = Fmt.pf ppf "%a" (Fmt.array ~sep:Fmt.comma Scheduler.Delta.pp) row in
      Fmt.pf ppf "%a" Fmt.(array ~sep:semi pp_row) m
    in
    Arg.(
      value
      & opt_all (conv_of Scheduler.Delta.matrix_of_string print) []
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
      & opt_all (conv_of Minplus.Curve.of_string Minplus.Curve.pp) []
      & info [ "envelope" ] ~docv:"PIECES"
          ~doc:
            "Check a piecewise-linear traffic envelope given as comma-separated \
             X:Y:R pieces (value Y + R(t - X) from abscissa X) against the \
             Theorem-2 contracts: concavity and non-negativity.  Repeatable.")
  in
  let run h u0 uc matrices envelopes metrics trace =
    with_telemetry "check" metrics trace @@ fun () ->
    (* bad arguments are a usage error; an unstable load is a finding *)
    let* () =
      match Scenario.of_loads ~h ~u_through:u0 ~u_cross:uc with
      | Error (`Invalid m) -> Error (Usage m)
      | Ok _ | Error (`Unstable _) -> Ok ()
    in
    let p = Contracts.preflight ~capacity:100. ~offered:((u0 +. uc) *. 100.) ~matrices ~envelopes in
    List.iter
      (fun (label, f) -> Fmt.pr "%s %a@." label Contracts.pp_finding f)
      p.Contracts.findings;
    if p.Contracts.findings = [] then
      Fmt.pr "ok: %d contract check(s), no finding@." p.Contracts.checks
    else Fmt.pr "%d finding(s)@." (List.length p.Contracts.findings);
    of_diag (Contracts.diag_of (List.map snd p.Contracts.findings))
  in
  cmd "check"
    ~doc:
      "Validate domain contracts before spending compute: ∆ matrix \
       well-formedness (Section III), Theorem-2 envelope concavity, and \
       stability of the offered load.  Exits 0 when every contract holds and 1 \
       with one line per typed finding otherwise.  Meant as a pre-flight gate \
       for sweeps: $(b,deltanet check && deltanet sweep ...)."
    Term.(
      const run $ hops_arg $ u0_arg $ uc_arg $ matrices_arg $ envelopes_arg $ metrics_arg
      $ trace_arg)

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
            "Bounded LRU capacity for path-shape entries (memoized bounds) — the \
             daemon's memory bound under shape churn.")
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
    Ok
      (Serve.Daemon.run ~stop ~snapshot
         { Serve.Daemon.engine; batch; prom; prom_interval }
         Unix.stdin stdout)
  in
  cmd "serve"
    ~doc:
      "Long-running admission-control daemon: one JSON request per line on stdin \
       (ops admit/check/stats/health), one JSON response per line on stdout.  \
       Repeat path shapes hit a bounded LRU of memoized bounds; overload is \
       shed with retry-after hints or degraded to the same search on a coarser \
       s-grid (responses tagged exact/approx); SIGTERM/SIGINT drain and exit 0.  For per-outcome latency percentiles, run with $(b,--batch 1 --metrics) \
       FILE and read FILE with $(b,deltanet report)."
    Term.(
      const run $ budget_arg $ queue_arg $ cache_arg $ batch_arg $ prom_arg
      $ prom_interval_arg $ jobs_arg $ metrics_arg $ trace_arg)

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
             cache.")
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
  let run requests shapes malformed seed deadline_ms scheduler =
    Ok
      (Serve.Loadgen.iter
         { Serve.Loadgen.requests; shapes; malformed; seed; deadline_ms; scheduler }
         print_endline)
  in
  cmd "loadgen"
    ~doc:
      "Emit a deterministic stream of serve-protocol request lines (optionally \
       salted with malformed input) on stdout, for piping into $(b,deltanet \
       serve) — the CI smoke test and the bench load generator."
    Term.(
      const run $ requests_arg $ shapes_arg $ malformed_arg $ seed_arg $ deadline_arg
      $ sched_term (Term.const 10.))

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
    if top < 1 then usage "invalid --top %d (need >= 1)" top
    else
      let t = Report.create () in
      match List.iter (Report.add_file t) files with
      | exception Sys_error msg -> Error (Runtime (Fmt.str "report: %s" msg))
      | () ->
        Ok (print_string (if json then Report.render_json ~top t else Report.render_text ~top t))
  in
  cmd "report"
    ~doc:
      "Offline analyzer for $(b,--metrics) telemetry files: aggregated span \
       trees with exact p50/p95/p99 per span name, counter rates, top-N hot \
       spans by self time, and — when the trace comes from $(b,deltanet serve) \
       — per-outcome request-latency percentiles and shed/timeout/error rates."
    Term.(const run $ files_arg $ json_arg $ top_arg)

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
    (match Cmd.eval' ~catch:false cmd with
    | code -> code
    | exception Invalid_argument msg -> exit_code (usage "deltanet: %s" msg)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Fmt.epr "deltanet: internal error, uncaught exception:@.%s@." (Printexc.to_string e);
      Printexc.print_raw_backtrace stderr bt;
      Cmd.Exit.internal_error)
