(* The repository's benchmark: three workloads driven in one process at
   jobs = 1 through the library's public functions.

     dune exec --root . perfbench/main.exe -- \
       --workload figures|serve|simulate --seed N --seconds S --trace 0|1

   [--trace 0] times the workload with telemetry off and prints the
   end-to-end metrics; [--trace 1] prints the per-layer ledger (see
   perfbench/NOTES.md).  Human-readable detail goes to stderr; the last
   line of stdout is one JSON object {correct, attempted, failed,
   metrics}.  Each workload does a fixed amount of work set by --seconds
   (never by how fast the clock ticked) and verifies it, outside the
   timed phase, against committed or independently computed results. *)

open Perfbench

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      (exit [@lint.allow "raw-exit"]) 2)
    fmt

(* ---------------- metric names ---------------- *)

let per_layer =
  [
    ("scenario.edf.ms", "ms");
    ("scenario.edf.iterations", "count");
    ("scenario.delay.ms", "ms");
    ("scenario.s_grid.calls", "count");
    ("scenario.s_grid.evals", "count");
    ("e2e.gamma.evals", "count");
    ("e2e.eq38.objective_evals", "count");
    ("e2e.gamma_search.self_ms", "ms");
    ("e2e.eq38.ns_per_eval", "ns");
    ("additive.ms", "ms");
    ("additive.node_steps", "count");
    ("figures.residual.ms", "ms");
    ("figures.telemetry.overhead_pct", "%");
    ("serve.hit.us", "us");
    ("serve.protocol.parse_us", "us");
    ("serve.protocol.render_us", "us");
    ("gc.minor_words_per_hit", "words");
    ("serve.miss.ms", "ms");
    ("admission.decide.ms", "ms");
    ("e2e.eq38.objective_evals_per_miss", "count");
    ("serve.cache.hits", "count");
    ("serve.cache.misses", "count");
    ("serve.cache.evictions", "count");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.degraded", "count");
    ("serve.shed", "count");
    ("serve.timeout", "count");
    ("serve.errors", "count");
    ("serve.residual.ms", "ms");
    ("serve.telemetry.overhead_pct", "%");
    ("netsim.tandem.ms", "ms");
    ("netsim.tandem.slots", "count");
    ("netsim.node.offers", "count");
    ("netsim.node.packets", "count");
    ("gc.minor_words_per_slot", "words");
    ("netsim.source.ns_per_step", "ns");
    ("desim.stats.quantile_ms", "ms");
    ("replicate.overhead_ms", "ms");
    ("netsim.event.ms", "ms");
    ("netsim.desim.events", "count");
    ("netsim.desim.heap_hwm", "count");
    ("simulate.residual.ms", "ms");
    ("simulate.telemetry.overhead_pct", "%");
    ("gc.major_collections", "count");
  ]

(* ---------------- shared measurement ---------------- *)

type e2e = {
  setup_s : float array;  (** normalized, one per repetition *)
  setup_raw : float array;
  wall_s : float;  (** normalized *)
  wall_raw : float;
  ops_ms : float array;  (** normalized per-operation latency *)
  ops_raw : float array;
  host_index : float;  (** nominal over the run's median reference slice *)
  peak_rss_mb : float;  (** at the end of the timed phase, before the checks *)
  attempted : int;
  failed : int;
  problems : string list;
}

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let e2e_metrics r =
  let ops = sorted r.ops_ms and raw = sorted r.ops_raw in
  let tail, problems =
    match (Check.tail ops, Check.tail raw) with
    | Some t, Some u ->
      Printf.eprintf "tail: p%d over %d operations (%d beyond it)\n" t.Check.pct
        (Array.length ops) t.Check.beyond;
      Printf.eprintf "raw (not host-normalized): setup_s %.6g wall_s %.6g p50_ms %.6g tail_ms %.6g; host index %.4f\n"
        (Check.median (sorted r.setup_raw)) r.wall_raw (Check.median raw) u.Check.value
        r.host_index;
      (t.Check.value, [])
    | _ -> (ops.(Array.length ops - 1), [ "too few operations for a tail percentile" ])
  in
  ( [
      Ledger.m "wall_s" "s" r.wall_s;
      Ledger.m "p50_ms" "ms" (Check.median ops);
      Ledger.m "tail_ms" "ms" tail;
      Ledger.m "peak_rss_mb" "MB" r.peak_rss_mb;
      Ledger.m "setup_s" "s" (Check.median (sorted r.setup_s));
    ],
    problems )

(* What a user pays before the first timed operation.  One sample times
   [batch] back-to-back set-ups (so a microsecond set-up is timed over a
   millisecond) with a reference slice around it; [reps] samples give the
   median.  The heap is compacted after each sample, outside its timing,
   so the discarded repetitions neither inflate the peak RSS nor leave
   collection work for the timed phase.  Returns the last set-up's result
   with the per-set-up seconds of each sample, normalized and raw. *)
let setups ~reps ~batch f =
  let tl = Ledger.timeline ~blocks:reps in
  Ledger.cut tl;
  let raw = Array.make reps 0. and blocks = Array.make reps 0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    let t0 = Ledger.now () in
    for _ = 1 to batch do
      last := Some (f ())
    done;
    raw.(i) <- Ledger.s_since t0 /. float_of_int batch;
    blocks.(i) <- Ledger.block tl;
    Ledger.cut tl;
    Gc.compact ()
  done;
  (Option.get !last, Ledger.normalize tl raw blocks, raw)

(* Program telemetry on, events streamed to a JSON-lines file inside the
   checkout and aggregated by the repository's own trace reader. *)
let trace_dir = ".perfbench"

type program_trace = {
  counters : (string * int) list;
  gauges : (string * float * float) list;
  spans : Report.span_stat list;
}

let with_program_trace f =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%d.jsonl" (Unix.getpid ())) in
  let oc = open_out_bin path in
  Telemetry.reset ();
  Telemetry.configure ~sink:(Telemetry.Sink.jsonl oc) ~ring_capacity:(1 lsl 18) ();
  let r = f () in
  let snap = Telemetry.snapshot () in
  Telemetry.shutdown ();
  close_out oc;
  let rep = Report.create () in
  Report.add_file rep path;
  Sys.remove path;
  (try Unix.rmdir trace_dir with Unix.Unix_error _ -> ());
  ( r,
    {
      counters = snap.Telemetry.counters;
      gauges = snap.Telemetry.gauges;
      spans = Report.by_name rep;
    } )

let counter t name = float_of_int (Option.value (List.assoc_opt name t.counters) ~default:0)

let gauge_max t name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) t.gauges with
  | Some (_, _, mx) when Float.is_finite mx -> mx
  | _ -> 0.

let span_stat t name = List.find_opt (fun s -> String.equal s.Report.s_name name) t.spans

let span_calls t name =
  match span_stat t name with Some s -> float_of_int s.Report.s_calls | None -> 0.

let span_self_ms t name = match span_stat t name with Some s -> s.Report.s_self_ms | None -> 0.

let overhead_pct ~untraced ~traced = 100. *. (traced -. untraced) /. untraced
let div a b = if Float.equal b 0. then 0. else a /. b

let sum_where pred a =
  let s = ref 0. in
  Array.iteri (fun i x -> if pred i then s := !s +. x) a;
  !s

(* The Scenario/E2e counters and spans any bound computation leaves
   behind.  Span times are the traced pass's wall clock scaled by that
   pass's host index [host]. *)
let bound_layers t ~host =
  let self_ms = span_self_ms t "e2e.gamma_search" *. host in
  [
    ("scenario.s_grid.calls", span_calls t "scenario.s_grid");
    ("scenario.s_grid.evals", counter t "scenario.s_grid.evals");
    ("scenario.edf.iterations", counter t "scenario.edf.iterations");
    ("e2e.gamma.evals", counter t "e2e.gamma.evals");
    ("e2e.eq38.objective_evals", counter t "e2e.eq38.objective_evals");
    ("e2e.gamma_search.self_ms", self_ms);
    ("e2e.eq38.ns_per_eval", div (self_ms *. 1e6) (counter t "e2e.eq38.objective_evals"));
  ]

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* ---------------- figures ---------------- *)

(* One pass over the 345 cells takes ~12 s on the reference host. *)
let figures_passes ~seconds = Stdlib.max 1 (seconds / 12)

let setup_reps = 21

(* [passes] passes over every cell on a fresh timeline. *)
let figures_run ?between ~passes figs =
  let tl = Ledger.timeline ~blocks:(passes * Figures.cells_per_pass figs) in
  Ledger.cut tl;
  let ps = List.init passes (fun _ -> Figures.run_pass ?between tl figs) in
  let cat f = Array.concat (List.map f ps) in
  ( tl,
    ps,
    cat (fun p -> p.Figures.ms),
    cat (fun p -> p.Figures.blocks),
    cat (fun p -> p.Figures.layers) )

let figures_problems figs passes =
  List.concat_map (fun p -> Figures.golden figs p.Figures.values) passes
  @ Check.fingerprint
      [
        ( "cells",
          Figures.expected_cells * List.length passes,
          List.fold_left (fun n p -> n + Array.length p.Figures.ms) 0 passes );
        ( "edf_iterations",
          Figures.expected_iterations * List.length passes,
          List.fold_left (fun n p -> n + p.Figures.iterations) 0 passes );
      ]

let figures_e2e ~seconds =
  let figs, setup_s, setup_raw = setups ~reps:setup_reps ~batch:200 Figures.figs in
  let tl, passes, ms, blocks, _ = figures_run ~passes:(figures_passes ~seconds) figs in
  let peak_rss_mb = Ledger.peak_rss_mb () in
  let problems = figures_problems figs passes in
  {
    setup_s;
    setup_raw;
    wall_s = Ledger.wall tl;
    wall_raw = Ledger.wall_raw tl;
    ops_ms = Ledger.normalize tl ms blocks;
    ops_raw = ms;
    host_index = Ledger.host_index tl;
    peak_rss_mb;
    attempted = Array.length ms;
    failed = Stdlib.min (Array.length ms) (List.length problems);
    problems;
  }

let figures_ledger ~seconds =
  let figs = Figures.figs () in
  let passes = figures_passes ~seconds in
  let (tl, ps, ms, blocks, layers), majors = gc_delta (fun () -> figures_run ~passes figs) in
  let norm = Ledger.normalize tl ms blocks in
  let layer_ms l = sum_where (fun i -> layers.(i) = l) norm in
  let edf = layer_ms Figures.Edf_fixed_point
  and delay = layer_ms Figures.Delay
  and add = layer_ms Figures.Additive_bound in
  let wall_u = Ledger.wall tl in
  let (tl_t, ps_t, _, _, _), t =
    with_program_trace (fun () -> figures_run ~between:Telemetry.flush ~passes figs)
  in
  ( [
      ("scenario.edf.ms", edf);
      ("scenario.delay.ms", delay);
      ("additive.ms", add);
      ("additive.node_steps", counter t "additive.node_steps");
      ("figures.residual.ms", (wall_u *. 1e3) -. edf -. delay -. add);
      ("figures.telemetry.overhead_pct", overhead_pct ~untraced:wall_u ~traced:(Ledger.wall tl_t));
      ("gc.major_collections", majors);
    ]
    @ bound_layers t ~host:(Ledger.host_index tl_t),
    Array.length ms,
    figures_problems figs ps @ figures_problems figs ps_t )

(* ---------------- serve ---------------- *)

(* ~16k requests per second on the reference host: 49 memoized hits of
   ~12 us for each ~3 ms miss. *)
let serve_requests ~seconds = seconds * 16_000

let serve_setup_reps = 5

let serve_setup inp = setups ~reps:serve_setup_reps ~batch:1 (fun () -> Serve_load.setup inp)

let serve_phase ?between (eng, warm) inp ~requests =
  let tl = Ledger.timeline ~blocks:(Serve_load.blocks ~requests) in
  Ledger.cut tl;
  let p, sample = Serve_load.run_phase ?between tl eng warm inp ~requests in
  (tl, p, sample)

(* Returns the failure messages and the failed-operation count. *)
let serve_check inp (p : Serve_load.phase) sample ~requests =
  let bad, decide_ms = Ledger.probe (fun () -> Serve_load.verify_cold inp sample) in
  let expected_cold = requests / Serve_load.cold_every in
  let fp =
    Check.fingerprint
      [
        ("requests", requests, p.Serve_load.stats_served);
        ("cache_hits", requests - expected_cold, p.Serve_load.stats_hits);
        ("cache_misses", expected_cold, p.Serve_load.stats_misses);
      ]
  in
  (p.Serve_load.problems @ bad @ fp, p.Serve_load.failed + List.length bad + List.length fp, decide_ms)

let serve_e2e ~seed ~seconds =
  let requests = serve_requests ~seconds in
  let inp = Serve_load.inputs ~seed ~requests in
  let engine, setup_s, setup_raw = serve_setup inp in
  let tl, p, sample = serve_phase engine inp ~requests in
  let peak_rss_mb = Ledger.peak_rss_mb () in
  let problems, failed, _ = serve_check inp p sample ~requests in
  let ops = Ledger.normalize tl p.Serve_load.ms (Array.init requests Serve_load.block_of) in
  {
    setup_s;
    setup_raw;
    wall_s = Array.fold_left ( +. ) 0. ops /. 1e3;
    wall_raw = Array.fold_left ( +. ) 0. p.Serve_load.ms /. 1e3;
    ops_ms = ops;
    ops_raw = p.Serve_load.ms;
    host_index = Ledger.host_index tl;
    peak_rss_mb;
    attempted = requests;
    failed = Stdlib.min requests failed;
    problems;
  }

(* Per-call costs of the protocol layer on the workload's own hot lines. *)
let protocol_probe inp warm =
  let reps = 100 in
  let lines = inp.Serve_load.hot_lines in
  let (), parse_ms =
    Ledger.probe (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun l -> ignore (Sys.opaque_identity (Serve.Protocol.parse ~debug_ops:false l)))
            lines
        done)
  in
  let decisions = Array.to_list warm |> List.filter_map Result.to_option |> Array.of_list in
  let (), render_ms =
    Ledger.probe (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun d ->
              ignore
                (Sys.opaque_identity
                   (Serve.Protocol.render_admit ~trace:"00000000-000001" ~admitted:d.Check.admitted
                      ~bound_ms:d.Check.bound ~deadline_ms:100. ~mode:Serve.Protocol.Exact
                      ~cache_hit:true ~elapsed_ms:0.013 ())))
            decisions
        done)
  in
  ( parse_ms *. 1e3 /. float_of_int (reps * Array.length lines),
    render_ms *. 1e3 /. float_of_int (reps * Stdlib.max 1 (Array.length decisions)) )

let serve_ledger ~seed ~seconds =
  let requests = serve_requests ~seconds in
  let inp = Serve_load.inputs ~seed ~requests in
  let ((_, warm) as engine), _, _ = serve_setup inp in
  let (tl, p, sample), majors = gc_delta (fun () -> serve_phase engine inp ~requests) in
  let problems, _, decide_ms = serve_check inp p sample ~requests in
  let ops = Ledger.normalize tl p.Serve_load.ms (Array.init requests Serve_load.block_of) in
  let miss_ms = sum_where Serve_load.is_cold ops in
  let hit_ms = sum_where (fun i -> not (Serve_load.is_cold i)) ops in
  let wall_u = Array.fold_left ( +. ) 0. ops in
  let engine, _, _ = serve_setup inp in
  let (tl_t, q, _), t =
    with_program_trace (fun () -> serve_phase ~between:Telemetry.flush engine inp ~requests)
  in
  let wall_t =
    Array.fold_left ( +. ) 0. (Ledger.normalize tl_t q.Serve_load.ms (Array.init requests Serve_load.block_of))
  in
  let parse_us, render_us = protocol_probe inp warm in
  let hits = counter t "serve.cache.hits" and misses = counter t "serve.cache.misses" in
  let n_hits = float_of_int p.Serve_load.hits and n_misses = float_of_int p.Serve_load.misses in
  ( [
      ("serve.hit.us", div (hit_ms *. 1e3) n_hits);
      ("serve.protocol.parse_us", parse_us);
      ("serve.protocol.render_us", render_us);
      ("gc.minor_words_per_hit", div p.Serve_load.hit_minor_words n_hits);
      ("serve.miss.ms", div miss_ms n_misses);
      ("admission.decide.ms", div decide_ms (float_of_int (List.length sample)));
      ( "e2e.eq38.objective_evals_per_miss",
        div (counter t "e2e.eq38.objective_evals") (float_of_int q.Serve_load.misses) );
      ("serve.cache.hits", hits);
      ("serve.cache.misses", misses);
      ("serve.cache.evictions", counter t "serve.cache.evictions");
      ("serve.cache.hit_ratio", div hits (hits +. misses));
      ("serve.degraded", counter t "serve.degraded");
      ("serve.shed", counter t "serve.shed");
      ("serve.timeout", counter t "serve.timeout");
      ("serve.errors", counter t "serve.errors");
      ("serve.residual.ms", wall_u -. hit_ms -. miss_ms);
      ("serve.telemetry.overhead_pct", overhead_pct ~untraced:wall_u ~traced:wall_t);
      ("gc.major_collections", majors);
    ]
    @ bound_layers t ~host:(Ledger.host_index tl_t),
    requests,
    problems @ q.Serve_load.problems )

(* ---------------- simulate ---------------- *)

(* ~8 replications per second on the reference host (H = 10, 11k slots
   each); never fewer than 100, so the tail percentile exists. *)
let simulate_runs ~seconds = Stdlib.max 100 (seconds * 8)

let simulate_setup () = setups ~reps:setup_reps ~batch:100_000 Simulate.config

let simulate_phase ?between cfg ~seed ~runs =
  let tl = Ledger.timeline ~blocks:(Simulate.blocks ~runs) in
  Ledger.cut tl;
  (tl, Simulate.run_phase ?between tl cfg ~seed ~runs)

let simulate_check (p : Simulate.phase) ~runs =
  let parity, event_ms = Ledger.probe (fun () -> Simulate.parity p) in
  let over = Simulate.over_bound p in
  let s = p.Simulate.summary in
  let fp =
    Check.fingerprint
      [
        ("replications", runs, s.Netsim.Replicate.completed);
        ("replication_slots", runs * Simulate.slots, p.Simulate.slots_seen);
      ]
  in
  let failures =
    List.map
      (fun f ->
        Printf.sprintf "replication %d failed: %s" f.Netsim.Replicate.index f.Netsim.Replicate.reason)
      s.Netsim.Replicate.failures
  in
  ( parity @ over @ failures @ fp,
    List.length parity + List.length over + List.length failures + List.length fp,
    event_ms )

let simulate_e2e ~seed ~seconds =
  let runs = simulate_runs ~seconds in
  let cfg, setup_s, setup_raw = simulate_setup () in
  let tl, p = simulate_phase cfg ~seed ~runs in
  let peak_rss_mb = Ledger.peak_rss_mb () in
  let problems, failed, _ = simulate_check p ~runs in
  let raw = Array.sub tl.Ledger.elapsed 0 runs in
  {
    setup_s;
    setup_raw;
    wall_s = Ledger.wall tl;
    wall_raw = Ledger.wall_raw tl;
    ops_ms = Ledger.normalize tl raw (Array.init runs Fun.id);
    ops_raw = raw;
    host_index = Ledger.host_index tl;
    peak_rss_mb;
    attempted = runs;
    failed = Stdlib.min runs failed;
    problems;
  }

(* Source.step at the workload's own flow counts: one through and one
   cross aggregate stepped alternately. *)
let source_probe () =
  let cfg = Simulate.config () in
  let rng = Desim.Prng.create ~seed:1L in
  let mk n = Netsim.Source.create cfg.Netsim.Tandem.source ~n ~rng:(Desim.Prng.split rng) in
  let a = mk cfg.Netsim.Tandem.n_through and b = mk cfg.Netsim.Tandem.n_cross in
  let steps = 1_000_000 in
  let acc, ms =
    Ledger.probe (fun () ->
        let acc = ref 0. in
        for _ = 1 to steps / 2 do
          acc := !acc +. Netsim.Source.step a +. Netsim.Source.step b
        done;
        !acc)
  in
  ignore (Sys.opaque_identity acc);
  ms *. 1e6 /. float_of_int steps

let simulate_ledger ~seed ~seconds =
  let runs = simulate_runs ~seconds in
  let cfg = Simulate.config () in
  let (tl, p), majors = gc_delta (fun () -> simulate_phase cfg ~seed ~runs) in
  let problems, _, event_ms = simulate_check p ~runs in
  let norm a = Array.fold_left ( +. ) 0. (Ledger.normalize tl a (Array.init runs Fun.id)) in
  let tandem = norm p.Simulate.tandem_ms
  and quantile = norm p.Simulate.quantile_ms
  and closure = norm p.Simulate.closure_ms in
  let wall_u = Ledger.wall tl in
  let tl_t, t =
    with_program_trace (fun () ->
        let tl_t, q = simulate_phase ~between:Telemetry.flush cfg ~seed ~runs in
        (* the event engine on the parity seeds, for its own counters *)
        List.iter
          (fun s ->
            ignore (Netsim.Tandem.run ~engine:Netsim.Tandem.Event { cfg with Netsim.Tandem.seed = s }))
          q.Simulate.seeds;
        tl_t)
  in
  let slots = counter t "netsim.tandem.slots" in
  ( [
      ("netsim.tandem.ms", tandem);
      ("netsim.tandem.slots", slots);
      ("netsim.node.offers", counter t "netsim.node.offers");
      ("netsim.node.packets", counter t "netsim.node.packets");
      ("gc.minor_words_per_slot", div p.Simulate.minor_words slots);
      ("netsim.source.ns_per_step", source_probe ());
      ("desim.stats.quantile_ms", quantile);
      ("replicate.overhead_ms", (wall_u *. 1e3) -. closure);
      ("netsim.event.ms", div event_ms (float_of_int (List.length p.Simulate.seeds)));
      ("netsim.desim.events", counter t "netsim.desim.events");
      ("netsim.desim.heap_hwm", gauge_max t "netsim.desim.heap_hwm");
      ("simulate.residual.ms", closure -. tandem -. quantile);
      ("simulate.telemetry.overhead_pct", overhead_pct ~untraced:wall_u ~traced:(Ledger.wall tl_t));
      ("gc.major_collections", majors);
    ],
    runs,
    problems )

(* ---------------- driver ---------------- *)

let settings () =
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 9 && String.equal (String.sub kv 0 9) "DELTANET_")
  in
  Printf.eprintf "settings: jobs=%d ocaml=%s cores=%d clock=CLOCK_MONOTONIC env=[%s]\n"
    (Parallel.Default.jobs ()) Sys.ocaml_version (Domain.recommended_domain_count ())
    (String.concat " " env)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "figures|serve|simulate");
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  run length the work is sized for (1..600)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics or the per-layer ledger");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) usage;
  if !seed < 0 then die "--seed must be given and >= 0";
  if !seconds < 1 || !seconds > 600 then die "--seconds must be in 1..600";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  Parallel.Default.set_jobs 1;
  settings ();
  let seed = !seed and seconds = !seconds in
  let result =
    if !trace = 0 then begin
      let r =
        match !workload with
        | "figures" -> figures_e2e ~seconds
        | "serve" -> serve_e2e ~seed ~seconds
        | "simulate" -> simulate_e2e ~seed ~seconds
        | w -> die "unknown workload %S (figures|serve|simulate)" w
      in
      let metrics, extra = e2e_metrics r in
      let problems = r.problems @ extra in
      {
        Ledger.correct = problems = [];
        attempted = r.attempted;
        failed = (if extra = [] then r.failed else Stdlib.max 1 r.failed);
        metrics;
        problems;
      }
    end
    else begin
      let layers, attempted, problems =
        match !workload with
        | "figures" -> figures_ledger ~seconds
        | "serve" -> serve_ledger ~seed ~seconds
        | "simulate" -> simulate_ledger ~seed ~seconds
        | w -> die "unknown workload %S (figures|serve|simulate)" w
      in
      List.iter
        (fun (n, _) -> if not (List.mem_assoc n per_layer) then die "undeclared layer metric %s" n)
        layers;
      (* layers this workload never enters read 0 *)
      let metrics =
        List.map
          (fun (n, u) -> Ledger.m n u (Option.value (List.assoc_opt n layers) ~default:0.))
          per_layer
      in
      {
        Ledger.correct = problems = [];
        attempted;
        failed = Stdlib.min attempted (List.length problems);
        metrics;
        problems;
      }
    end
  in
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) result.Ledger.problems;
  List.iter
    (fun x -> Printf.eprintf "%-36s %14.6g %s\n" x.Ledger.name x.Ledger.value x.Ledger.unit_)
    result.Ledger.metrics;
  flush stderr;
  print_endline (Ledger.to_json result)
