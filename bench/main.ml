(* Benchmark harness for the gated performance checks.

   Sections: the sequential-vs-parallel sweep pair, the Eq.-38 evaluator
   against its reference, the serve daemon's load profiles, the
   flight-recorder overhead and the event-vs-slotted simulator.  The
   paper's Figs. 2-4 are not regenerated here: test/figures_golden.ml
   computes every cell and `dune runtest` diffs results/fig{2,3,4}.csv
   against it (`dune promote` rewrites them).

   Usage:  dune exec bench/main.exe
             [-- [short] [--jobs=N]
              sweep-seq|sweep-par|eq38|serve|telemetry|desim|all ...]

   Several section names may be given; "short" shrinks every section to a
   seconds-scale smoke run (CI); "--jobs=N" (or DELTANET_JOBS) sets the
   worker-domain count for the parallel sweep paths (0 = all cores) —
   results are bit-for-bit identical at every setting, which the
   sweep-seq/sweep-par section pair verifies while recording the
   sequential and parallel wall times.  Each invocation also writes
   BENCH_deltanet.json: per-section wall time plus the telemetry counter
   deltas (objective evaluations, simulated slots, ...) accumulated while
   the section ran.  *)

module Scenario = Deltanet.Scenario
module Classes = Scheduler.Classes

let epsilon = 1e-9

let bound sc sched = Scenario.delay_bound ~scheduler:sched sc

(* ns-per-op samples reported by the running section, drained into the
   section report by [timed] *)
let section_ns_per_op : (string * float) list ref = ref []
let report_ns name ns = section_ns_per_op := (name, ns) :: !section_ns_per_op

(* Best (minimum) ns/op over several batches: the minimum discards
   scheduler / GC interference, which is strictly additive noise, and makes
   the batch/reference ratio stable enough for a CI gate. *)
let time_ns_per_op f n =
  ignore (Sys.opaque_identity (f ()));
  let batches = 5 in
  let per_batch = Stdlib.max 1 (n / batches) in
  let best = ref Float.infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    let ns = 1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int per_batch in
    if ns < !best then best := ns
  done;
  !best

(* ---------------------------------------------------------------- *)
(* Sequential-vs-parallel comparison on the Fig. 3 sweep kernel.  Two
   sections so BENCH_deltanet.json records both wall times; the parallel
   run is cross-checked bitwise against the sequential one. *)

(* jobs requested via --jobs=N / DELTANET_JOBS (set in main; 1 = default) *)
let par_jobs = ref 1

(* --enforce-speedup: fail the run if sweep-par comes out slower than
   sweep-seq (the CI non-inversion gate) *)
let enforce_speedup = ref false

let sweep_kernel ~short () =
  let hs = if short then [ 2 ] else [ 2; 5; 10 ] in
  let mixes = if short then [ 10; 50; 90 ] else [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ] in
  let points = List.concat_map (fun h -> List.map (fun m -> (h, m)) mixes) hs in
  (* Fan out across scenario points — the only grain here whose task cost
     (two full gamma searches) pays for waking a domain; the s and γ
     searches inside each bound run on the worker that computes it. *)
  List.concat
    (Parallel.Default.map_list
       (fun (h, mix_pct) ->
         let mix = float_of_int mix_pct /. 100. in
         let u_cross = 0.5 *. mix in
         let sc = Scenario.of_utilization ~h ~u_through:(0.5 -. u_cross) ~u_cross in
         [ bound sc Classes.Bmux; bound sc Classes.Fifo ])
       points)

(* timed repetitions of the sweep kernel: one pass is ~0.15 s, too short
   to time reliably on a shared box, so both sections measure the same
   fixed number of passes *)
let sweep_reps ~short = if short then 2 else 6

let timed_sweep ~short () =
  let reps = sweep_reps ~short in
  let t0 = Unix.gettimeofday () in
  let values = ref [] in
  for _ = 1 to reps do
    values := sweep_kernel ~short ()
  done;
  (!values, Unix.gettimeofday () -. t0)

(* sequential results + wall, for the cross-check when both sections run *)
let seq_sweep : (float list * float) option ref = ref None

let sweep_seq ~short () =
  Fmt.pr "@.== Parallel comparison: Fig.-3 sweep kernel, sequential ==@.";
  Parallel.Default.set_jobs 1;
  (* untimed warmup: first-touch page faults and minor-heap growth land
     here, not in the measured run (both sections warm up identically) *)
  ignore (Sys.opaque_identity (sweep_kernel ~short ()));
  let (values, wall) = timed_sweep ~short () in
  seq_sweep := Some (values, wall);
  Fmt.pr "   %d bounds x %d passes in %.3f s (jobs = 1)@." (List.length values)
    (sweep_reps ~short) wall

let sweep_par ~short () =
  let jobs = if !par_jobs > 1 then !par_jobs else Parallel.Pool.recommended_jobs () in
  Fmt.pr "@.== Parallel comparison: Fig.-3 sweep kernel, %d jobs ==@." jobs;
  Parallel.Default.set_jobs jobs;
  ignore (Sys.opaque_identity (sweep_kernel ~short ()));
  let (values, wall) = timed_sweep ~short () in
  Parallel.Default.set_jobs !par_jobs;
  Fmt.pr "   %d bounds x %d passes in %.3f s (jobs = %d)@." (List.length values)
    (sweep_reps ~short) wall jobs;
  match !seq_sweep with
  | None -> ()
  | Some (seq_values, seq_wall) ->
    let identical =
      List.length seq_values = List.length values
      && List.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           seq_values values
    in
    if not identical then begin
      Fmt.epr "FATAL: parallel sweep diverged bitwise from the sequential run@.";
      (exit [@lint.allow "raw-exit"]) 1
    end;
    Fmt.pr "   bitwise identical to the sequential run; speedup %.2fx@."
      (seq_wall /. wall);
    (* the non-inversion gate: only meaningful when the run actually fans
       out (jobs > 1), with a 10% grace for timer noise — a real inversion
       shows up as 1.3x+ *)
    if !enforce_speedup && jobs > 1 && wall > seq_wall *. 1.1 then begin
      Fmt.epr "FATAL: parallel sweep (%.3f s) slower than sequential (%.3f s)@."
        wall seq_wall;
      (exit [@lint.allow "raw-exit"]) 1
    end

(* ---------------------------------------------------------------- *)
(* Eq. 38 evaluator vs reference: ns per objective evaluation.  The
   compiled [E2e.Batch] must beat the list-based [E2e.Reference] while
   returning bit-identical bounds (the equality is pinned in
   test/test_e2e.ml; here we measure the speed gap and record it in
   BENCH_deltanet.json so CI can catch regressions of the
   batch/reference ratio). *)

(* set by --baseline=FILE: compare the eq38 batch/reference ratio against
   the committed BENCH_deltanet.json and fail on a >25% regression *)
let baseline_file : string option ref = ref None

let eq38 ~short () =
  Fmt.pr "@.== Eq. 38: reference vs compiled evaluator, ns/eval ==@.";
  Fmt.pr "   (homogeneous FIFO paths; eval = fixed (gamma, sigma); sweep = 40@.";
  Fmt.pr "    gamma points with sigma_for per point, the gamma-search shape;@.";
  Fmt.pr "    batch = E2e.Batch, bit-identical results)@.@.";
  Fmt.pr "  %4s %6s %12s %12s %8s@." "H" "shape" "reference" "batch" "ref/bat";
  let through = Envelope.Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Envelope.Ebb.v ~m:1. ~rho:35. ~alpha:0.8 in
  let hs = if short then [ 5; 10 ] else [ 5; 10; 20 ] in
  (* enough evaluations that the batch/reference ratio is stable to a few
     percent even in short mode — the CI regression gate compares ratios at
     a 25% tolerance, so per-sample noise must sit well below that *)
  let iters = if short then 10_000 else 40_000 in
  let sweep_reps = if short then 100 else 400 in
  List.iter
    (fun h ->
      let p =
        Deltanet.E2e.homogeneous ~h ~capacity:100. ~cross
          ~delta:(Scheduler.Delta.Fin 0.) ~through
      in
      let gamma = 0.5 in
      let sigma = Deltanet.E2e.sigma_for p ~gamma ~epsilon in
      let bt = Deltanet.E2e.Batch.make p in
      (* fixed-point evaluation: one objective minimization at (gamma, sigma);
         the batch re-compiles its per-node constants each time, exactly as
         one gamma-search probe does *)
      let r_eval =
        time_ns_per_op
          (fun () -> Deltanet.E2e.Reference.delay_given p ~gamma ~sigma)
          iters
      in
      let b_eval =
        time_ns_per_op
          (fun () ->
            Deltanet.E2e.Batch.set bt ~gamma ~sigma;
            Deltanet.E2e.Batch.delay bt)
          iters
      in
      report_ns (Printf.sprintf "eq38.h%d.eval.reference" h) r_eval;
      report_ns (Printf.sprintf "eq38.h%d.eval.batch" h) b_eval;
      Fmt.pr "  %4d %6s %9.0f ns %9.0f ns %7.2fx@." h "eval" r_eval b_eval
        (r_eval /. b_eval);
      (* sweep evaluation: the full gamma grid of [delay_bound], including
         the sigma_for inversion per point *)
      let gmax = Deltanet.E2e.gamma_max p in
      let lo = gmax *. 1e-6 and points = 40 in
      let ratio = (0.999 /. 1e-6) ** (1. /. float_of_int (points - 1)) in
      let grid = Deltanet.Search.log_spaced ~lo ~ratio ~points in
      let r_sweep =
        time_ns_per_op
          (fun () ->
            Array.iter
              (fun g ->
                let s = Deltanet.E2e.Reference.sigma_for p ~gamma:g ~epsilon in
                ignore
                  (Sys.opaque_identity
                     (Deltanet.E2e.Reference.delay_given p ~gamma:g ~sigma:s)))
              grid)
          sweep_reps
        /. float_of_int points
      in
      (* the compiled sweep: one retained batch walks the whole grid
         into a caller-provided buffer, as [delay_bound]'s grid phase
         walks it through one batch *)
      let out = Array.make points 0. in
      let b_sweep =
        time_ns_per_op
          (fun () -> Deltanet.E2e.Batch.run_gammas bt ~epsilon ~gammas:grid ~out)
          sweep_reps
        /. float_of_int points
      in
      report_ns (Printf.sprintf "eq38.h%d.sweep.reference" h) r_sweep;
      report_ns (Printf.sprintf "eq38.h%d.sweep.batch" h) b_sweep;
      Fmt.pr "  %4d %6s %9.0f ns %9.0f ns %7.2fx@." h "sweep" r_sweep b_sweep
        (r_sweep /. b_sweep))
    hs

(* ---------------------------------------------------------------- *)
(* deltanet serve: the online admission daemon's three load profiles —
   the cached hot path (repeat shape, memoized bound: the >= 1e5/s
   target), a bounded-cache soak over distinct shapes, and a 2x-overload
   burst where shedding and degradation must hold the served p99 inside
   the per-request budget.  The serve.* counter deltas (shed, degraded,
   cache hits/evictions, timeouts) land in the section report
   automatically via [timed]. *)

let serve_admit ?(extra = "") ~u0 () =
  Printf.sprintf
    "{\"op\":\"admit\",\"h\":5,\"u0\":%.6f,\"uc\":0.25,\"deadline\":200%s}" u0 extra

let serve_bench ~short () =
  Fmt.pr "@.== deltanet serve: decision throughput, soak, overload ==@.";
  (* A: cached hot path — one shape, bound memoized after the first
     request; every later decision is parse + LRU hit + float compare *)
  let e = Serve.Engine.create Serve.Engine.default_config in
  let hot = serve_admit ~u0:0.25 () in
  ignore (Sys.opaque_identity (Serve.Engine.handle_line e hot));
  let n = if short then 20_000 else 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Serve.Engine.handle_line e hot))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let per_sec = float_of_int n /. wall in
  report_ns "serve.decision.cached" (1e9 *. wall /. float_of_int n);
  Fmt.pr "   cached admit       %8d decisions in %6.3f s = %9.0f/s %s@." n wall
    per_sec
    (if per_sec >= 1e5 then "(target 1e5/s: ok)" else "(target 1e5/s: MISSED)");
  (* the same hot path through the daemon's batch gulp *)
  let batch = List.init 64 (fun _ -> hot) in
  let nb = n / 64 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to nb do
    ignore (Sys.opaque_identity (Serve.Engine.handle_batch e batch))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  report_ns "serve.decision.batched" (1e9 *. wall /. float_of_int (nb * 64));
  Fmt.pr "   batched admit (64) %8d decisions in %6.3f s = %9.0f/s@." (nb * 64)
    wall
    (float_of_int (nb * 64) /. wall);

  (* B: bounded-cache soak — every request a fresh shape on the degraded
     path; the LRU must pin memory at its capacity *)
  let cap = 256 in
  let e2 =
    Serve.Engine.create
      { Serve.Engine.default_config with Serve.Engine.cache_entries = cap }
  in
  let shapes = if short then 2_000 else 10_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to shapes - 1 do
    let u0 = 0.05 +. (0.65 *. float_of_int i /. float_of_int shapes) in
    ignore
      (Sys.opaque_identity
         (Serve.Engine.handle_line e2 (serve_admit ~u0 ~extra:",\"budget_ms\":1" ())))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  if Serve.Engine.cache_length e2 > cap then begin
    Fmt.epr "FATAL: serve cache grew past its %d-entry bound@." cap;
    (exit [@lint.allow "raw-exit"]) 1
  end;
  report_ns "serve.soak.per_shape" (1e9 *. wall /. float_of_int shapes);
  Fmt.pr "   soak               %8d distinct shapes in %6.3f s (%5.0f/s), cache %d <= %d@."
    shapes wall
    (float_of_int shapes /. wall)
    (Serve.Engine.cache_length e2) cap;

  (* C: 2x overload — a burst of twice the queue bound against a 5 ms
     budget: the daemon must shed/degrade rather than queue without
     bound, and every response it does serve must stay in budget *)
  let budget_ms = 5. in
  let e3 =
    Serve.Engine.create
      {
        Serve.Engine.default_config with
        Serve.Engine.max_queue = 64;
        Serve.Engine.budget_ms = budget_ms;
      }
  in
  (* warm a 32-shape working set with a generous per-request budget so
     their exact bounds are memoized *)
  for i = 0 to 31 do
    let u0 = 0.1 +. (0.01 *. float_of_int i) in
    ignore (Serve.Engine.handle_line e3 (serve_admit ~u0 ~extra:",\"budget_ms\":250" ()))
  done;
  let burst =
    List.init 128 (fun k ->
        if k mod 2 = 0 then
          (* warm half: memoized hits *)
          serve_admit ~u0:(0.1 +. (0.01 *. float_of_int (k / 2 mod 32))) ()
        else
          (* cold half: fresh shapes that need compute *)
          serve_admit ~u0:(0.35 +. (0.003 *. float_of_int k)) ())
  in
  let t0 = Unix.gettimeofday () in
  let responses = Serve.Engine.handle_batch e3 burst in
  let wall = Unix.gettimeofday () -. t0 in
  let count status =
    List.length
      (List.filter
         (fun r ->
           match Serve.Sjson.parse r with
           | Ok j -> (
             match Serve.Sjson.member "status" j with
             | Some (Serve.Sjson.Str s) -> String.equal s status
             | _ -> false)
           | Error _ -> false)
         responses)
  in
  let served_latencies =
    List.filter_map
      (fun r ->
        match Serve.Sjson.parse r with
        | Ok j -> (
          match
            (Serve.Sjson.member "status" j, Serve.Sjson.member "elapsed_ms" j)
          with
          | Some (Serve.Sjson.Str "ok"), Some (Serve.Sjson.Num v) -> Some v
          | _ -> None)
        | Error _ -> None)
      responses
  in
  let p99 =
    match List.sort Float.compare served_latencies with
    | [] -> 0.
    | sorted ->
      let a = Array.of_list sorted in
      a.(Stdlib.min (Array.length a - 1)
           (int_of_float (ceil (0.99 *. float_of_int (Array.length a))) - 1))
  in
  report_ns "serve.overload.p99_ms" p99;
  Fmt.pr
    "   2x overload        %8d requests in %6.3f s: ok %d, shed %d, timeout %d; served p99 %.3f ms (budget %.0f ms)@."
    (List.length burst) wall (count "ok") (count "shed") (count "timeout") p99
    budget_ms;
  if count "shed" = 0 then
    Fmt.pr "   (note: burst cleared without shedding on this box)@.";
  if p99 > budget_ms then begin
    Fmt.epr "FATAL: served p99 %.3f ms exceeds the %.0f ms request budget@." p99
      budget_ms;
    (exit [@lint.allow "raw-exit"]) 1
  end

(* ---------------------------------------------------------------- *)
(* Flight-recorder overhead: the eq38 sweep, identical code with
   the recorder off (span/event entry points are load-and-branch no-ops)
   and on (every call records into the per-domain ring; null sink, no
   streaming — the serve/CLI configuration).  Instrumentation density
   mirrors what a traced CLI sweep actually records: a span around the
   sweep, a point event per work chunk (the pool's granularity, not per
   grid step), and the evaluator's own eval counters.  Each round measures
   both modes back-to-back in alternating order and the gate takes the
   median of the paired per-round ratios, so machine-state drift across
   the section (thermal, cache, GC history) cancels instead of faking
   an overhead in either direction.
   The raw per-record ring cost is also measured and reported, ungated —
   a single event costs more than 5% of a ~1 µs grid step by itself,
   which is exactly why nothing in the hot path records at that
   density. *)

let telemetry_bench ~short () =
  Fmt.pr "@.== telemetry: flight-recorder ring overhead on the eq38 sweep ==@.@.";
  let through = Envelope.Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Envelope.Ebb.v ~m:1. ~rho:35. ~alpha:0.8 in
  let p =
    Deltanet.E2e.homogeneous ~h:10 ~capacity:100. ~cross
      ~delta:(Scheduler.Delta.Fin 0.) ~through
  in
  let bt = Deltanet.E2e.Batch.make p in
  let gmax = Deltanet.E2e.gamma_max p in
  let lo = gmax *. 1e-6 and points = 40 in
  let ratio = (0.999 /. 1e-6) ** (1. /. float_of_int (points - 1)) in
  let grid = Deltanet.Search.log_spaced ~lo ~ratio ~points in
  (* the pool would split this grid into [min n (4*jobs)] chunks whose
     per-chunk records run spread across the domains; one event per 16
     grid steps matches that per-domain record density on one domain *)
  let chunk = 16 in
  let sweep () =
    Telemetry.span "bench.eq38.sweep" @@ fun () ->
    Array.iteri
      (fun i g ->
        if i mod chunk = 0 then Telemetry.event "bench.eq38.chunk";
        ignore (Sys.opaque_identity (Deltanet.E2e.Batch.delay_at_gamma bt ~gamma:g ~epsilon)))
      grid
  in
  let rounds = if short then 4 else 10 in
  let per_batch = if short then 40 else 200 in
  let time_batch () =
    (* every batch starts from the same GC state: compacted major heap,
       empty minor heap — the on-mode allocates (events promoted while
       the ring holds them), and carrying that pressure into the next
       batch would charge it to the wrong mode *)
    Gc.compact ();
    ignore (Sys.opaque_identity (sweep ()));
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do
      ignore (Sys.opaque_identity (sweep ()))
    done;
    1e9
    *. (Unix.gettimeofday () -. t0)
    /. float_of_int (per_batch * points)
  in
  let offs = Array.make rounds 0. and ons = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let measure_off () =
      Telemetry.shutdown ();
      offs.(r) <- time_batch ()
    in
    let measure_on () =
      Telemetry.configure ~sink:Telemetry.Sink.null ();
      ons.(r) <- time_batch ();
      (* discard the buffered bench events so a later flush doesn't
         replay them into whatever sink is live then *)
      Telemetry.flush ()
    in
    (* alternate which mode goes first: any monotone machine-state
       drift (thermal, cache, paging) then cancels in the paired
       per-round ratios instead of biasing one mode *)
    if r mod 2 = 0 then begin
      measure_off ();
      measure_on ()
    end
    else begin
      measure_on ();
      measure_off ()
    end
  done;
  let median a =
    let s = Array.copy a in
    Array.sort Float.compare s;
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  in
  let off = median offs and on = median ons in
  report_ns "telemetry.eq38.point.off" off;
  report_ns "telemetry.eq38.point.on" on;
  (* gate on the median of paired same-round ratios, not on the two
     medians: pairing cancels drift that spans rounds *)
  let ratios = Array.init rounds (fun r -> ons.(r) /. offs.(r)) in
  let overhead = 100. *. (median ratios -. 1.) in
  (* raw cost of one ring record, at memory speed: informational, not
     gated — it bounds how fine-grained new instrumentation may be *)
  let evn = if short then 200_000 else 1_000_000 in
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  for _ = 1 to 10_000 do
    Telemetry.event "bench.ring.raw"
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to evn do
    Telemetry.event "bench.ring.raw"
  done;
  let event_ns = 1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int evn in
  Telemetry.flush ();
  report_ns "telemetry.ring.event_ns" event_ns;
  Fmt.pr "  %-24s %10.0f ns/point@." "recorder off" off;
  Fmt.pr "  %-24s %10.0f ns/point@." "recorder on" on;
  Fmt.pr "  %-24s %9.2f%%  (gate: < 8%%)@." "ring overhead" overhead;
  Fmt.pr "  %-24s %10.0f ns/event  (informational)@." "raw ring record"
    event_ns;
  (* the gate was 5% when the per-point sweep cost ~1.3 us; the batched
     Eq.-38 kernel work cut the denominator ~1.4x while the absolute
     ring cost (~50 ns/point at this density) is unchanged, so the same
     recorder now reads ~5.5%.  8% keeps the same absolute headroom over
     today's faster sweep and still trips on a real recorder regression *)
  if overhead >= 8. then begin
    Fmt.epr "FATAL: flight-recorder overhead %.2f%% >= 8%% on the eq38 sweep@."
      overhead;
    (exit [@lint.allow "raw-exit"]) 1
  end

(* ---------------------------------------------------------------- *)
(* Driver: run the requested sections with telemetry counting work (null
   sink — no streaming overhead), and write BENCH_deltanet.json with the
   per-section wall time and counter deltas. *)

type section_report = {
  sec_name : string;
  sec_wall_s : float;
  sec_counters : (string * int) list;
  sec_ns_per_op : (string * float) list;
}

(* Wall time plus the delta of every telemetry counter across the section.
   The registry is cumulative, so deltas come from before/after snapshots
   rather than a reset — sections stay independent of ordering. *)
let timed name f =
  let before = Telemetry.snapshot () in
  section_ns_per_op := [];
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let after = Telemetry.snapshot () in
  let deltas =
    List.filter_map
      (fun (n, v) ->
        let v0 =
          match List.assoc_opt n before.Telemetry.counters with
          | Some v0 -> v0
          | None -> 0
        in
        if v - v0 <> 0 then Some (n, v - v0) else None)
      after.Telemetry.counters
  in
  let ns = List.rev !section_ns_per_op in
  section_ns_per_op := [];
  { sec_name = name; sec_wall_s = wall; sec_counters = deltas; sec_ns_per_op = ns }

let json_of_report r =
  Telemetry.Json.obj
    [
      ("name", "\"" ^ Telemetry.Json.escape r.sec_name ^ "\"");
      ("wall_s", Telemetry.Json.number r.sec_wall_s);
      ( "counters",
        Telemetry.Json.obj
          (List.map (fun (n, v) -> (n, string_of_int v)) r.sec_counters) );
      ( "ns_per_op",
        Telemetry.Json.obj
          (List.map (fun (n, v) -> (n, Telemetry.Json.number v)) r.sec_ns_per_op)
      );
    ]

(* Schema history:
     1  sections with wall_s + counters only
     2  adds top-level settings {jobs} and per-section ns_per_op (older
        files also carry a settings.cutoff key, which nothing reads)
   The reader below rejects anything but the current version, so a stale
   committed baseline fails loudly instead of silently comparing against
   fields that no longer mean the same thing. *)
let bench_schema_version = 2

let write_bench_json ~mode ~jobs ~total_wall_s reports =
  let oc = open_out "BENCH_deltanet.json" in
  output_string oc
    (Telemetry.Json.obj
       [
         ("schema", "\"deltanet-bench\"");
         ("version", string_of_int bench_schema_version);
         ("mode", "\"" ^ mode ^ "\"");
         ( "settings",
           Telemetry.Json.obj [ ("jobs", string_of_int jobs) ] );
         ("sections", Telemetry.Json.arr (List.map json_of_report reports));
         ("total_wall_s", Telemetry.Json.number total_wall_s);
       ]);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "[wrote BENCH_deltanet.json: %d section(s)]@." (List.length reports)

(* ---------------------------------------------------------------- *)
(* BENCH_deltanet.json reader.  The file is machine-written by
   [write_bench_json] with unique keys throughout, so a flat substring scan
   recovers any numeric field without a JSON parser dependency. *)

let find_substring s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go from

let json_number_field src ~key =
  match find_substring src ("\"" ^ key ^ "\"") 0 with
  | None -> None
  | Some i ->
    let n = String.length src in
    let j = ref (i + String.length key + 2) in
    while !j < n && (src.[!j] = ':' || src.[!j] = ' ' || src.[!j] = '\n') do
      incr j
    done;
    let k = ref !j in
    while
      !k < n
      && (match src.[!k] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr k
    done;
    if !k = !j then None else float_of_string_opt (String.sub src !j (!k - !j))

(* Read a bench file, rejecting missing or stale schemas. *)
let read_bench_file path =
  let src =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if find_substring src "\"deltanet-bench\"" 0 = None then
    failwith (path ^ ": not a deltanet-bench file");
  (match json_number_field src ~key:"version" with
  | Some v when int_of_float v = bench_schema_version -> ()
  | Some v ->
    failwith
      (Printf.sprintf
         "%s: stale bench schema version %d (expected %d); regenerate with \
          `dune exec bench/main.exe`"
         path (int_of_float v) bench_schema_version)
  | None -> failwith (path ^ ": no schema version field"));
  src

(* Compare the eq38 batch/reference speed ratios of this run against the
   committed baseline.  Each ratio is machine-independent (both sides
   ran on the same box), so CI can enforce it across runner
   generations.  An absolute floor on the same ratios, checked from the
   current run alone, follows in [check_eq38_speedup]. *)
let check_ratio_family ~src ~path ~current ~fast_suffix ~slow_suffix ~label =
  let checked = ref 0 in
  let log_now = ref 0. and log_base = ref 0. in
  List.iter
    (fun (key, f_now) ->
      let n = String.length key and m = String.length fast_suffix in
      if n > m && String.equal (String.sub key (n - m) m) fast_suffix then begin
        let slow_key = String.sub key 0 (n - m) ^ slow_suffix in
        match
          ( List.assoc_opt slow_key current,
            json_number_field src ~key,
            json_number_field src ~key:slow_key )
        with
        | Some s_now, Some f_base, Some s_base
          when f_now > 0. && s_now > 0. && f_base > 0. && s_base > 0. ->
          incr checked;
          let ratio_now = f_now /. s_now and ratio_base = f_base /. s_base in
          log_now := !log_now +. log ratio_now;
          log_base := !log_base +. log ratio_base;
          Fmt.pr "   %-28s ratio %.4f (baseline %.4f)@."
            (String.sub key 0 (n - m))
            ratio_now ratio_base
        | _ -> ()
      end)
    current;
  if !checked = 0 then
    Fmt.pr "   baseline %s has no %s pairs; family not checked@." path label
  else begin
    (* gate on the geometric mean across keys: per-key timings on shared CI
       runners are noisy, but the mean ratio is stable and still moves
       decisively when the fast path itself regresses *)
    let k = float_of_int !checked in
    let mean_now = exp (!log_now /. k) and mean_base = exp (!log_base /. k) in
    let ok = mean_now <= mean_base *. 1.25 in
    Fmt.pr "   %-28s ratio %.4f (baseline %.4f) %s@."
      ("geomean " ^ label) mean_now mean_base
      (if ok then "ok" else "REGRESSED >25%");
    if not ok then begin
      Fmt.epr "FATAL: %s mean ratio regressed >25%% vs %s@." label path;
      (exit [@lint.allow "raw-exit"]) 1
    end
  end

(* The absolute floor on the compiled evaluator: the geomean of
   reference/batch over the eq38.* pairs present in this run must clear
   [floor].  Asserted from the current run alone — both sides run in
   one process, so no baseline wall clock is involved.  Skipped when
   the run has no eq38 section. *)
let check_eq38_speedup ~current ~floor =
  let log_sum = ref 0. and n = ref 0 in
  List.iter
    (fun (key, b) ->
      if String.starts_with ~prefix:"eq38." key && String.ends_with ~suffix:".batch" key
      then
        match List.assoc_opt (Filename.chop_suffix key ".batch" ^ ".reference") current with
        | Some r when b > 0. && r > 0. ->
          log_sum := !log_sum +. log (r /. b);
          incr n
        | _ -> ())
    current;
  if !n > 0 then begin
    let mean = exp (!log_sum /. float_of_int !n) in
    let ok = mean >= floor in
    Fmt.pr "   %-28s %.2fx (floor %.1fx) %s@." "geomean reference/batch" mean floor
      (if ok then "ok" else "BELOW FLOOR");
    if not ok then begin
      Fmt.epr "FATAL: eq38 speedup over the reference %.2fx below the %.1fx floor@."
        mean floor;
      (exit [@lint.allow "raw-exit"]) 1
    end
  end

let check_against_baseline path reports =
  let src = read_bench_file path in
  let current = List.concat_map (fun r -> r.sec_ns_per_op) reports in
  check_ratio_family ~src ~path ~current ~fast_suffix:".batch"
    ~slow_suffix:".reference" ~label:"batch/reference";
  (* the committed geomean is ~3.0x; 2.4x keeps the 0.8x relative
     headroom the figure-cell floor had (1.15x under a measured
     1.35-1.45x), so runner noise passes while a real loss of the
     compiled path's edge still fails *)
  check_eq38_speedup ~current ~floor:2.4

(* ---------------------------------------------------------------- *)
(* desim: event engine vs the slotted oracle on the workload the event
   engine exists for — sparse through traffic on a long path, where the
   slotted loop burns a full pass over every (node, slot) pair while the
   heap only touches slots that carry data.  The CBR through aggregate
   makes the traffic engine-independent by construction, so the run
   doubles as a parity check: the two engines must agree bit-for-bit on
   the delay samples before either timing counts.  The dense Markov
   companion measures the lockstep overhead ceiling (event must stay
   within 3x of slotted when every slot is busy), reported ungated. *)

let desim_bench ~short () =
  Fmt.pr "@.== desim: event engine vs slotted oracle (sparse CBR, H=10) ==@.@.";
  let slots = if short then 20_000 else 200_000 in
  let cfg =
    {
      Netsim.Tandem.default_config with
      Netsim.Tandem.h = 10;
      slots;
      drain_limit = 2_000;
      through_kind = Netsim.Tandem.Cbr { period = 200; burst = 50. };
      n_cross = 0;
    }
  in
  (* best-of-3 per engine: the run is deterministic, so the minimum wall
     is the one least polluted by whatever else the box was doing — a
     transient load spike otherwise fails the speedup gate spuriously *)
  let time f =
    let best = ref Float.infinity and out = ref None in
    for _ = 1 to 3 do
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let r = Sys.opaque_identity (f ()) in
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then begin
        best := w;
        out := Some r
      end
    done;
    (Option.get !out, !best)
  in
  (* warm-up outside the measured runs: code paths, allocator state *)
  ignore
    (Sys.opaque_identity
       (Netsim.Tandem.run ~engine:Netsim.Tandem.Event
          { cfg with Netsim.Tandem.slots = 2_000; drain_limit = 500 }));
  let (slotted, wall_s) = time (fun () -> Netsim.Tandem.run ~engine:Netsim.Tandem.Slotted cfg) in
  let (event, wall_e) = time (fun () -> Netsim.Tandem.run ~engine:Netsim.Tandem.Event cfg) in
  let samples_s = Desim.Stats.Sample.to_sorted_array slotted.Netsim.Tandem.delays in
  let samples_e = Desim.Stats.Sample.to_sorted_array event.Netsim.Tandem.delays in
  let exact =
    Array.length samples_s = Array.length samples_e
    && Array.for_all2 Float.equal samples_s samples_e
  in
  if not exact then begin
    Fmt.epr "FATAL: event engine delay samples diverged from the slotted oracle@.";
    (exit [@lint.allow "raw-exit"]) 1
  end;
  let pkts = float_of_int (Desim.Stats.Sample.count slotted.Netsim.Tandem.delays) in
  let pps_slotted = pkts /. wall_s and pps_event = pkts /. wall_e in
  let speedup = wall_s /. wall_e in
  Fmt.pr "  %-28s %10.3f s  (%9.0f packets/s)@." "slotted oracle" wall_s pps_slotted;
  Fmt.pr "  %-28s %10.3f s  (%9.0f packets/s)  [%d events]@." "event engine" wall_e
    pps_event event.Netsim.Tandem.events_processed;
  Fmt.pr "  %-28s %10.1fx  (samples bit-identical: %b)@." "speedup" speedup exact;
  report_ns "desim.sparse.slotted.ns_per_packet" (1e9 *. wall_s /. pkts);
  report_ns "desim.sparse.event.ns_per_packet" (1e9 *. wall_e /. pkts);
  report_ns "desim.sparse.speedup" speedup;
  let floor = if short then 1.0 else 10.0 in
  if speedup < floor then begin
    Fmt.epr "FATAL: event engine speedup %.1fx below the %.0fx floor on sparse traffic@."
      speedup floor;
    (exit [@lint.allow "raw-exit"]) 1
  end;
  (* dense companion: every slot busy, so the event engine degenerates to
     slot-lockstep and can only lose; measure how much.  Ungated beyond a
     generous 3x ceiling — this documents the trade, not a target. *)
  let dense =
    {
      Netsim.Tandem.default_config with
      Netsim.Tandem.h = 5;
      slots = (if short then 4_000 else 20_000);
      drain_limit = 2_000;
      n_cross = 400;
    }
  in
  let (_, dwall_s) = time (fun () -> Netsim.Tandem.run ~engine:Netsim.Tandem.Slotted dense) in
  let (_, dwall_e) = time (fun () -> Netsim.Tandem.run ~engine:Netsim.Tandem.Event dense) in
  let ratio = dwall_e /. dwall_s in
  Fmt.pr "  %-28s %10.2fx  (dense Markov, H=5: lockstep overhead)@." "event/slotted wall"
    ratio;
  report_ns "desim.dense.event_over_slotted" ratio;
  if ratio > 3.0 then begin
    Fmt.epr "FATAL: event engine %.2fx slower than slotted on dense traffic (> 3x)@." ratio;
    (exit [@lint.allow "raw-exit"]) 1
  end

let sections ~short =
  [
    ("sweep-seq", sweep_seq ~short);
    ("sweep-par", sweep_par ~short);
    ("eq38", eq38 ~short);
    ("serve", serve_bench ~short);
    ("telemetry", telemetry_bench ~short);
    ("desim", desim_bench ~short);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let short = List.mem "short" args in
  let flag_value prefix a =
    let n = String.length prefix in
    if String.length a > n && String.equal (String.sub a 0 n) prefix then
      Some (String.sub a n (String.length a - n))
    else None
  in
  (* --validate=FILE: check the bench-file schema and exit (CI gate) *)
  (match List.find_map (flag_value "--validate=") args with
  | Some path ->
    (match read_bench_file path with
    | _ ->
      Fmt.pr "%s: valid deltanet-bench file (schema version %d)@." path
        bench_schema_version;
      (exit [@lint.allow "raw-exit"]) 0
    | exception Failure msg ->
      Fmt.epr "%s@." msg;
      (exit [@lint.allow "raw-exit"]) 1)
  | None -> ());
  baseline_file := List.find_map (flag_value "--baseline=") args;
  enforce_speedup := List.mem "--enforce-speedup" args;
  let args =
    List.filter
      (fun a ->
        flag_value "--baseline=" a = None && a <> "--enforce-speedup")
      args
  in
  (* --jobs=N beats DELTANET_JOBS; 0 means all cores; default sequential *)
  let jobs_args, args =
    List.partition (fun a -> String.length a > 7 && String.sub a 0 7 = "--jobs=") args
  in
  (* The bench measures: oversubscribing domains beyond the hardware
     parallelism can only add scheduling overhead (and on a 1-core box
     turns every parallel section into a timeslicing benchmark), so a
     requested jobs count is capped at [recommended_jobs]. *)
  let cap_jobs n =
    let req = if n = 0 then Parallel.Pool.recommended_jobs () else n in
    Stdlib.min req (Parallel.Pool.recommended_jobs ())
  in
  (match jobs_args with
  | [] -> (
    match Parallel.Default.jobs_from_env () with
    | Some n -> par_jobs := cap_jobs n
    | None -> ())
  | a :: _ -> (
    match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
    | Some n when n >= 0 -> par_jobs := cap_jobs n
    | Some _ | None ->
      Fmt.epr "bad %s (expected --jobs=N with N >= 0; 0 = all cores)@." a;
      (exit [@lint.allow "raw-exit"]) 2));
  let requested =
    match List.filter (fun a -> a <> "short") args with
    | [] -> [ "all" ]
    | names -> names
  in
  let requested =
    List.concat_map
      (fun name ->
        if name = "all" then List.map fst (sections ~short) else [ name ])
      requested
  in
  let known = sections ~short in
  let bad = List.filter (fun n -> not (List.mem_assoc n known)) requested in
  if bad <> [] then begin
    Fmt.epr
      "unknown section %S (expected sweep-seq|sweep-par|eq38|serve|telemetry|desim|all)@."
      (List.hd bad);
    (exit [@lint.allow "raw-exit"]) 2
  end;
  (* Null sink: counters/histograms accumulate for the JSON report without
     any event streaming.  The null sink is non-streaming, so the parallel
     pool stays parallel while counters still record work. *)
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Parallel.Default.set_jobs !par_jobs;
  let t0 = Unix.gettimeofday () in
  let reports =
    List.map (fun name -> timed name (List.assoc name known)) requested
  in
  let total = Unix.gettimeofday () -. t0 in
  write_bench_json ~mode:(if short then "short" else "full") ~jobs:!par_jobs
    ~total_wall_s:total reports;
  (match !baseline_file with
  | None -> ()
  | Some path ->
    Fmt.pr "@.== ns/op regression check vs %s ==@." path;
    check_against_baseline path reports);
  Fmt.pr "@.[total: %.1f s]@." total
