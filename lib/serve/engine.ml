(* The serving pipeline.  One batch goes through three phases:

   1. plan (driver, sequential, into an array): parse + validate every
      line, answer the free ones (errors, stats/health, memoized cache
      hits, whose replies copy the bound's memoized text), shed what the
      backlog policy refuses, pick exact/approx for the rest and add
      missing cache entries;
   2. compute: every job is [Admission.decide], pure, at the s-grid of
      its mode; each mode's jobs fan out on the default Parallel pool;
   3. render (driver, sequential): fold results back in request order,
      memoize bounds, enforce per-request budgets, update the EWMA
      service-time estimators.

   Soundness of the degradation ladder: both modes run the same s × γ
   search, approx on a coarser s-grid, and every probed (s, γ) gives a
   valid upper bound, so a degraded answer can refuse an admissible flow
   but never admit an inadmissible one.  A bound is memoized only when
   its diagnostic converged; a Diverged iterate is never trusted on a
   later cache hit. *)

module Classes = Scheduler.Classes
module Scenario = Deltanet.Scenario
module Contracts = Deltanet.Contracts
module Admission = Deltanet.Admission
module Diag = Deltanet.Diag
module P = Protocol

(* The fraction of a request's remaining budget that the predicted
   exact cost may use before the request degrades to [approx]. *)
let degrade_ratio = 0.5

(* The s-grid of a degraded ([approx]) request: the production search at
   its coarsest resolution *)
let approx_s_points = 2

type config = {
  budget_ms : float;
  max_queue : int;
  cache_entries : int;
  s_points : int;
  max_line_bytes : int;
  debug_ops : bool;
}

let default_config =
  {
    budget_ms = 250.;
    max_queue = 512;
    cache_entries = 4096;
    s_points = Scenario.s_points;
    max_line_bytes = 65_536;
    debug_ops = false;
  }

(* A memoized bound and the text a reply writes for it, so that a
   cached answer formats no bound *)
type memo = { bound : float; text : string }

let memo bound = { bound; text = Telemetry.Json.number bound }

(* A cache entry is a shape's memoized bounds, one per mode *)
type entry = {
  mutable e_exact : memo option;
  mutable e_approx : memo option;
}

type t = {
  cfg : config;
  now : unit -> float;
  cache : entry Cache.t;
  started : float;
  trace_prefix : string;
  mutable trace_seq : int;
  mutable served_n : int;
  (* SLO tallies live on the engine, not only in the telemetry registry:
     the stats reply must be exact even when telemetry is disabled *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_shed : int;
  mutable n_timeouts : int;
  mutable n_errors : int;
  mutable ewma_exact_ms : float;
  mutable ewma_approx_ms : float;
}

let c_requests = Telemetry.Counter.make "serve.requests"
let c_accepted = Telemetry.Counter.make "serve.admit.accepted"
let c_rejected = Telemetry.Counter.make "serve.admit.rejected"
let c_shed = Telemetry.Counter.make "serve.shed"
let c_degraded = Telemetry.Counter.make "serve.degraded"
let c_timeouts = Telemetry.Counter.make "serve.timeout"
let c_errors = Telemetry.Counter.make "serve.errors"
let c_faults = Telemetry.Counter.make "serve.faults"
let h_latency = Telemetry.Histogram.make "serve.latency_ms"
let g_queue = Telemetry.Gauge.make "serve.queue_depth"

type outcome = O_exact | O_approx | O_shed | O_error | O_timeout | O_ok

let outcomes = [| O_exact; O_approx; O_shed; O_error; O_timeout; O_ok |]

let outcome_index = function
  | O_exact -> 0
  | O_approx -> 1
  | O_shed -> 2
  | O_error -> 3
  | O_timeout -> 4
  | O_ok -> 5

let outcome_label = function
  | O_exact -> "exact"
  | O_approx -> "approx"
  | O_shed -> "shed"
  | O_error -> "error"
  | O_timeout -> "timeout"
  | O_ok -> "ok"

let outcome_of_mode = function P.Exact -> O_exact | P.Approx -> O_approx

(* Per-request latency split by outcome, one registry histogram per label
   so the Prometheus exposition renders them as one labelled family;
   slot [outcome_index o] holds outcome [o]'s. *)
let outcome_hists =
  Array.map
    (fun o ->
      Telemetry.Histogram.make
        (Printf.sprintf "serve.request_latency_ms{outcome=%s}" (outcome_label o)))
    outcomes

let create ?now:(clock = Unix.gettimeofday) cfg =
  if not (Float.is_finite cfg.budget_ms) || cfg.budget_ms <= 0. then
    invalid_arg "Serve.Engine.create: budget_ms must be finite and > 0";
  if cfg.max_queue < 1 then invalid_arg "Serve.Engine.create: max_queue < 1";
  if cfg.s_points < 2 then invalid_arg "Serve.Engine.create: s_points < 2";
  {
    cfg;
    now = clock;
    cache = Cache.create ~capacity:cfg.cache_entries;
    started = clock ();
    (* derived from wall clock + pid: distinct across daemon restarts,
       cheap, and with the per-request sequence number unique within one *)
    trace_prefix =
      Printf.sprintf "%08x"
        (Hashtbl.hash (Unix.getpid (), clock ()) land 0xffffffff);
    trace_seq = 0;
    served_n = 0;
    n_hits = 0;
    n_misses = 0;
    n_shed = 0;
    n_timeouts = 0;
    n_errors = 0;
    (* seeds, not promises: the estimators converge onto the measured
       service times within a handful of requests *)
    ewma_exact_ms = 50.;
    ewma_approx_ms = 0.5;
  }

let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

(* [Printf.sprintf "%s-%06d" prefix seq] for seq >= 0, without the
   format interpreter: the digits are written right to left over a run
   of zeros at least six wide, so short numbers come out zero-padded. *)
let trace_id prefix seq =
  if seq < 0 then invalid_arg "Serve.Engine.trace_id: negative sequence number";
  let np = String.length prefix in
  let len = np + 1 + Int.max 6 (decimal_width seq) in
  let b = Bytes.make len '0' in
  Bytes.blit_string prefix 0 b 0 np;
  Bytes.set b np '-';
  let n = ref seq and i = ref (len - 1) in
  while !n > 0 do
    Bytes.set b !i (Char.chr (Char.code '0' + (!n mod 10)));
    n := !n / 10;
    decr i
  done;
  Bytes.unsafe_to_string b

let next_trace t =
  t.trace_seq <- t.trace_seq + 1;
  trace_id t.trace_prefix t.trace_seq

(* Every finished response passes through here: the outcome-labelled
   latency histogram gets its sample and the access log gets one event,
   keyed by the trace id the response itself echoes.  [elapsed_ms] is the
   reply's own when it carries one. *)
let access ~trace ~outcome ~elapsed_ms resp =
  Telemetry.Histogram.observe outcome_hists.(outcome_index outcome) elapsed_ms;
  if !Telemetry.on then
    Telemetry.event "serve.access"
      ~attrs:
        [
          ("trace", Telemetry.Str trace);
          ("outcome", Telemetry.Str (outcome_label outcome));
          ("elapsed_ms", Telemetry.Float elapsed_ms);
        ];
  resp

let ewma old sample = (0.8 *. old) +. (0.2 *. sample)

(* ---------------- shape keys and model construction ---------------- *)

(* serve-mode EDF anchors the per-node deadline to the request's own
   end-to-end budget (d*_0 = deadline / H) instead of re-solving the
   paper's fixed point per query: the gap is then a fixed, feasible
   ∆_{0,c} and the resulting bound is sound for that deadline vector.
   The fixed-point variant stays available offline via `deltanet
   admission`. *)
let two_class_of (p : P.admit_params) =
  Scheduler.Kind.two_class ~d_through:(p.deadline /. float_of_int p.h) p.scheduler

(* The shape key: h, the scheduler tag and the bit patterns of the EDF
   gap (0 for the other schedulers), u0, uc and epsilon, at fixed
   offsets.  Bit patterns tell -0 from 0, so both loads and the gap
   arrive here normalised to +0. *)
let key_of (p : P.admit_params) two_class =
  let b = Bytes.make 41 '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int p.P.h);
  (match two_class with
  | Classes.Fifo -> Bytes.set b 8 'f'
  | Classes.Bmux -> Bytes.set b 8 'b'
  | Classes.Sp_through_high -> Bytes.set b 8 's'
  | Classes.Edf_gap g ->
    Bytes.set b 8 'e';
    Bytes.set_int64_le b 9 (Int64.bits_of_float g));
  Bytes.set_int64_le b 17 (Int64.bits_of_float p.P.u_through);
  Bytes.set_int64_le b 25 (Int64.bits_of_float p.P.u_cross);
  Bytes.set_int64_le b 33 (Int64.bits_of_float p.P.epsilon);
  Bytes.unsafe_to_string b

let scenario_of (p : P.admit_params) =
  let sc = Scenario.of_utilization ~h:p.P.h ~u_through:p.P.u_through ~u_cross:p.P.u_cross in
  { sc with Scenario.epsilon = p.P.epsilon }

(* A shape gets an entry when some stable s exists; the other shapes
   are refused *)
let make_entry (p : P.admit_params) =
  if Scenario.has_stable_s (scenario_of p) then Some { e_exact = None; e_approx = None }
  else None

(* ---------------- supervised per-request work ---------------- *)

type jres =
  | R_bound of { bound : float; ok : bool }
  | R_check of string list
  | R_error of { kind : P.error_kind; detail : string }

(* Isolate a poisoned request: anything non-fatal becomes a typed
   [internal] response and the engine (and pool) keep serving.  Memory
   exhaustion and user interrupts stay fatal on purpose.  The protocol
   and [make_entry] refuse every request [Admission.decide]'s contract
   checks would (a deadline or eps out of range, a load with no stable
   s), so a [Contracts.Violation] lands here only as a fault. *)
let supervise f =
  try f () with
  | (Out_of_memory | Sys.Break) as e -> raise e
  | e ->
    Telemetry.Counter.incr c_faults;
    R_error { kind = P.Internal; detail = Printexc.to_string e }

let run_admit ~s_points (p : P.admit_params) two_class =
  supervise (fun () ->
      let r =
        {
          Admission.base = scenario_of p;
          guarantee = { Admission.deadline = p.P.deadline; epsilon = p.P.epsilon };
        }
      in
      let d = Admission.decide ~s_points r ~scheduler:two_class in
      R_bound { bound = d.Admission.bound; ok = Diag.ok d.Admission.diag })

let run_check (p : P.admit_params) =
  supervise (fun () ->
      let fs =
        Contracts.check_guarantee ~deadline:p.P.deadline ~epsilon:p.P.epsilon
        @ Contracts.check_scenario (scenario_of p)
      in
      R_check (List.map Contracts.code fs))

let run_poison () =
  supervise (fun () -> failwith "debug-fail: deliberately poisoned request")

(* ---------------- the batch pipeline ---------------- *)

type job = {
  j_id : string option;
  j_trace : string;
  j_params : P.admit_params;
  j_two_class : Classes.two_class;
  j_entry : entry;
  j_mode : P.mode;
  j_hit : bool;
  j_budget : float;
}

type plan =
  | Done of string
  | Compute of job
  | Poison of string option * string  (* id, trace *)

let serve_counters () =
  let snap = Telemetry.snapshot () in
  List.filter
    (fun (name, _) ->
      String.length name >= 6 && String.equal (String.sub name 0 6) "serve.")
    snap.Telemetry.counters

let stats_response ?id ?trace t =
  P.render_stats ?id ?trace ~uptime_s:(t.now () -. t.started) ~served:t.served_n
    ~cache_len:(Cache.length t.cache) ~cache_capacity:(Cache.capacity t.cache)
    ~cache_hits:t.n_hits ~cache_misses:t.n_misses ~shed:t.n_shed
    ~timeouts:t.n_timeouts ~errors:t.n_errors ~counters:(serve_counters ()) ()

let cache_length t = Cache.length t.cache
let served t = t.served_n

(* One batch's planning state: the time it started, and the compute
   jobs planned so far (all of them, and the exact ones). *)
type batch = {
  eng : t;
  start : float;
  mutable pending : int;
  mutable exact_assigned : int;
}

let elapsed_ms b = (b.eng.now () -. b.start) *. 1000.

(* a response without an elapsed field of its own: the access sample is
   read after it is written *)
let answered b ~trace ~outcome resp = access ~trace ~outcome ~elapsed_ms:(elapsed_ms b) resp

let error_reply b id trace kind detail =
  Telemetry.Counter.incr c_errors;
  b.eng.n_errors <- b.eng.n_errors + 1;
  answered b ~trace ~outcome:O_error (P.render_error ?id ~trace ~kind ~detail ())

(* no stable s: treat like the parse-level stability rejection *)
let no_stable_s b id trace =
  Done
    (error_reply b id trace P.Unstable "no stable effective-bandwidth parameter exists")

(* an answer from the entry's memo: no compute, no bound formatting *)
let finish_memo b id trace (p : P.admit_params) mode ~hit m =
  let elapsed_ms = elapsed_ms b in
  let admitted = m.bound <= p.P.deadline in
  Telemetry.Counter.incr (if admitted then c_accepted else c_rejected);
  Telemetry.Histogram.observe h_latency elapsed_ms;
  Done
    (access ~trace ~outcome:(outcome_of_mode mode) ~elapsed_ms
       (P.render_admit ?id ~trace ~bound_text:m.text ~admitted ~bound_ms:m.bound
          ~deadline_ms:p.P.deadline ~mode ~cache_hit:hit ~elapsed_ms ()))

let enqueue b id trace p two_class e mode ~hit ~budget =
  b.pending <- b.pending + 1;
  {
    j_id = id;
    j_trace = trace;
    j_params = p;
    j_two_class = two_class;
    j_entry = e;
    j_mode = mode;
    j_hit = hit;
    j_budget = budget;
  }

let plan_admit b id trace (p : P.admit_params) =
  let t = b.eng in
  let budget = match p.P.budget_ms with Some x -> x | None -> t.cfg.budget_ms in
  let remaining = budget -. elapsed_ms b in
  let predicted_wait = float_of_int b.pending *. t.ewma_approx_ms in
  if b.pending >= t.cfg.max_queue || predicted_wait > remaining then begin
    (* refuse before spending: the hint is the time the current backlog
       needs to clear at the degraded service rate *)
    Telemetry.Counter.incr c_shed;
    t.n_shed <- t.n_shed + 1;
    Done
      (answered b ~trace ~outcome:O_shed
         (P.render_shed ?id ~trace
            ~retry_after_ms:(Float.max predicted_wait t.ewma_approx_ms) ()))
  end
  else begin
    let two_class = two_class_of p in
    let key = key_of p two_class in
    let found = Cache.find t.cache key in
    let hit = Option.is_some found in
    let entry =
      match found with
      | Some _ -> found
      | None ->
        let e = make_entry p in
        (match e with Some e -> Cache.put t.cache key e | None -> ());
        e
    in
    if hit then t.n_hits <- t.n_hits + 1 else t.n_misses <- t.n_misses + 1;
    match entry with
    | None -> no_stable_s b id trace
    | Some e -> (
      match e.e_exact with
      | Some m -> finish_memo b id trace p P.Exact ~hit m
      | None ->
        if
          float_of_int (b.exact_assigned + 1) *. t.ewma_exact_ms
          <= remaining *. degrade_ratio
        then begin
          b.exact_assigned <- b.exact_assigned + 1;
          Compute (enqueue b id trace p two_class e P.Exact ~hit ~budget)
        end
        else begin
          Telemetry.Counter.incr c_degraded;
          match e.e_approx with
          | Some m -> finish_memo b id trace p P.Approx ~hit m
          | None -> Compute (enqueue b id trace p two_class e P.Approx ~hit ~budget)
        end)
  end

let plan_line b line =
  let t = b.eng in
  Telemetry.Counter.incr c_requests;
  t.served_n <- t.served_n + 1;
  let trace = next_trace t in
  let id, parsed = P.parse ~max_bytes:t.cfg.max_line_bytes ~debug_ops:t.cfg.debug_ops line in
  match parsed with
  | Error { P.kind; detail } -> Done (error_reply b id trace kind detail)
  | Ok (P.Admit p) -> plan_admit b id trace p
  | Ok P.Stats -> Done (answered b ~trace ~outcome:O_ok (stats_response ?id ~trace t))
  | Ok P.Health ->
    Done
      (answered b ~trace ~outcome:O_ok
         (P.render_health ?id ~trace ~uptime_s:(t.now () -. t.started) ()))
  | Ok P.Metrics ->
    Done
      (answered b ~trace ~outcome:O_ok
         (P.render_metrics ?id ~trace ~prometheus:(Telemetry.Prometheus.render ()) ()))
  | Ok P.Debug_fail -> Poison (id, trace)
  | Ok (P.Check p) -> (
    match run_check p with
    | R_check findings ->
      Done (answered b ~trace ~outcome:O_ok (P.render_check ?id ~trace ~findings ()))
    | R_error { kind; detail } -> Done (error_reply b id trace kind detail)
    | R_bound _ -> Done (error_reply b id trace P.Internal "unexpected bound result"))

let rec plan_lines b plans i = function
  | [] -> ()
  | line :: rest ->
    plans.(i) <- plan_line b line;
    plan_lines b plans (i + 1) rest

(* [service_ms] is this job's own compute cost — that is what the EWMA
   service-time estimators predict from.  The user-facing budget check
   deliberately stays on elapsed-since-batch-start: queueing behind the
   rest of the batch counts against the client's deadline. *)
let finish_bound b ~service_ms (job : job) res =
  let t = b.eng in
  let p = job.j_params and id = job.j_id and trace = job.j_trace in
  let elapsed_ms = elapsed_ms b in
  (match job.j_mode with
  | P.Exact -> t.ewma_exact_ms <- ewma t.ewma_exact_ms service_ms
  | P.Approx -> t.ewma_approx_ms <- ewma t.ewma_approx_ms service_ms);
  match res with
  | R_error { kind; detail } -> error_reply b id trace kind detail
  | R_check _ -> error_reply b id trace P.Internal "unexpected check result"
  | R_bound { bound; ok } ->
    (* memoize before the budget check: a timed-out computation still
       warms the cache, so the client's retry is a hit.  A bound is kept
       only when its diagnostic converged, in either mode. *)
    let m =
      if not ok then None
      else begin
        let m = memo bound in
        (match job.j_mode with
        | P.Exact -> job.j_entry.e_exact <- Some m
        | P.Approx -> job.j_entry.e_approx <- Some m);
        Some m
      end
    in
    if elapsed_ms > job.j_budget then begin
      Telemetry.Counter.incr c_timeouts;
      t.n_timeouts <- t.n_timeouts + 1;
      access ~trace ~outcome:O_timeout ~elapsed_ms
        (P.render_timeout ?id ~trace ~elapsed_ms ~budget_ms:job.j_budget ())
    end
    else begin
      let admitted = ok && bound <= p.P.deadline in
      Telemetry.Counter.incr (if admitted then c_accepted else c_rejected);
      Telemetry.Histogram.observe h_latency elapsed_ms;
      access ~trace ~outcome:(outcome_of_mode job.j_mode) ~elapsed_ms
        (P.render_admit ?id ~trace
           ?bound_text:(match m with Some m -> Some m.text | None -> None)
           ~admitted ~bound_ms:bound ~deadline_ms:p.P.deadline ~mode:job.j_mode
           ~cache_hit:job.j_hit ~elapsed_ms ())
    end

(* One mode's compute phase: its jobs' results in request order, the
   index of the next one to render, and the per-job service time *)
type phase = { results : jres array; mutable next : int; service_ms : float }

(* Fan one mode's [count] jobs out on the default pool.  Each job is pure
   and individually supervised, so a poisoned request comes back as a
   value and the pool survives.  The per-job service time for the mode's
   estimator is the phase's wall time spread over its jobs: the marginal
   cost the linear predictor in [plan_admit] multiplies back up. *)
let is_exact = function P.Exact -> true | P.Approx -> false

let run_phase t plans mode ~count =
  if count = 0 then { results = [||]; next = 0; service_ms = 0. }
  else begin
    let exact = is_exact mode in
    let jobs =
      Array.of_list
        (Array.fold_right
           (fun p acc ->
             match p with
             | Compute j when Bool.equal (is_exact j.j_mode) exact -> j :: acc
             | Compute _ | Done _ | Poison _ -> acc)
           plans [])
    in
    let s_points = if exact then t.cfg.s_points else approx_s_points in
    let t0 = t.now () in
    let results =
      Parallel.Default.map (fun j -> run_admit ~s_points j.j_params j.j_two_class) jobs
    in
    let service_ms = (t.now () -. t0) *. 1000. /. float_of_int count in
    { results; next = 0; service_ms }
  end

let run_batch t lines n =
  let b = { eng = t; start = t.now (); pending = 0; exact_assigned = 0 } in
  let plans = Array.make n (Done "") in
  plan_lines b plans 0 lines;
  (* the cache maintains its own serve.cache.size gauge on mutation *)
  if !Telemetry.on then Telemetry.Gauge.set g_queue (float_of_int b.pending);
  let exact = run_phase t plans P.Exact ~count:b.exact_assigned in
  let approx = run_phase t plans P.Approx ~count:(b.pending - b.exact_assigned) in
  let replies = Array.make n "" in
  for i = 0 to n - 1 do
    replies.(i) <-
      (match plans.(i) with
      | Done s -> s
      | Poison (id, trace) -> (
        match run_poison () with
        | R_error { kind; detail } -> error_reply b id trace kind detail
        | R_bound _ | R_check _ -> error_reply b id trace P.Internal "poison returned a value")
      | Compute j ->
        let ph = match j.j_mode with P.Exact -> exact | P.Approx -> approx in
        let res = ph.results.(ph.next) in
        ph.next <- ph.next + 1;
        finish_bound b ~service_ms:ph.service_ms j res)
  done;
  Array.to_list replies

let handle_batch t lines =
  let n = List.length lines in
  if !Telemetry.on then
    Telemetry.span "serve.batch" ~attrs:[ ("n", Telemetry.Int n) ] (fun () ->
        run_batch t lines n)
  else run_batch t lines n

let handle_line t line =
  match handle_batch t [ line ] with
  | [ r ] -> r
  | _ -> P.render_error ~kind:P.Internal ~detail:"batch arity mismatch" ()
