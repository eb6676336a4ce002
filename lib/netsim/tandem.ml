(* Tandem-network simulation with virtual-delay measurement.

   Two engines produce the same observable result record from one
   [config], one validation and one RNG stream setup:
   - [Slotted]: the original time-stepped loop — one pass per slot over
     every node.  The reference semantics ("the oracle").
   - [Event]: the heap-based engine over [Desim.Engine], on one of two
     paths.  Lockstep (slot-aligned configs: no propagation delay, no
     loss) reuses [Queue_node] at slot granularity but touches a node
     only on slots where it is occupied or receives an offer; sources
     and fault processes still advance once per slot in the slotted
     per-stream order, so the delay samples are reproduced bit for bit
     while idle (node, slot) pairs are skipped.  Continuous (propagation
     delay and/or loss) runs the same [Queue_node]s on their continuous
     clock, with service completions, per-hop propagation and Bernoulli
     link loss as events: statistically equivalent to a slotted run,
     not sample-identical. *)

type engine = Slotted | Event

type source_kind =
  | Markov
  | Cbr of { period : int; burst : float }

type config = {
  h : int;
  capacity : float;
  capacities : float array option;
  source : Envelope.Mmpp.t;
  through_kind : source_kind;
  n_through : int;
  n_cross : int;
  scheduler : Scheduler.Classes.two_class;
  through_deadline : float;
  cross_deadline : float;
  slots : int;
  drain_limit : int;
  seed : int64;
  gps_weights : (float * float) option;
  packet_size : float option;
  faults : (int * Faults.spec) list;
  prop_delay : float array option;
  loss : float array option;
}

let default_config =
  {
    h = 2;
    capacity = 100.;
    capacities = None;
    source = Envelope.Mmpp.paper_source;
    through_kind = Markov;
    n_through = 100;
    n_cross = 233;
    scheduler = Scheduler.Classes.Fifo;
    through_deadline = 10.;
    cross_deadline = 10.;
    slots = 20_000;
    drain_limit = 5_000;
    seed = 42L;
    gps_weights = None;
    packet_size = None;
    faults = [];
    prop_delay = None;
    loss = None;
  }

type result = {
  delays : Desim.Stats.Sample.t;
  through_backlog : Desim.Stats.Sample.t;
  through_kb : float;
  censored_kb : float;
  lost_kb : float;
  utilization : float array;
  fault_factor : float array;
  events_processed : int;
}

let through_class = 0
let cross_class = 1

(* the tolerance of [Desim.Stats.virtual_delays]: the lockstep path's
   samples equal the slotted ones only under the same threshold *)
let sweep_eps = 1e-6

let c_sim_slots = Telemetry.Counter.make "netsim.tandem.slots"
let g_backlog_hwm = Telemetry.Gauge.make "netsim.tandem.backlog_hwm"
let c_events = Telemetry.Counter.make "netsim.desim.events"
let g_heap_hwm = Telemetry.Gauge.make "netsim.desim.heap_hwm"

let node_capacities cfg =
  match cfg.capacities with
  | Some caps -> Array.copy caps
  | None -> Array.make cfg.h cfg.capacity

let slot_aligned cfg = Option.is_none cfg.prop_delay && Option.is_none cfg.loss

(* The node discipline, then every check a run makes; raises
   [Invalid_argument] on the first bad field.  A bad GPS weight is
   reported by [Scheduler.Gps.v], before the other fields. *)
let validate cfg =
  let discipline =
    match cfg.gps_weights with
    | Some (w_through, w_cross) ->
      Queue_node.Gps (Scheduler.Gps.v ~weights:[| w_through; w_cross |])
    | None ->
      Queue_node.Delta_policy
        (Scheduler.Policy.of_two_class cfg.scheduler ~through_deadline:cfg.through_deadline
           ~cross_deadline:cfg.cross_deadline)
  in
  if cfg.h <= 0 then invalid_arg "Tandem.run: non-positive path length";
  if cfg.slots <= 0 then invalid_arg "Tandem.run: non-positive horizon";
  (match cfg.capacities with
  | Some caps when Array.length caps <> cfg.h ->
    invalid_arg "Tandem.run: capacities arity mismatch"
  | _ -> ());
  Array.iter
    (fun c -> if c <= 0. then invalid_arg "Tandem.run: non-positive capacity")
    (node_capacities cfg);
  (match cfg.through_kind with
  | Markov -> ()
  | Cbr { period; burst } ->
    if period <= 0 then invalid_arg "Tandem.run: non-positive CBR period";
    if burst <= 0. then invalid_arg "Tandem.run: non-positive CBR burst");
  (match cfg.prop_delay with
  | None -> ()
  | Some d ->
    if Array.length d <> cfg.h then invalid_arg "Tandem.run: prop_delay arity mismatch";
    Array.iter
      (fun x ->
        if Float.is_nan x || x < 0. then
          invalid_arg "Tandem.run: negative propagation delay")
      d);
  (match cfg.loss with
  | None -> ()
  | Some l ->
    if Array.length l <> cfg.h then invalid_arg "Tandem.run: loss arity mismatch";
    Array.iter
      (fun x ->
        if Float.is_nan x || x < 0. || x > 1. then
          invalid_arg "Tandem.run: loss probability outside [0, 1]")
      l);
  List.iteri
    (fun k (i, spec) ->
      if i < 0 || i >= cfg.h then
        invalid_arg
          (Printf.sprintf "Tandem.run: fault spec for node %d outside 0..%d" i (cfg.h - 1));
      if List.exists (fun (j, _) -> j = i) (List.filteri (fun k' _ -> k' < k) cfg.faults) then
        invalid_arg (Printf.sprintf "Tandem.run: duplicate fault spec for node %d" i);
      Faults.validate spec)
    cfg.faults;
  discipline

type setup = {
  caps : float array;
  nodes : Queue_node.t array;
  through_src : Source.t option;  (* None for a CBR or empty through aggregate *)
  cross_srcs : Source.t array;
  fault_procs : Faults.process option array;
  rng : Desim.Prng.t;  (* parent stream, for draws after the canonical ones *)
}

(* A run's nodes and stochastic processes, with the RNG stream derivation
   every engine shares: the through source, one cross source per node in
   node order, then one fault process per faulted node in node order.
   The through stream is split off even for a CBR or empty through
   aggregate, so the cross and fault streams do not depend on the
   through-source kind; the fault streams come after the sources, so a
   fault-free run draws exactly what it drew before faults existed.
   Identical derivation is what makes the engines' samples
   bit-identical. *)
let setup cfg discipline =
  let rng = Desim.Prng.create ~seed:cfg.seed in
  let through_rng = Desim.Prng.split rng in
  (* every aggregate shares one source, so its gap tables are built once *)
  let laws = Source.laws cfg.source in
  let through_src =
    match cfg.through_kind with
    | Markov when cfg.n_through > 0 ->
      Some (Source.create ~laws cfg.source ~n:cfg.n_through ~rng:through_rng)
    | Markov | Cbr _ -> None
  in
  let cross_srcs =
    Array.init cfg.h (fun _ ->
        Source.create ~laws cfg.source ~n:cfg.n_cross ~rng:(Desim.Prng.split rng))
  in
  let fault_procs =
    Array.init cfg.h (fun i ->
        Option.map (fun spec -> Faults.make ~rng:(Desim.Prng.split rng) spec)
          (List.assoc_opt i cfg.faults))
  in
  let caps = node_capacities cfg in
  let nodes =
    Array.init cfg.h (fun i ->
        Queue_node.create ?packet_size:cfg.packet_size ~capacity:caps.(i) ~classes:2
          discipline)
  in
  { caps; nodes; through_src; cross_srcs; fault_procs; rng }

let mean_factors = Array.map (function None -> 1. | Some pr -> Faults.mean_factor pr)

(* ------------------------------ slotted ------------------------------ *)

let run_slotted cfg discipline =
  if not (slot_aligned cfg) then
    invalid_arg
      "Tandem.run: propagation delay / loss need the event engine (~engine:Event)";
  let { caps; nodes; through_src; cross_srcs; fault_procs; rng = _ } = setup cfg discipline in
  let total_slots = cfg.slots + cfg.drain_limit in
  (* Cumulative through arrivals into node 0 and departures from node h-1,
     indexed by slot. *)
  let cum_in = Array.make cfg.slots 0. in
  let cum_out = Array.make total_slots 0. in
  let served_total = Array.make cfg.h 0. in
  let through_backlog = Desim.Stats.Sample.create () in
  (* Data departing node i in slot t is offered to node i+1 at slot t+1. *)
  let pending = Array.make cfg.h 0. in
  let acc_in = ref 0. and acc_out = ref 0. in
  for t = 0 to total_slots - 1 do
    let now = float_of_int t in
    (* Through arrivals (only during the arrival horizon). *)
    if t < cfg.slots then begin
      let a =
        match (cfg.through_kind, through_src) with
        | (Cbr { period; burst }, _) -> if t mod period = 0 then burst else 0.
        | (Markov, Some src) -> Source.step src
        | (Markov, None) -> 0.
      in
      acc_in := !acc_in +. a;
      cum_in.(t) <- !acc_in;
      Queue_node.offer nodes.(0) ~now ~cls:through_class a
    end;
    (* Forward last slot's inter-node departures. *)
    for i = 1 to cfg.h - 1 do
      Queue_node.offer nodes.(i) ~now ~cls:through_class pending.(i);
      pending.(i) <- 0.
    done;
    (* Fresh cross traffic at every node. *)
    for i = 0 to cfg.h - 1 do
      Queue_node.offer nodes.(i) ~now ~cls:cross_class (Source.step cross_srcs.(i))
    done;
    (* Serve every node, each fault process advancing once per slot. *)
    for i = 0 to cfg.h - 1 do
      let node = nodes.(i) in
      let dep =
        match fault_procs.(i) with
        | None -> Queue_node.serve_slot node
        | Some pr -> Queue_node.serve_slot ~factor:(Faults.step pr) node
      in
      served_total.(i) <- served_total.(i) +. dep.(through_class) +. dep.(cross_class);
      if i < cfg.h - 1 then pending.(i + 1) <- dep.(through_class)
      else acc_out := !acc_out +. dep.(through_class)
    done;
    cum_out.(t) <- !acc_out;
    (* total through data inside the network (queues + inter-node flight),
       each sum a left fold from 0. *)
    if t < cfg.slots then begin
      let q = ref 0. in
      for i = 0 to cfg.h - 1 do
        q := !q +. Queue_node.backlog_of nodes.(i) ~cls:through_class
      done;
      let inflight = ref 0. in
      for i = 0 to cfg.h - 1 do
        inflight := !inflight +. pending.(i)
      done;
      Desim.Stats.Sample.add through_backlog (!q +. !inflight)
    end
  done;
  let (delays, censored) = Desim.Stats.virtual_delays ~cum_in ~cum_out in
  let utilization =
    Array.mapi (fun i s -> s /. (caps.(i) *. float_of_int total_slots)) served_total
  in
  let fault_factor = mean_factors fault_procs in
  if Telemetry.is_enabled () then begin
    Telemetry.Counter.add c_sim_slots total_slots;
    Array.iteri
      (fun i node ->
        Telemetry.Gauge.set g_backlog_hwm (Queue_node.high_water node);
        Telemetry.event "tandem.node"
          ~attrs:
            [
              ("node", Telemetry.Int i);
              ("utilization", Telemetry.Float utilization.(i));
              ("backlog_hwm", Telemetry.Float (Queue_node.high_water node));
              ("fault_factor", Telemetry.Float fault_factor.(i));
              ( "fault_transitions",
                Telemetry.Int (Option.fold ~none:0 ~some:Faults.transitions fault_procs.(i)) );
            ])
      nodes;
    Telemetry.event "tandem.done"
      ~attrs:
        [
          ("through_kb", Telemetry.Float !acc_in);
          ("censored_kb", Telemetry.Float censored);
          ("delay_samples", Telemetry.Int (Desim.Stats.Sample.count delays));
        ]
  end;
  {
    delays;
    through_backlog;
    through_kb = !acc_in;
    censored_kb = censored;
    lost_kb = 0.;
    utilization;
    fault_factor;
    events_processed = 0;
  }

(* ------------------------------- event ------------------------------- *)

type ev =
  | Tick  (* per-slot advance of every stochastic process *)
  | Cbr_emit
  | Offer of { node : int; cls : int; size : float }
  | Serve of int  (* lockstep: slot-serve of one node *)
  | Complete of { node : int; gen : int }  (* continuous *)

(* Virtual delays by the same two-pointer threshold sweep as
   [Desim.Stats.virtual_delays], over sparse cumulative-counter change
   points: continuous times are not slots. *)
let sweep_delays ~in_pts ~out_pts =
  let delays = Desim.Stats.Sample.create () in
  let censored = ref 0. in
  let out = ref out_pts in
  List.iter
    (fun (t, cum, inc) ->
      let target = cum -. sweep_eps in
      let rec advance () =
        match !out with
        | (_, c) :: rest when c < target ->
          out := rest;
          advance ()
        | _ -> ()
      in
      advance ();
      match !out with
      | (u, _) :: _ -> Desim.Stats.Sample.add delays (Float.max 0. (u -. t))
      | [] -> censored := !censored +. inc)
    in_pts;
  (delays, !censored)

(* Through data inside the network at the end of each arrival-phase slot,
   reconstructed as cum_in - cum_out over the change points (conservation:
   queued + in-flight = arrived - departed). *)
let backlog_trace ~slots ~in_pts ~out_pts =
  let sample = Desim.Stats.Sample.create () in
  let in_ref = ref in_pts and out_ref = ref out_pts in
  let cin = ref 0. and cout = ref 0. in
  for t = 0 to slots - 1 do
    let tf = float_of_int t in
    let rec adv_in () =
      match !in_ref with
      | (u, c, _) :: rest when u <= tf ->
        cin := c;
        in_ref := rest;
        adv_in ()
      | _ -> ()
    in
    let rec adv_out () =
      match !out_ref with
      | (u, c) :: rest when u <= tf ->
        cout := c;
        out_ref := rest;
        adv_out ()
      | _ -> ()
    in
    adv_in ();
    adv_out ();
    Desim.Stats.Sample.add sample (Float.max 0. (!cin -. !cout))
  done;
  sample

(* Slots during which the per-slot Tick runs: the through source's
   arrival horizon, or the whole run while cross traffic or a fault
   process is live. *)
let tick_until cfg s =
  Stdlib.max
    (if Option.is_some s.through_src then cfg.slots else 0)
    (if cfg.n_cross > 0 || Array.exists Option.is_some s.fault_procs then
       cfg.slots + cfg.drain_limit
     else 0)

(* The first Tick and the first CBR emission. *)
let start eng cfg s =
  if tick_until cfg s > 0 then
    Desim.Engine.schedule eng ~time:0. ~kind:Desim.Engine.Source_change Tick;
  match cfg.through_kind with
  | Cbr _ -> Desim.Engine.schedule eng ~time:0. ~kind:Desim.Engine.Source_change Cbr_emit
  | Markov -> ()

(* The burst of the CBR emission at slot [t]; schedules the next one. *)
let cbr_burst eng cfg t =
  match cfg.through_kind with
  | Cbr { period; burst } ->
    if t + period < cfg.slots then
      Desim.Engine.schedule eng ~time:(float_of_int (t + period))
        ~kind:Desim.Engine.Source_change Cbr_emit;
    burst
  | Markov -> assert false

(* Assemble (and report) a finished event run from its change points. *)
let outcome eng s ~in_pts ~out_pts ~through_backlog ~through_kb ~lost_kb ~utilization =
  let (delays, censored_kb) = sweep_delays ~in_pts ~out_pts in
  let events_processed = Desim.Engine.events_processed eng in
  if Telemetry.is_enabled () then begin
    let heap_hwm = Desim.Engine.heap_high_water eng in
    Telemetry.Counter.add c_events events_processed;
    Telemetry.Gauge.set g_heap_hwm (float_of_int heap_hwm);
    Telemetry.event "tandem.done"
      ~attrs:
        [
          ("engine", Telemetry.Str "event");
          ("events", Telemetry.Int events_processed);
          ("heap_hwm", Telemetry.Int heap_hwm);
          ("through_kb", Telemetry.Float through_kb);
          ("censored_kb", Telemetry.Float censored_kb);
          ("delay_samples", Telemetry.Int (Desim.Stats.Sample.count delays));
        ]
  end;
  {
    delays;
    through_backlog;
    through_kb;
    censored_kb;
    lost_kb;
    utilization;
    fault_factor = mean_factors s.fault_procs;
    events_processed;
  }

(* Lockstep path: slot-quantized, bit-identical to the slotted engine. *)
let run_lockstep cfg s =
  let nodes = s.nodes in
  let total_slots = cfg.slots + cfg.drain_limit in
  let tick_until = tick_until cfg s in
  let factor_cache = Array.make cfg.h 1. in
  let serve_at = Array.make cfg.h (-1) in
  let served_total = Array.make cfg.h 0. in
  let acc_in = ref 0. and acc_out = ref 0. in
  let in_pts = ref [] and out_pts = ref [] in
  (* End-of-slot through backlog, computed with the slotted loop's exact
     arithmetic (left fold over per-node backlogs, plus this slot's
     inter-node departures) so the samples are bit-identical.  Node state
     is frozen between events, so slots without events reuse the folded
     value instead of touching every node again. *)
  let through_backlog = Desim.Stats.Sample.create () in
  let pending = Array.make cfg.h 0. in
  let pending_slot = ref (-1) in
  let note_pending t i dep =
    if !pending_slot <> t then begin
      Array.fill pending 0 cfg.h 0.;
      pending_slot := t
    end;
    pending.(i) <- dep
  in
  let sampled_upto = ref (-1) in
  let sample_upto lim =
    let lim = Stdlib.min lim (cfg.slots - 1) in
    if lim > !sampled_upto then begin
      let q =
        Array.fold_left
          (fun acc node -> acc +. Queue_node.backlog_of node ~cls:through_class)
          0. nodes
      in
      for t = !sampled_upto + 1 to lim do
        let inflight =
          if t = !pending_slot then Array.fold_left ( +. ) 0. pending else 0.
        in
        Desim.Stats.Sample.add through_backlog (q +. inflight)
      done;
      sampled_upto := lim
    end
  in
  let eng : ev Desim.Engine.t = Desim.Engine.create () in
  let ensure_serve i t =
    if t < total_slots && serve_at.(i) <> t then begin
      serve_at.(i) <- t;
      Desim.Engine.schedule eng ~time:(float_of_int t) ~kind:Desim.Engine.Service_completion
        (Serve i)
    end
  in
  let through_in t a =
    if a > 0. then begin
      let before = !acc_in in
      acc_in := before +. a;
      (* the slotted sweep derives each slot's increment as
         cum_in.(t) -. cum_in.(t-1), a float difference that can drift an
         ulp from the raw arrival [a] (and round to zero outright when [a]
         is tiny against the cumulative); replicate both the difference
         and its > 0 gate so censored accounting matches bit for bit *)
      let inc = !acc_in -. before in
      if inc > 0. then in_pts := (float_of_int t, !acc_in, inc) :: !in_pts;
      Queue_node.offer nodes.(0) ~now:(float_of_int t) ~cls:through_class a;
      ensure_serve 0 t
    end
  in
  let handler _ (event : ev Desim.Engine.event) =
    let t = int_of_float event.Desim.Engine.time in
    match event.Desim.Engine.payload with
    | Tick ->
      (match s.through_src with
      | Some src when t < cfg.slots -> through_in t (Source.step src)
      | _ -> ());
      if cfg.n_cross > 0 then
        Array.iteri
          (fun i src ->
            let c = Source.step src in
            if c > 0. then begin
              Queue_node.offer nodes.(i) ~now:(float_of_int t) ~cls:cross_class c;
              ensure_serve i t
            end)
          s.cross_srcs;
      Array.iteri
        (fun i proc ->
          match proc with Some pr -> factor_cache.(i) <- Faults.step pr | None -> ())
        s.fault_procs;
      if t + 1 < tick_until then
        Desim.Engine.schedule eng ~time:(float_of_int (t + 1)) ~kind:Desim.Engine.Source_change
          Tick
    | Cbr_emit -> through_in t (cbr_burst eng cfg t)
    | Offer { node; cls; size } ->
      Queue_node.offer nodes.(node) ~now:(float_of_int t) ~cls size;
      ensure_serve node t
    | Serve i ->
      let dep = Queue_node.serve_slot ~factor:factor_cache.(i) nodes.(i) in
      served_total.(i) <- served_total.(i) +. dep.(through_class) +. dep.(cross_class);
      if i < cfg.h - 1 then begin
        note_pending t (i + 1) dep.(through_class);
        if dep.(through_class) > 0. && t + 1 < total_slots then
          Desim.Engine.schedule eng ~time:(float_of_int (t + 1)) ~kind:Desim.Engine.Arrival
            (Offer { node = i + 1; cls = through_class; size = dep.(through_class) })
      end
      else if dep.(through_class) > 0. then begin
        acc_out := !acc_out +. dep.(through_class);
        out_pts := (float_of_int t, !acc_out) :: !out_pts
      end;
      if Queue_node.occupied nodes.(i) then ensure_serve i (t + 1)
    | Complete _ -> assert false
  in
  start eng cfg s;
  let rec drain () =
    match Desim.Engine.next eng with
    | None -> ()
    | Some event ->
      (* The clock moved past every slot before this event's; their
         end-of-slot states are final, so sample them now. *)
      sample_upto (int_of_float event.Desim.Engine.time - 1);
      handler eng event;
      drain ()
  in
  drain ();
  sample_upto (cfg.slots - 1);
  outcome eng s ~in_pts:(List.rev !in_pts) ~out_pts:(List.rev !out_pts) ~through_backlog
    ~through_kb:!acc_in ~lost_kb:0.
    ~utilization:
      (Array.mapi (fun i x -> x /. (s.caps.(i) *. float_of_int total_slots)) served_total)

(* Continuous path: heterogeneous rates, propagation delay, link loss. *)
let run_continuous cfg s =
  let nodes = s.nodes in
  let loss = match cfg.loss with None -> Array.make cfg.h 0. | Some l -> Array.copy l in
  (* per-link loss streams are split after the canonical ones *)
  let loss_rngs =
    Array.map (fun q -> if q > 0. then Some (Desim.Prng.split s.rng) else None) loss
  in
  let prop =
    match cfg.prop_delay with
    | Some d -> Array.copy d
    (* Default mirrors slotted store-and-forward: one slot per internal
       hop, immediate delivery from the last node to the sink. *)
    | None -> Array.init cfg.h (fun i -> if i < cfg.h - 1 then 1. else 0.)
  in
  let horizon = float_of_int (cfg.slots + cfg.drain_limit) in
  let tick_until = tick_until cfg s in
  let acc_in = ref 0. and acc_out = ref 0. and lost = ref 0. in
  let in_pts = ref [] and out_pts = ref [] in
  let eng : ev Desim.Engine.t = Desim.Engine.create () in
  let reschedule i =
    let g = Queue_node.bump nodes.(i) in
    let tc = Queue_node.next_completion nodes.(i) in
    if tc <= horizon then
      Desim.Engine.schedule eng
        ~time:(Float.max tc (Desim.Engine.now eng))
        ~kind:Desim.Engine.Service_completion
        (Complete { node = i; gen = g })
  in
  let deliver i now =
    List.iter
      (fun (cls, size) ->
        if cls = through_class then begin
          let dropped =
            match loss_rngs.(i) with
            | Some lr -> Desim.Prng.bernoulli lr ~p:loss.(i)
            | None -> false
          in
          if dropped then lost := !lost +. size
          else begin
            let at = now +. prop.(i) in
            if i < cfg.h - 1 then begin
              if at <= horizon then
                Desim.Engine.schedule eng ~time:at ~kind:Desim.Engine.Arrival
                  (Offer { node = i + 1; cls = through_class; size })
            end
            else if at <= horizon then begin
              acc_out := !acc_out +. size;
              out_pts := (at, !acc_out) :: !out_pts
            end
          end
        end)
      (Queue_node.take_completions nodes.(i))
  in
  let touch i now =
    deliver i now;
    reschedule i
  in
  let offer_node i ~now ~cls size =
    Queue_node.sync nodes.(i) ~now;
    Queue_node.offer nodes.(i) ~now ~cls size;
    touch i now
  in
  let through_in t a =
    if a > 0. then begin
      let tf = float_of_int t in
      acc_in := !acc_in +. a;
      in_pts := (tf, !acc_in, a) :: !in_pts;
      offer_node 0 ~now:tf ~cls:through_class a
    end
  in
  let handler _ (event : ev Desim.Engine.event) =
    let now = event.Desim.Engine.time in
    let t = int_of_float now in
    match event.Desim.Engine.payload with
    | Tick ->
      (match s.through_src with
      | Some src when t < cfg.slots -> through_in t (Source.step src)
      | _ -> ());
      if cfg.n_cross > 0 then
        Array.iteri
          (fun i src ->
            let c = Source.step src in
            if c > 0. then offer_node i ~now ~cls:cross_class c)
          s.cross_srcs;
      Array.iteri
        (fun i proc ->
          match proc with
          | None -> ()
          | Some pr ->
            let f = Faults.step pr in
            if not (Float.equal f (Queue_node.factor nodes.(i))) then begin
              Queue_node.set_factor nodes.(i) ~now f;
              touch i now
            end)
        s.fault_procs;
      if t + 1 < tick_until then
        Desim.Engine.schedule eng ~time:(float_of_int (t + 1)) ~kind:Desim.Engine.Source_change
          Tick
    | Cbr_emit -> through_in t (cbr_burst eng cfg t)
    | Offer { node; cls; size } -> offer_node node ~now ~cls size
    | Complete { node; gen } ->
      if gen = Queue_node.gen nodes.(node) then begin
        Queue_node.sync nodes.(node) ~now;
        touch node now
      end
    | Serve _ -> assert false
  in
  start eng cfg s;
  Desim.Engine.run eng handler;
  let in_pts = List.rev !in_pts and out_pts = List.rev !out_pts in
  outcome eng s ~in_pts ~out_pts
    ~through_backlog:(backlog_trace ~slots:cfg.slots ~in_pts ~out_pts)
    ~through_kb:!acc_in ~lost_kb:!lost
    ~utilization:
      (Array.mapi
         (fun i node ->
           (Queue_node.served_of node ~cls:through_class
           +. Queue_node.served_of node ~cls:cross_class)
           /. (s.caps.(i) *. horizon))
         nodes)

(* ------------------------------ entry ------------------------------ *)

let engine_to_string = function Slotted -> "slotted" | Event -> "event"

let run ?(engine = Slotted) cfg =
  let discipline = validate cfg in
  Telemetry.span "netsim.tandem.run"
    ~attrs:
      [
        ("h", Telemetry.Int cfg.h);
        ("slots", Telemetry.Int cfg.slots);
        ("engine", Telemetry.Str (engine_to_string engine));
      ]
  @@ fun () ->
  match engine with
  | Slotted -> run_slotted cfg discipline
  | Event ->
    let s = setup cfg discipline in
    if slot_aligned cfg then run_lockstep cfg s else run_continuous cfg s

let engine_of_string = function
  | "slotted" -> Ok Slotted
  | "event" -> Ok Event
  | s -> Error (Printf.sprintf "unknown engine %S (slotted | event)" s)

let delay_quantile r q = Desim.Stats.Sample.quantile r.delays q

let check cfg =
  match validate cfg with
  | (_ : Queue_node.discipline) -> Ok ()
  | exception Invalid_argument msg -> Error msg

let of_utilization ?(faults = []) ~h ~u_through ~u_cross ~slots ~scheduler ~seed () =
  let mean = Envelope.Mmpp.mean_rate default_config.source in
  let flows u = int_of_float (Float.round (u *. default_config.capacity /. mean)) in
  let d_through = 10. in
  {
    default_config with
    h;
    n_through = flows u_through;
    n_cross = flows u_cross;
    slots;
    drain_limit = slots / 10;
    scheduler = Scheduler.Kind.two_class ~d_through scheduler;
    through_deadline = d_through;
    cross_deadline =
      (match scheduler with
      | Scheduler.Kind.Edf { cross_over_through } -> d_through *. cross_over_through
      | Scheduler.Kind.(Fifo | Bmux | Sp) -> d_through);
    seed;
    faults;
  }

let q99_growth ?engine ~u ~slots () =
  List.map
    (fun h ->
      let cfg =
        of_utilization ~h ~u_through:u ~u_cross:u ~slots ~scheduler:Scheduler.Kind.Fifo
          ~seed:(Int64.of_int (4242 + h)) ()
      in
      (float_of_int h, delay_quantile (run ?engine cfg) 0.99))
    [ 2; 4; 8; 16; 32 ]
