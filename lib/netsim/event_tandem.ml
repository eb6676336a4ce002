(* Event-driven tandem simulation over [Desim.Engine].

   Two fidelity paths share the scenario description:

   - Lockstep (slot-aligned configs, i.e. no propagation delay and no
     loss): reuses [Queue_node] at slot granularity but touches a node
     only on slots where it is occupied or receives an offer.  Stochastic
     sources and fault processes still advance once per slot in the same
     per-stream order as [Tandem.run], so the arrival trajectories — and
     therefore the per-flow delay samples — are reproduced {e exactly}.
     The win over the slotted loop is skipping all idle (node, slot)
     pairs: on sparse scenarios events scale with traffic, not with
     [slots * h].

   - Continuous (heterogeneous configs with propagation delay and/or
     loss): the same [Queue_node]s on their continuous clock, with
     per-node rates; service completions, per-hop propagation and Bernoulli
     link loss are events.  Statistically equivalent to — but not
     sample-identical with — a slotted run, which is what the
     quantile-envelope differential tests assert. *)

type source_kind =
  | Markov
  | Cbr of { period : int; burst : float }

type params = {
  h : int;
  capacities : float array;  (* per node, length h *)
  discipline : Queue_node.discipline;
  packet_size : float option;
  source : Envelope.Mmpp.t;
  through_kind : source_kind;
  n_through : int;
  n_cross : int;
  slots : int;
  drain_limit : int;
  seed : int64;
  faults : (int * Faults.spec) list;
  prop_delay : float array option;  (* length h; delay after node i *)
  loss : float array option;  (* length h; drop probability after node i *)
}

type outcome = {
  delays : Desim.Stats.Sample.t;
  through_backlog : Desim.Stats.Sample.t;
  through_kb : float;
  censored_kb : float;
  lost_kb : float;
  utilization : float array;
  fault_factor : float array;
  events_processed : int;
}

let slot_aligned p = Option.is_none p.prop_delay && Option.is_none p.loss

let through_class = 0
let cross_class = 1
let sweep_eps = 1e-6

let c_events = Telemetry.Counter.make "netsim.desim.events"
let g_heap_hwm = Telemetry.Gauge.make "netsim.desim.heap_hwm"

type ev =
  | Tick  (* per-slot advance of every stochastic process *)
  | Cbr_emit
  | Offer of { node : int; cls : int; size : float }
  | Serve of int  (* lockstep: slot-serve of one node *)
  | Complete of { node : int; gen : int }  (* continuous *)

type setup = {
  nodes : Queue_node.t array;
  through_src : Source.t option;
  cross_srcs : Source.t array;
  fault_procs : Faults.process option array;
  rng : Desim.Prng.t;
}

(* A run's nodes and stochastic processes, with the RNG stream derivation
   every engine shares.  The through stream is split off even for a CBR
   or empty through aggregate, so the cross and fault streams do not
   depend on the through-source kind; the fault streams come after the
   sources, so a fault-free run draws exactly what it drew before faults
   existed. *)
let setup p =
  let rng = Desim.Prng.create ~seed:p.seed in
  let through_rng = Desim.Prng.split rng in
  (* every aggregate shares one source, so its gap tables are built once *)
  let laws = Source.laws p.source in
  let through_src =
    match p.through_kind with
    | Markov when p.n_through > 0 ->
      Some (Source.create ~laws p.source ~n:p.n_through ~rng:through_rng)
    | Markov | Cbr _ -> None
  in
  let cross_srcs =
    Array.init p.h (fun _ ->
        Source.create ~laws p.source ~n:p.n_cross ~rng:(Desim.Prng.split rng))
  in
  let fault_procs =
    Array.init p.h (fun i ->
        Option.map (fun spec -> Faults.make ~rng:(Desim.Prng.split rng) spec)
          (List.assoc_opt i p.faults))
  in
  let nodes =
    Array.init p.h (fun i ->
        Queue_node.create ?packet_size:p.packet_size ~capacity:p.capacities.(i) ~classes:2
          p.discipline)
  in
  { nodes; through_src; cross_srcs; fault_procs; rng }

let mean_factors = Array.map (function None -> 1. | Some pr -> Faults.mean_factor pr)

let validate p =
  if p.h <= 0 then invalid_arg "Tandem.run: non-positive path length";
  if p.slots <= 0 then invalid_arg "Tandem.run: non-positive horizon";
  if Array.length p.capacities <> p.h then
    invalid_arg "Tandem.run: capacities arity mismatch";
  Array.iter
    (fun c -> if c <= 0. then invalid_arg "Tandem.run: non-positive capacity")
    p.capacities;
  (match p.through_kind with
  | Markov -> ()
  | Cbr { period; burst } ->
    if period <= 0 then invalid_arg "Tandem.run: non-positive CBR period";
    if burst <= 0. then invalid_arg "Tandem.run: non-positive CBR burst");
  (match p.prop_delay with
  | None -> ()
  | Some d ->
    if Array.length d <> p.h then invalid_arg "Tandem.run: prop_delay arity mismatch";
    Array.iter
      (fun x ->
        if Float.is_nan x || x < 0. then
          invalid_arg "Tandem.run: negative propagation delay")
      d);
  (match p.loss with
  | None -> ()
  | Some l ->
    if Array.length l <> p.h then invalid_arg "Tandem.run: loss arity mismatch";
    Array.iter
      (fun x ->
        if Float.is_nan x || x < 0. || x > 1. then
          invalid_arg "Tandem.run: loss probability outside [0, 1]")
      l);
  List.iteri
    (fun k (i, spec) ->
      if i < 0 || i >= p.h then
        invalid_arg (Printf.sprintf "Tandem.run: fault spec for node %d outside 0..%d" i (p.h - 1));
      if List.exists (fun (j, _) -> j = i) (List.filteri (fun k' _ -> k' < k) p.faults) then
        invalid_arg (Printf.sprintf "Tandem.run: duplicate fault spec for node %d" i);
      Faults.validate spec)
    p.faults

(* Virtual delays by the same two-pointer threshold sweep as the slotted
   engine, over sparse cumulative-counter change points. *)
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
let tick_until p s =
  Stdlib.max
    (if Option.is_some s.through_src then p.slots else 0)
    (if p.n_cross > 0 || Array.exists Option.is_some s.fault_procs then p.slots + p.drain_limit
     else 0)

(* The first Tick and the first CBR emission. *)
let start eng p s =
  if tick_until p s > 0 then
    Desim.Engine.schedule eng ~time:0. ~kind:Desim.Engine.Source_change Tick;
  match p.through_kind with
  | Cbr _ -> Desim.Engine.schedule eng ~time:0. ~kind:Desim.Engine.Source_change Cbr_emit
  | Markov -> ()

(* The burst of the CBR emission at slot [t]; schedules the next one. *)
let cbr_burst eng p t =
  match p.through_kind with
  | Cbr { period; burst } ->
    if t + period < p.slots then
      Desim.Engine.schedule eng ~time:(float_of_int (t + period))
        ~kind:Desim.Engine.Source_change Cbr_emit;
    burst
  | Markov -> assert false

(* Assemble (and report) a finished run from its change points. *)
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

(* ------------------------------------------------------------------ *)
(* Lockstep path: slot-quantized, bit-identical to the slotted engine. *)
(* ------------------------------------------------------------------ *)

let run_lockstep p =
  let s = setup p in
  let nodes = s.nodes in
  let total_slots = p.slots + p.drain_limit in
  let tick_until = tick_until p s in
  let factor_cache = Array.make p.h 1. in
  let serve_at = Array.make p.h (-1) in
  let served_total = Array.make p.h 0. in
  let acc_in = ref 0. and acc_out = ref 0. in
  let in_pts = ref [] and out_pts = ref [] in
  (* End-of-slot through backlog, computed with the slotted loop's exact
     arithmetic (left fold over per-node backlogs, plus this slot's
     inter-node departures) so the samples are bit-identical.  Node state
     is frozen between events, so slots without events reuse the folded
     value instead of touching every node again. *)
  let through_backlog = Desim.Stats.Sample.create () in
  let pending = Array.make p.h 0. in
  let pending_slot = ref (-1) in
  let note_pending t i dep =
    if !pending_slot <> t then begin
      Array.fill pending 0 p.h 0.;
      pending_slot := t
    end;
    pending.(i) <- dep
  in
  let sampled_upto = ref (-1) in
  let sample_upto lim =
    let lim = Stdlib.min lim (p.slots - 1) in
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
      | Some src when t < p.slots -> through_in t (Source.step src)
      | _ -> ());
      if p.n_cross > 0 then
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
    | Cbr_emit -> through_in t (cbr_burst eng p t)
    | Offer { node; cls; size } ->
      Queue_node.offer nodes.(node) ~now:(float_of_int t) ~cls size;
      ensure_serve node t
    | Serve i ->
      let dep = Queue_node.serve_slot ~factor:factor_cache.(i) nodes.(i) in
      served_total.(i) <- served_total.(i) +. dep.(through_class) +. dep.(cross_class);
      if i < p.h - 1 then begin
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
  start eng p s;
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
  sample_upto (p.slots - 1);
  outcome eng s ~in_pts:(List.rev !in_pts) ~out_pts:(List.rev !out_pts) ~through_backlog
    ~through_kb:!acc_in ~lost_kb:0.
    ~utilization:
      (Array.mapi (fun i x -> x /. (p.capacities.(i) *. float_of_int total_slots)) served_total)

(* ------------------------------------------------------------------- *)
(* Continuous path: heterogeneous rates, propagation delay, link loss.  *)
(* ------------------------------------------------------------------- *)

let run_continuous p =
  let s = setup p in
  let nodes = s.nodes in
  let loss = match p.loss with None -> Array.make p.h 0. | Some l -> Array.copy l in
  (* per-link loss streams are split after the canonical ones *)
  let loss_rngs =
    Array.map (fun q -> if q > 0. then Some (Desim.Prng.split s.rng) else None) loss
  in
  let prop =
    match p.prop_delay with
    | Some d -> Array.copy d
    (* Default mirrors slotted store-and-forward: one slot per internal
       hop, immediate delivery from the last node to the sink. *)
    | None -> Array.init p.h (fun i -> if i < p.h - 1 then 1. else 0.)
  in
  let horizon = float_of_int (p.slots + p.drain_limit) in
  let tick_until = tick_until p s in
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
            if i < p.h - 1 then begin
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
      | Some src when t < p.slots -> through_in t (Source.step src)
      | _ -> ());
      if p.n_cross > 0 then
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
    | Cbr_emit -> through_in t (cbr_burst eng p t)
    | Offer { node; cls; size } -> offer_node node ~now ~cls size
    | Complete { node; gen } ->
      if gen = Queue_node.gen nodes.(node) then begin
        Queue_node.sync nodes.(node) ~now;
        touch node now
      end
    | Serve _ -> assert false
  in
  start eng p s;
  Desim.Engine.run eng handler;
  let in_pts = List.rev !in_pts and out_pts = List.rev !out_pts in
  outcome eng s ~in_pts ~out_pts ~through_backlog:(backlog_trace ~slots:p.slots ~in_pts ~out_pts)
    ~through_kb:!acc_in ~lost_kb:!lost
    ~utilization:
      (Array.mapi
         (fun i node ->
           (Queue_node.served_of node ~cls:through_class
           +. Queue_node.served_of node ~cls:cross_class)
           /. (p.capacities.(i) *. horizon))
         nodes)

let run p = if slot_aligned p then run_lockstep p else run_continuous p
