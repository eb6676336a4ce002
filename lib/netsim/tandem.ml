(* Tandem-network simulation with virtual-delay measurement.

   Two engines produce the same observable result record:
   - [Slotted]: the original time-stepped loop — one pass per slot over
     every node.  The reference semantics ("the oracle").
   - [Event]: the heap-based event engine ([Event_tandem]); on
     slot-aligned configs it reproduces the slotted delay samples
     bit-for-bit while skipping idle (node, slot) pairs, and it is the
     only engine for heterogeneous configs (propagation delay, loss). *)

type engine = Slotted | Event

type source_kind = Event_tandem.source_kind =
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

type result = Event_tandem.outcome = {
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

let c_sim_slots = Telemetry.Counter.make "netsim.tandem.slots"
let g_backlog_hwm = Telemetry.Gauge.make "netsim.tandem.backlog_hwm"

let node_capacities cfg =
  match cfg.capacities with
  | Some caps -> Array.copy caps
  | None -> Array.make cfg.h cfg.capacity

let policy_of cfg =
  Scheduler.Policy.of_two_class cfg.scheduler ~through_deadline:cfg.through_deadline
    ~cross_deadline:cfg.cross_deadline

let params_of cfg =
  let discipline =
    match cfg.gps_weights with
    | Some (w_through, w_cross) ->
      Queue_node.Gps (Scheduler.Gps.v ~weights:[| w_through; w_cross |])
    | None -> Queue_node.Delta_policy (policy_of cfg)
  in
  {
    Event_tandem.h = cfg.h;
    capacities = node_capacities cfg;
    discipline;
    packet_size = cfg.packet_size;
    source = cfg.source;
    through_kind = cfg.through_kind;
    n_through = cfg.n_through;
    n_cross = cfg.n_cross;
    slots = cfg.slots;
    drain_limit = cfg.drain_limit;
    seed = cfg.seed;
    faults = cfg.faults;
    prop_delay = cfg.prop_delay;
    loss = cfg.loss;
  }

(* ------------------------------ slotted ------------------------------ *)

let run_slotted (p : Event_tandem.params) =
  if not (Event_tandem.slot_aligned p) then
    invalid_arg
      "Tandem.run: propagation delay / loss need the event engine (~engine:Event)";
  let { Event_tandem.nodes; through_src; cross_srcs; fault_procs; rng = _ } =
    Event_tandem.setup p
  in
  let caps = p.capacities in
  let total_slots = p.slots + p.drain_limit in
  (* Cumulative through arrivals into node 0 and departures from node h-1,
     indexed by slot. *)
  let cum_in = Array.make p.slots 0. in
  let cum_out = Array.make total_slots 0. in
  let served_total = Array.make p.h 0. in
  let through_backlog = Desim.Stats.Sample.create () in
  (* Data departing node i in slot t is offered to node i+1 at slot t+1. *)
  let pending = Array.make p.h 0. in
  let acc_in = ref 0. and acc_out = ref 0. in
  for t = 0 to total_slots - 1 do
    let now = float_of_int t in
    (* Through arrivals (only during the arrival horizon). *)
    if t < p.slots then begin
      let a =
        match (p.through_kind, through_src) with
        | (Cbr { period; burst }, _) -> if t mod period = 0 then burst else 0.
        | (Markov, Some src) -> Source.step src
        | (Markov, None) -> 0.
      in
      acc_in := !acc_in +. a;
      cum_in.(t) <- !acc_in;
      Queue_node.offer nodes.(0) ~now ~cls:through_class a
    end;
    (* Forward last slot's inter-node departures. *)
    for i = 1 to p.h - 1 do
      Queue_node.offer nodes.(i) ~now ~cls:through_class pending.(i);
      pending.(i) <- 0.
    done;
    (* Fresh cross traffic at every node. *)
    for i = 0 to p.h - 1 do
      Queue_node.offer nodes.(i) ~now ~cls:cross_class (Source.step cross_srcs.(i))
    done;
    (* Serve every node, each fault process advancing once per slot. *)
    for i = 0 to p.h - 1 do
      let node = nodes.(i) in
      let dep =
        match fault_procs.(i) with
        | None -> Queue_node.serve_slot node
        | Some pr -> Queue_node.serve_slot ~factor:(Faults.step pr) node
      in
      served_total.(i) <- served_total.(i) +. dep.(through_class) +. dep.(cross_class);
      if i < p.h - 1 then pending.(i + 1) <- dep.(through_class)
      else acc_out := !acc_out +. dep.(through_class)
    done;
    cum_out.(t) <- !acc_out;
    (* total through data inside the network (queues + inter-node flight),
       each sum a left fold from 0. *)
    if t < p.slots then begin
      let q = ref 0. in
      for i = 0 to p.h - 1 do
        q := !q +. Queue_node.backlog_of nodes.(i) ~cls:through_class
      done;
      let inflight = ref 0. in
      for i = 0 to p.h - 1 do
        inflight := !inflight +. pending.(i)
      done;
      Desim.Stats.Sample.add through_backlog (!q +. !inflight)
    end
  done;
  (* Virtual delays by a two-pointer sweep over the cumulative counters. *)
  let delays = Desim.Stats.Sample.create () in
  let censored = ref 0. in
  let u = ref 0 in
  let eps = 1e-6 in
  for t = 0 to p.slots - 1 do
    let inc = cum_in.(t) -. (if t = 0 then 0. else cum_in.(t - 1)) in
    if inc > 0. then begin
      if !u < t then u := t;
      while !u < total_slots && cum_out.(!u) < cum_in.(t) -. eps do
        incr u
      done;
      if !u < total_slots then Desim.Stats.Sample.add delays (float_of_int (!u - t))
      else censored := !censored +. inc
    end
  done;
  let utilization =
    Array.mapi (fun i s -> s /. (caps.(i) *. float_of_int total_slots)) served_total
  in
  let fault_factor = Event_tandem.mean_factors fault_procs in
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
          ("censored_kb", Telemetry.Float !censored);
          ("delay_samples", Telemetry.Int (Desim.Stats.Sample.count delays));
        ]
  end;
  {
    delays;
    through_backlog;
    through_kb = !acc_in;
    censored_kb = !censored;
    lost_kb = 0.;
    utilization;
    fault_factor;
    events_processed = 0;
  }

let engine_to_string = function Slotted -> "slotted" | Event -> "event"

let run ?(engine = Slotted) cfg =
  let p = params_of cfg in
  Event_tandem.validate p;
  Telemetry.span "netsim.tandem.run"
    ~attrs:
      [
        ("h", Telemetry.Int cfg.h);
        ("slots", Telemetry.Int cfg.slots);
        ("engine", Telemetry.Str (engine_to_string engine));
      ]
  @@ fun () ->
  match engine with Slotted -> run_slotted p | Event -> Event_tandem.run p

let engine_of_string = function
  | "slotted" -> Ok Slotted
  | "event" -> Ok Event
  | s -> Error (Printf.sprintf "unknown engine %S (slotted | event)" s)

let delay_quantile r q = Desim.Stats.Sample.quantile r.delays q

let check cfg =
  match Event_tandem.validate (params_of cfg) with
  | () -> Ok ()
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
