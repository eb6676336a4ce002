(* Tandem-network simulation with virtual-delay measurement.

   Two engines produce the same observable result record from one
   [config], one validation and one RNG stream setup:
   - [Slotted]: the original time-stepped loop — one pass per slot over
     every node.  The reference semantics ("the oracle").
   - [Event]: a slot loop over a worklist of due nodes.  It reuses
     [Queue_node] at slot granularity but touches a node only on slots
     where it is occupied or receives an offer, and jumps over slots
     where nothing steps or is due; sources and fault processes still
     advance once per slot in the slotted per-stream order, so every
     result is reproduced bit for bit while idle (node, slot) pairs are
     skipped.
   Both measure Eq. 6 through [Desim.Stats.virtual_delays]. *)

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
  }

type result = {
  delays : Desim.Stats.Sample.t;
  through_backlog : Desim.Stats.Sample.t;
  through_kb : float;
  censored_kb : float;
  utilization : float array;
  fault_factor : float array;
  events_processed : int;
}

let through_class = 0
let cross_class = 1

let c_sim_slots = Telemetry.Counter.make "netsim.tandem.slots"
let g_backlog_hwm = Telemetry.Gauge.make "netsim.tandem.backlog_hwm"
let c_events = Telemetry.Counter.make "netsim.desim.events"
(* the largest number of nodes due in one slot of the event engine,
   under the name perfbench reads *)
let g_max_due = Telemetry.Gauge.make "netsim.desim.heap_hwm"

let node_capacities cfg =
  match cfg.capacities with
  | Some caps -> Array.copy caps
  | None -> Array.make cfg.h cfg.capacity

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
  (* every aggregate shares one source, so aggregates with the same flow
     count share their kernel rows *)
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
  { caps; nodes; through_src; cross_srcs; fault_procs }

let mean_factors = Array.map (function None -> 1. | Some pr -> Faults.mean_factor pr)

(* ------------------------------ slotted ------------------------------ *)

let run_slotted cfg discipline =
  let { caps; nodes; through_src; cross_srcs; fault_procs } = setup cfg discipline in
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
    utilization;
    fault_factor;
    events_processed = 0;
  }

(* ------------------------------- event ------------------------------- *)

(* A cumulative counter on the slot grid, written only on the slots where
   it moves: [mark c t v] sets slot [t] to [v], and the slots skipped
   since the last mark to the value before it, as the slotted loop's
   write on every slot leaves them.  Marks and [close] write every slot
   once, so the array starts uninitialized. *)
type counter = { cum : float array; mutable upto : int; mutable last : float }

let counter n = { cum = Array.create_float n; upto = -1; last = 0. }

let mark c t v =
  Array.fill c.cum (c.upto + 1) (t - c.upto - 1) c.last;
  c.cum.(t) <- v;
  c.upto <- t;
  c.last <- v

let close c = Array.fill c.cum (c.upto + 1) (Array.length c.cum - c.upto - 1) c.last

(* Slots during which the sources and fault processes step (one tick
   each): the through source's arrival horizon, or the whole run while
   cross traffic or a fault process is live. *)
let tick_until cfg s =
  Stdlib.max
    (if Option.is_some s.through_src then cfg.slots else 0)
    (if cfg.n_cross > 0 || Array.exists Option.is_some s.fault_procs then
       cfg.slots + cfg.drain_limit
     else 0)

(* Touches a node only on the slots where it is occupied or offered
   work, and a slot only when it ticks, emits a CBR burst or has a node
   due; every result bit-identical to the slotted engine's.  A slot runs
   its sources before its serves, and the serves of one slot never read
   each other's state, so a worklist of due nodes per slot orders all an
   event queue would. *)
let run_event cfg s =
  let nodes = s.nodes in
  let total_slots = cfg.slots + cfg.drain_limit in
  let tick_until = tick_until cfg s in
  let factor_cache = Array.make cfg.h 1. in
  let served_total = Array.make cfg.h 0. in
  (* cumulative through arrivals into node 0 and departures from node
     h-1, as dense as the slotted loop's *)
  let cum_in = counter cfg.slots and cum_out = counter total_slots in
  (* Through data that node i - 1 sent in slot t - 1, offered to node i
     by its serve in slot t, after the slot's sources: one row per slot
     parity, so a serve can fill the next slot's row while another
     node's entry in this slot's is still unread.  A serve writes its
     successor's entry, zero included, and a nonzero entry makes the
     successor due in the next slot, whose serve reads and clears it; so
     when slot t ends, the row of parity t + 1 holds exactly what slot t
     sent, as the slotted loop's [pending] does. *)
  let forward = Array.make_matrix 2 cfg.h 0. in
  (* The worklist: row [t land 1] of [due_list] holds the [due_len] nodes
     due in slot t, in the order they became due; the sources of slot t
     append to it, its serves to the other row.  [due.(i)] is the last
     slot node i was listed for, so a node is listed once per slot. *)
  let due = Array.make cfg.h (-1) in
  let due_list = Array.make_matrix 2 cfg.h 0 and due_len = Array.make 2 0 in
  (* ticks, CBR emissions and node serves; the most nodes due in a slot *)
  let events = ref 0 and max_due = ref 0 in
  (* End-of-slot through backlog, computed with the slotted loop's exact
     arithmetic (left fold over per-node backlogs, plus this slot's
     inter-node departures) so the samples are bit-identical.  Node state
     is frozen between visited slots, so skipped slots reuse the folded
     value instead of touching every node again.  Nothing is in flight
     after such a slot (a slot that sends data makes a node due in the
     next), so its sample is the slotted loop's q + 0. *)
  let through_backlog = Desim.Stats.Sample.create () in
  let sampled_upto = ref (-1) in
  let sample_upto lim =
    let lim = Stdlib.min lim (cfg.slots - 1) and first = !sampled_upto + 1 in
    if lim >= first then begin
      let q = ref 0. in
      for i = 0 to cfg.h - 1 do
        q := !q +. Queue_node.backlog_of nodes.(i) ~cls:through_class
      done;
      let row = forward.((first + 1) land 1) and inflight = ref 0. in
      for i = 0 to cfg.h - 1 do
        inflight := !inflight +. row.(i)
      done;
      Desim.Stats.Sample.add through_backlog (!q +. !inflight);
      Desim.Stats.Sample.add_copies through_backlog (!q +. 0.) (lim - first);
      sampled_upto := lim
    end
  in
  let ensure_serve i t =
    if t < total_slots && due.(i) <> t then begin
      due.(i) <- t;
      let p = t land 1 in
      due_list.(p).(due_len.(p)) <- i;
      due_len.(p) <- due_len.(p) + 1
    end
  in
  (* The first CBR emission at or after slot [t], or [total_slots]. *)
  let next_emission t =
    match cfg.through_kind with
    | Cbr { period; _ } ->
      let e = (t + period - 1) / period * period in
      if e < cfg.slots then e else total_slots
    | Markov -> total_slots
  in
  let rec slot t =
    if t < total_slots then begin
      (* every slot before this one is final *)
      sample_upto (t - 1);
      let now = float_of_int t in
      let a =
        match (cfg.through_kind, s.through_src) with
        | (Cbr { period; burst }, _) when t < cfg.slots && t mod period = 0 ->
          incr events;
          burst
        | (Markov, Some src) when t < cfg.slots -> Source.step src
        | _ -> 0.
      in
      if a > 0. then begin
        mark cum_in t (cum_in.last +. a);
        Queue_node.offer nodes.(0) ~now ~cls:through_class a;
        ensure_serve 0 t
      end;
      if t < tick_until then begin
        incr events;
        for i = 0 to cfg.h - 1 do
          if cfg.n_cross > 0 then begin
            let c = Source.step s.cross_srcs.(i) in
            if c > 0. then begin
              Queue_node.offer nodes.(i) ~now ~cls:cross_class c;
              ensure_serve i t
            end
          end;
          match s.fault_procs.(i) with
          | Some pr -> factor_cache.(i) <- Faults.step pr
          | None -> ()
        done
      end;
      (* each due node's slot: its predecessor's data in, then service *)
      let p = t land 1 in
      let n = due_len.(p) and inbox = forward.(p) in
      for k = 0 to n - 1 do
        let i = due_list.(p).(k) in
        if inbox.(i) > 0. then begin
          Queue_node.offer nodes.(i) ~now ~cls:through_class inbox.(i);
          inbox.(i) <- 0.
        end;
        let dep =
          match s.fault_procs.(i) with
          | None -> Queue_node.serve_slot nodes.(i)
          | Some _ -> Queue_node.serve_slot ~factor:factor_cache.(i) nodes.(i)
        in
        served_total.(i) <- served_total.(i) +. dep.(through_class) +. dep.(cross_class);
        if i < cfg.h - 1 then begin
          forward.(1 - p).(i + 1) <- dep.(through_class);
          if dep.(through_class) > 0. then ensure_serve (i + 1) (t + 1)
        end
        else if dep.(through_class) > 0. then
          mark cum_out t (cum_out.last +. dep.(through_class));
        if Queue_node.occupied nodes.(i) then ensure_serve i (t + 1)
      done;
      due_len.(p) <- 0;
      events := !events + n;
      if n > !max_due then max_due := n;
      slot (if due_len.(1 - p) > 0 || t + 1 < tick_until then t + 1 else next_emission (t + 1))
    end
  in
  slot (if tick_until > 0 then 0 else next_emission 0);
  sample_upto (cfg.slots - 1);
  close cum_in;
  close cum_out;
  let (delays, censored_kb) =
    Desim.Stats.virtual_delays ~cum_in:cum_in.cum ~cum_out:cum_out.cum
  in
  let events_processed = !events in
  if Telemetry.is_enabled () then begin
    Telemetry.Counter.add c_events events_processed;
    Telemetry.Gauge.set g_max_due (float_of_int !max_due);
    Telemetry.event "tandem.done"
      ~attrs:
        [
          ("engine", Telemetry.Str "event");
          ("events", Telemetry.Int events_processed);
          ("max_due", Telemetry.Int !max_due);
          ("through_kb", Telemetry.Float cum_in.last);
          ("censored_kb", Telemetry.Float censored_kb);
          ("delay_samples", Telemetry.Int (Desim.Stats.Sample.count delays));
        ]
  end;
  {
    delays;
    through_backlog;
    through_kb = cum_in.last;
    censored_kb;
    utilization =
      Array.mapi (fun i x -> x /. (s.caps.(i) *. float_of_int total_slots)) served_total;
    fault_factor = mean_factors s.fault_procs;
    events_processed;
  }

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
  | Event -> run_event cfg (setup cfg discipline)

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
