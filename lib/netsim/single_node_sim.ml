(* Multi-class single-node simulation with per-class virtual delays. *)

(* paper content; ROADMAP item 5 gives it a user *)
[@@@lint.allow "unreachable-module"]

type class_spec = { n_flows : int; source : Envelope.Mmpp.t }

type config = {
  capacity : float;
  classes : class_spec array;
  policy : Scheduler.Policy.t;
  slots : int;
  drain_limit : int;
  seed : int64;
  faults : Faults.spec option;
}

let default_config =
  {
    capacity = 100.;
    classes =
      Array.make 2 { n_flows = 167; source = Envelope.Mmpp.paper_source };
    policy = Scheduler.Policy.fifo;
    slots = 20_000;
    drain_limit = 5_000;
    seed = 42L;
    faults = None;
  }

type result = {
  delays : Desim.Stats.Sample.t array;
  utilization : float;
  offered_kb : float array;
  censored_kb : float array;
  fault_factor : float;
}

let c_sim_slots = Telemetry.Counter.make "netsim.single_node.slots"
let g_backlog_hwm = Telemetry.Gauge.make "netsim.single_node.backlog_hwm"

let run cfg =
  let k = Array.length cfg.classes in
  if k = 0 then invalid_arg "Single_node_sim.run: no classes";
  if cfg.slots <= 0 then invalid_arg "Single_node_sim.run: non-positive horizon";
  Telemetry.span "netsim.single_node.run"
    ~attrs:[ ("classes", Telemetry.Int k); ("slots", Telemetry.Int cfg.slots) ]
  @@ fun () ->
  let rng = Desim.Prng.create ~seed:cfg.seed in
  (* one kernel table per distinct source, shared within the run *)
  let shared = ref [] in
  let laws_of src =
    match List.assoc_opt src !shared with
    | Some laws -> laws
    | None ->
      let laws = Source.laws src in
      shared := (src, laws) :: !shared;
      laws
  in
  let sources =
    Array.map
      (fun spec ->
        Source.create ~laws:(laws_of spec.source) spec.source ~n:spec.n_flows
          ~rng:(Desim.Prng.split rng))
      cfg.classes
  in
  (* fault rng drawn after the sources: fault-free runs stay bit-identical *)
  let faults =
    Option.map (fun spec -> Faults.make ~rng:(Desim.Prng.split rng) spec) cfg.faults
  in
  let node = Queue_node.create ~capacity:cfg.capacity ~classes:k (Queue_node.Delta_policy cfg.policy) in
  let total_slots = cfg.slots + cfg.drain_limit in
  let cum_in = Array.init k (fun _ -> Array.make cfg.slots 0.) in
  let cum_out = Array.init k (fun _ -> Array.make total_slots 0.) in
  let acc_in = Array.make k 0. and acc_out = Array.make k 0. in
  let served = ref 0. in
  for t = 0 to total_slots - 1 do
    let now = float_of_int t in
    if t < cfg.slots then
      Array.iteri
        (fun j src ->
          let a = Source.step src in
          acc_in.(j) <- acc_in.(j) +. a;
          cum_in.(j).(t) <- acc_in.(j);
          Queue_node.offer node ~now ~cls:j a)
        sources;
    let dep = Queue_node.serve_slot ?factor:(Option.map Faults.step faults) node in
    Array.iteri
      (fun j d ->
        acc_out.(j) <- acc_out.(j) +. d;
        cum_out.(j).(t) <- acc_out.(j);
        served := !served +. d)
      dep
  done;
  let delays, censored_kb =
    Array.split
      (Array.init k (fun j -> Desim.Stats.virtual_delays ~cum_in:cum_in.(j) ~cum_out:cum_out.(j)))
  in
  let fault_factor = Option.fold ~none:1. ~some:Faults.mean_factor faults in
  if Telemetry.is_enabled () then begin
    Telemetry.Counter.add c_sim_slots total_slots;
    Telemetry.Gauge.set g_backlog_hwm (Queue_node.high_water node);
    Telemetry.event "single_node.done"
      ~attrs:
        [
          ("backlog_hwm", Telemetry.Float (Queue_node.high_water node));
          ("fault_factor", Telemetry.Float fault_factor);
          ("fault_transitions", Telemetry.Int (Option.fold ~none:0 ~some:Faults.transitions faults));
        ]
  end;
  {
    delays;
    utilization = !served /. (cfg.capacity *. float_of_int total_slots);
    offered_kb = acc_in;
    censored_kb;
    fault_factor;
  }

let quantile r ~cls q = Desim.Stats.Sample.quantile r.delays.(cls) q
