(* Workload [simulate]: a replication study of the paper's Example-1
   tandem (Markov on-off sources, U = 50% with U0 = 15%, FIFO, H = 10)
   through [Netsim.Replicate.statistic_ci ~jobs:1] on the library's
   default engine, as `deltanet replicate` runs it.  The only workload on
   Netsim/Desim; it bypasses Scenario, E2e and Serve.  Operation = one
   replication (simulate, then extract the delay quantile). *)

module Tandem = Netsim.Tandem
module Sample = Desim.Stats.Sample

let h = 10
let u0 = 0.15
let uc = 0.35
let slots = 10_000
let q = 0.999

(* The analytical counterpart: the same path's FIFO bound at violation
   probability epsilon. *)
let bound_scenario () = Deltanet.Scenario.of_utilization ~h ~u_through:u0 ~u_cross:uc

(* Example 1's flow counts from the utilizations, as the CLI derives
   them. *)
let config () =
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  {
    Tandem.default_config with
    Tandem.h;
    n_through = int_of_float (Float.round (u0 *. 100. /. mean));
    n_cross = int_of_float (Float.round (uc *. 100. /. mean));
    slots;
    drain_limit = slots / 10;
    scheduler = Scheduler.Classes.Fifo;
    seed = 0L;
  }

(* Replications whose delay samples the event engine must reproduce bit
   for bit, outside the timed phase. *)
let parity_runs = 2

type phase = {
  tandem_ms : float array;
  quantile_ms : float array;
  closure_ms : float array;  (** time inside the experiment closure *)
  summary : Netsim.Replicate.summary;
  slots_seen : int;  (** sum of arrival-horizon slots over replications *)
  seeds : int64 list;  (** the first [parity_runs] replication seeds *)
  parity : float array list;  (** their sorted slotted delay samples *)
  tail_delays : float list;  (** each replication's (1 - epsilon) delay quantile *)
  minor_words : float;
}

(* The sweep runs as [runs + 1] timeline blocks: one per replication,
   then the sweep's summary.  A reference slice closes each replication
   inside the experiment closure, so a replication's block runs from the
   previous replication's end (or the sweep's start) to its own end and
   includes Replicate's per-replication work.  The caller takes the slice
   that opens the first block. *)
let blocks ~runs = runs + 1

let run_phase ?(between = ignore) tl cfg ~seed ~runs =
  let epsilon = (bound_scenario ()).Deltanet.Scenario.epsilon in
  let tandem_ms = Array.make runs 0. in
  let quantile_ms = Array.make runs 0. and closure_ms = Array.make runs 0. in
  let k = ref 0 and slots_seen = ref 0 in
  let seeds = ref [] and parity = ref [] and tail_delays = ref [] in
  let experiment ~seed =
    let t0 = Ledger.now () in
    let r = Tandem.run { cfg with Tandem.seed } in
    let t1 = Ledger.now () in
    let v = Sample.quantile r.Tandem.delays q in
    let t2 = Ledger.now () in
    slots_seen := !slots_seen + Sample.count r.Tandem.through_backlog;
    tail_delays := Sample.quantile r.Tandem.delays (1. -. epsilon) :: !tail_delays;
    if !k < parity_runs then begin
      seeds := seed :: !seeds;
      parity := Sample.to_sorted_array r.Tandem.delays :: !parity
    end;
    let t3 = Ledger.now () in
    if !k < runs then begin
      tandem_ms.(!k) <- Ledger.ns_between t0 t1 /. 1e6;
      quantile_ms.(!k) <- Ledger.ns_between t1 t2 /. 1e6;
      closure_ms.(!k) <- Ledger.ns_between t0 t3 /. 1e6;
      incr k;
      Ledger.cut tl;
      between ()
    end;
    v
  in
  let w0 = Gc.minor_words () in
  let summary =
    Netsim.Replicate.statistic_ci ~jobs:1 ~runs ~base_seed:(Int64.of_int seed) experiment
  in
  Ledger.cut tl;
  {
    tandem_ms;
    quantile_ms;
    closure_ms;
    summary;
    slots_seen = !slots_seen;
    seeds = List.rev !seeds;
    parity = List.rev !parity;
    tail_delays = !tail_delays;
    minor_words = Gc.minor_words () -. w0;
  }

(* Outside the timed phase: the event engine on the parity seeds must
   give bit-identical delay samples. *)
let parity p =
  let cfg = config () in
  List.concat
    (List.map2
       (fun seed slotted ->
         let r = Tandem.run ~engine:Tandem.Event { cfg with Tandem.seed } in
         let ev = Sample.to_sorted_array r.Tandem.delays in
         let same =
           Array.length ev = Array.length slotted
           && Array.for_all2
                (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
                ev slotted
         in
         if same then [] else [ Printf.sprintf "event engine differs from slotted on seed %Ld" seed ])
       p.seeds p.parity)

(* No replication's (1 - epsilon) delay may exceed the analytical bound
   for the same configuration. *)
let over_bound p =
  let bound =
    Deltanet.Scenario.delay_bound ~s_points:16 ~scheduler:Scheduler.Classes.Fifo
      (bound_scenario ())
  in
  List.filter_map
    (fun d ->
      if d > bound then Some (Printf.sprintf "simulated delay %g ms exceeds the bound %g ms" d bound)
      else None)
    p.tail_delays
