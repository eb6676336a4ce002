(* Differential tests: the event engine against the slotted oracle.

   Two layers of guarantee, matching the engine's contract
   (lib/netsim/tandem.mli):

   - slot-aligned configs (no propagation delay, no loss): the event
     engine must reproduce the slotted delay samples *bit for bit* —
     same seed derivation, same arithmetic, only the idle (node, slot)
     pairs skipped.  Checked here over randomized tandem scenarios:
     path length, schedulers (FIFO / SP / EDF / BMUX / GPS /
     packetized), Markov and CBR sources, heterogeneous per-node
     capacities, and fault schedules.
   - heterogeneous configs (propagation delay / loss): only the event
     engine can express them, so the check is statistical — quantiles
     of the event run must sit inside a generous envelope around the
     slotted oracle after accounting for the extra propagation time,
     and realized loss must track the configured drop probability.

   Scenarios are generated from plain integer tuples so QCheck's
   built-in shrinking applies; the printer renders the derived config
   (including the seed) so any failure is replayable verbatim. *)

module Tandem = Netsim.Tandem
module Faults = Netsim.Faults
module Sample = Desim.Stats.Sample

(* ---------------- scenario generation ---------------- *)

type scenario = {
  h : int;  (* 1..10 *)
  slots : int;  (* 60..240 *)
  sched : int;  (* 0..5: fifo, bmux, sp, edf, gps, packetized fifo *)
  kind : int;  (* 0 Markov, 1 CBR *)
  n_through : int;  (* 0..25 *)
  n_cross : int;  (* 0..50 *)
  fault : int;  (* 0..3: none, constant, windows, gilbert *)
  hetero : bool;  (* per-node capacity spread *)
  seed : int;  (* 0..9999 *)
}

let sched_name = [| "fifo"; "bmux"; "sp"; "edf"; "gps"; "fifo+pkt" |]

let scenario_print s =
  Printf.sprintf
    "{h=%d; slots=%d; sched=%s; kind=%s; n_through=%d; n_cross=%d; fault=%d; \
     hetero=%b; seed=%d}"
    s.h s.slots
    sched_name.(s.sched)
    (if s.kind = 0 then "markov" else "cbr")
    s.n_through s.n_cross s.fault s.hetero s.seed

let arb_scenario =
  let open QCheck in
  let tup =
    pair
      (quad (int_range 1 10) (int_range 60 240) (int_range 0 5) (int_range 0 1))
      (pair
         (triple (int_range 0 25) (int_range 0 50) (int_range 0 3))
         (pair bool (int_range 0 9999)))
  in
  set_print scenario_print
    (map
       ~rev:(fun s ->
         ((s.h, s.slots, s.sched, s.kind), ((s.n_through, s.n_cross, s.fault), (s.hetero, s.seed))))
       (fun ((h, slots, sched, kind), ((n_through, n_cross, fault), (hetero, seed))) ->
         { h; slots; sched; kind; n_through; n_cross; fault; hetero; seed })
       tup)

(* QCheck's integer shrinker can wander outside the generator's range,
   so every property re-normalizes its scenario before deriving a
   config — shrunk inputs stay valid instead of raising. *)
let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

let normalize s =
  {
    h = clamp 1 10 s.h;
    slots = clamp 20 400 s.slots;
    sched = clamp 0 5 s.sched;
    kind = clamp 0 1 s.kind;
    n_through = clamp 0 50 s.n_through;
    n_cross = clamp 0 80 s.n_cross;
    fault = clamp 0 3 s.fault;
    hetero = s.hetero;
    seed = clamp 0 9999 (abs s.seed);
  }

(* Capacity sized off the flow population so generated scenarios span
   light to heavily loaded regimes (paper_source mean rate is ~0.15
   kb/slot per flow). *)
let base_capacity s = Float.max 2. (0.2 *. float_of_int (s.n_through + s.n_cross))

let config_of s : Tandem.config =
  let capacity = base_capacity s in
  let capacities =
    if s.hetero then
      Some (Array.init s.h (fun i -> capacity *. (1. +. (0.25 *. float_of_int (i mod 3)))))
    else None
  in
  let scheduler, gps_weights, packet_size =
    match s.sched with
    | 0 -> (Scheduler.Classes.Fifo, None, None)
    | 1 -> (Scheduler.Classes.Bmux, None, None)
    | 2 -> (Scheduler.Classes.Sp_through_high, None, None)
    | 3 -> (Scheduler.Classes.Edf_gap (-5.), None, None)
    | 4 -> (Scheduler.Classes.Fifo, Some (2., 1.), None)
    | _ -> (Scheduler.Classes.Fifo, None, Some 0.5)
  in
  let through_kind =
    if s.kind = 0 then Tandem.Markov
    else Tandem.Cbr { period = 4 + (s.seed mod 5); burst = 1.5 *. capacity }
  in
  let faults =
    match s.fault with
    | 0 -> []
    | 1 -> [ (0, Faults.Constant 0.7) ]
    | 2 -> [ (s.h - 1, Faults.Windows [ (s.slots / 4, s.slots / 2, 0.5) ]) ]
    | _ ->
      [ (s.h / 2, Faults.Gilbert { p_fail = 0.05; p_recover = 0.3; factor = 0.4 }) ]
  in
  {
    Tandem.default_config with
    h = s.h;
    capacity;
    capacities;
    through_kind;
    n_through = s.n_through;
    n_cross = s.n_cross;
    scheduler;
    through_deadline = 5.;
    cross_deadline = 10.;
    slots = s.slots;
    drain_limit = 10 * s.slots;
    seed = Int64.of_int (1 + s.seed);
    gps_weights;
    packet_size;
    faults;
  }

(* ---------------- exact parity (slot-aligned) ---------------- *)

let fail_diff s what detail =
  QCheck.Test.fail_reportf "event/slotted mismatch (%s) on %s: %s" what
    (scenario_print s) detail

let check_sample_exact s name a b =
  let xs = Sample.to_sorted_array a and ys = Sample.to_sorted_array b in
  if Array.length xs <> Array.length ys then
    fail_diff s name
      (Printf.sprintf "sample counts %d vs %d" (Array.length xs) (Array.length ys));
  Array.iteri
    (fun i x ->
      if not (Float.equal x ys.(i)) then
        fail_diff s name (Printf.sprintf "sample %d: %.17g vs %.17g" i x ys.(i)))
    xs

let check_float_exact s name a b =
  if not (Float.equal a b) then fail_diff s name (Printf.sprintf "%.17g vs %.17g" a b)

let prop_exact_parity =
  QCheck.Test.make ~name:"event engine = slotted oracle, bit for bit"
    ~count:(Qc.count 60 ~cap:600) arb_scenario (fun s ->
      let s = normalize s in
      let cfg = config_of s in
      let slotted = Tandem.run cfg in
      let event = Tandem.run ~engine:Tandem.Event cfg in
      check_sample_exact s "delays" slotted.Tandem.delays event.Tandem.delays;
      check_sample_exact s "backlog" slotted.Tandem.through_backlog
        event.Tandem.through_backlog;
      check_float_exact s "through_kb" slotted.Tandem.through_kb event.Tandem.through_kb;
      check_float_exact s "censored_kb" slotted.Tandem.censored_kb
        event.Tandem.censored_kb;
      check_float_exact s "lost_kb" slotted.Tandem.lost_kb event.Tandem.lost_kb;
      Array.iteri
        (fun i u ->
          if Float.abs (u -. event.Tandem.utilization.(i)) > 1e-9 then
            fail_diff s "utilization"
              (Printf.sprintf "node %d: %.17g vs %.17g" i u
                 event.Tandem.utilization.(i)))
        slotted.Tandem.utilization;
      Array.iteri
        (fun i f ->
          if not (Float.equal f event.Tandem.fault_factor.(i)) then
            fail_diff s "fault_factor"
              (Printf.sprintf "node %d: %.17g vs %.17g" i f
                 event.Tandem.fault_factor.(i)))
        slotted.Tandem.fault_factor;
      (* A Markov path with no flows and no faults has nothing to
         schedule, and the engine must skip it entirely; anything else
         must run at least one event. *)
      let idle = s.kind = 0 && s.n_through = 0 && s.n_cross = 0 && s.fault = 0 in
      if idle && event.Tandem.events_processed <> 0 then
        fail_diff s "events_processed"
          (Printf.sprintf "idle network processed %d events" event.Tandem.events_processed);
      if (not idle) && event.Tandem.events_processed <= 0 then
        fail_diff s "events_processed" "event engine reported no events";
      true)

(* ---------------- statistical envelope (heterogeneous) ---------------- *)

(* Propagation delays of exactly one slot per internal hop and zero to
   the sink give the continuous-time path the same store-and-forward
   latency as the slotted oracle, so its delay quantiles must land in a
   generous envelope around the oracle's; non-integer extra propagation
   shifts the whole distribution by a known constant.  One inherent
   model difference remains: the slotted oracle serves a burst within
   its arrival slot (zero transmission time on the slot grid) while the
   continuous server charges size/rate per hop, so the band allows an
   additive shift that grows with the path length.  Every scheduler of
   the generator (FIFO, BMUX, SP, EDF, GPS, packetized) is in scope. *)

let envelope_scenario s =
  {
    s with
    h = 1 + (s.h mod 5);
    slots = 200 + s.slots;
    kind = 0;
    n_through = 10 + s.n_through;
    fault = 0;
    hetero = false;
  }

let prop_envelope_parity =
  QCheck.Test.make ~name:"continuous path sits in the oracle's quantile envelope"
    ~count:(Qc.count 12 ~cap:120) arb_scenario (fun s0 ->
      let s = envelope_scenario (normalize s0) in
      let cfg = config_of s in
      let extra = 0.25 +. (0.25 *. float_of_int (s.seed mod 4)) in
      let prop =
        (* 1 slot per internal hop (the slotted store-and-forward
           latency) plus a known non-integer shift on the first link;
           the sink link keeps zero delay. *)
        Array.init s.h (fun i ->
            if i = s.h - 1 then if s.h = 1 then extra else 0.
            else if i = 0 then 1. +. extra
            else 1.)
      in
      let slotted = Tandem.run cfg in
      let event = Tandem.run ~engine:Tandem.Event { cfg with prop_delay = Some prop } in
      if Sample.count slotted.Tandem.delays < 50 then QCheck.assume_fail ();
      if Sample.count event.Tandem.delays < 50 then
        fail_diff s "envelope"
          (Printf.sprintf "continuous path delivered only %d samples (oracle %d)"
             (Sample.count event.Tandem.delays)
             (Sample.count slotted.Tandem.delays));
      List.iter
        (fun q ->
          let qs = Sample.quantile slotted.Tandem.delays q +. extra in
          let qe = Sample.quantile event.Tandem.delays q in
          let band = 2.5 +. (1.5 *. float_of_int s.h) +. (0.5 *. qs) in
          if Float.abs (qe -. qs) > band then
            fail_diff s "envelope"
              (Printf.sprintf "q%.2f: event %.3f vs oracle(+prop) %.3f (band %.3f)" q qe
                 qs band))
        [ 0.5; 0.9 ];
      true)

let prop_loss_accounting =
  QCheck.Test.make ~name:"link loss drops the configured fraction"
    ~count:(Qc.count 12 ~cap:120) arb_scenario (fun s0 ->
      let s = envelope_scenario (normalize s0) in
      let cfg = config_of s in
      let p = 0.1 +. (0.02 *. float_of_int (s.seed mod 6)) in
      let loss = Array.make s.h 0. in
      loss.(0) <- p;
      let event = Tandem.run ~engine:Tandem.Event { cfg with loss = Some loss } in
      if event.Tandem.through_kb < 100. then QCheck.assume_fail ();
      let frac = event.Tandem.lost_kb /. event.Tandem.through_kb in
      if frac < 0. || event.Tandem.lost_kb > event.Tandem.through_kb then
        fail_diff s "loss" (Printf.sprintf "lost fraction %.3f out of range" frac);
      if Float.abs (frac -. p) > (0.5 *. p) +. 0.08 then
        fail_diff s "loss"
          (Printf.sprintf "lost fraction %.3f vs configured %.3f" frac p);
      true)

(* A slotted run must reject configs only the event engine can express,
   so a parity suite can never silently compare different semantics. *)
let test_slotted_rejects_heterogeneous () =
  let cfg = { Tandem.default_config with slots = 10; drain_limit = 10 } in
  Alcotest.check_raises "prop_delay" (Invalid_argument
    "Tandem.run: propagation delay / loss need the event engine (~engine:Event)")
    (fun () ->
      ignore (Tandem.run { cfg with prop_delay = Some [| 0.5; 0.5 |] }));
  Alcotest.check_raises "loss" (Invalid_argument
    "Tandem.run: propagation delay / loss need the event engine (~engine:Event)")
    (fun () -> ignore (Tandem.run { cfg with loss = Some [| 0.1; 0. |] }))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exact_parity;
    QCheck_alcotest.to_alcotest prop_envelope_parity;
    QCheck_alcotest.to_alcotest prop_loss_accounting;
    Alcotest.test_case "slotted rejects heterogeneous configs" `Quick
      test_slotted_rejects_heterogeneous;
  ]
