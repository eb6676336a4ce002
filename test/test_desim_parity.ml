(* Differential tests: the event engine against the slotted oracle.

   The engine's contract (lib/netsim/tandem.mli): the event engine must
   reproduce every field of the slotted result *bit for bit* — same
   seed derivation, same arithmetic, only the idle (node, slot) pairs
   skipped.  Checked here over randomized tandem scenarios: path
   length, schedulers (FIFO / SP / EDF / BMUX / GPS / packetized),
   Markov and CBR sources (periods 1 to 7, so a burst in every slot and
   jumps over idle slots between emissions; some bursts below the 1e-6
   kb tolerance of Eq. 6's sweep), heterogeneous per-node capacities,
   and fault schedules.

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
    else
      (* every fourth seed a burst below the sweep's tolerance, whose
         first samples read 0 whatever the path latency *)
      let burst = if s.seed mod 4 = 0 then 1e-7 else 1.5 *. capacity in
      Tandem.Cbr { period = 1 + (s.seed mod 7); burst }
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

(* ---------------- exact parity ---------------- *)

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
      Array.iteri
        (fun i u ->
          if not (Float.equal u event.Tandem.utilization.(i)) then
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

(* Cumulative arrivals below the sweep's absolute tolerance of 1e-6 kb
   read as delivered at once, so every delay here is 0 although the
   data takes two slots to cross H = 3; an engine that reads the first
   arrival's delay off the slot of the first departure reads 2. *)
let test_tiny_bursts () =
  let cfg =
    {
      Tandem.default_config with
      h = 3;
      n_through = 0;
      n_cross = 5;
      through_kind = Tandem.Cbr { period = 10; burst = 1e-7 };
      slots = 50;
      drain_limit = 50;
    }
  in
  List.iter
    (fun engine ->
      let r = Tandem.run ~engine cfg in
      Alcotest.(check (array (float 0.)))
        (Tandem.engine_to_string engine ^ " delays")
        (Array.make 5 0.)
        (Sample.to_sorted_array r.Tandem.delays);
      Alcotest.(check (float 0.)) "censored" 0. r.Tandem.censored_kb)
    [ Tandem.Slotted; Tandem.Event ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exact_parity;
    Alcotest.test_case "tiny bursts: both engines read Eq. 6 alike" `Quick test_tiny_bursts;
  ]
