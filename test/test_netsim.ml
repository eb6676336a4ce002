(* Tests for the tandem-network simulator. *)

module Source = Netsim.Source
module Node = Netsim.Queue_node
module Tandem = Netsim.Tandem
module Policy = Scheduler.Policy
module Mmpp = Envelope.Mmpp

let check_float ?(tol = 1e-9) name expected got =
  if Float.abs (expected -. got) > tol *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- sources ---------------- *)

let test_source_mean_rate () =
  let rng = Desim.Prng.create ~seed:1L in
  let src = Source.create Mmpp.paper_source ~n:200 ~rng in
  let acc = ref 0. in
  let slots = 50_000 in
  for _ = 1 to slots do
    acc := !acc +. Source.step src
  done;
  let measured = !acc /. float_of_int slots in
  check_float ~tol:0.03 "empirical mean rate" (Source.mean_rate src) measured

let test_source_peak_bound () =
  let rng = Desim.Prng.create ~seed:2L in
  let src = Source.create Mmpp.paper_source ~n:50 ~rng in
  for _ = 1 to 10_000 do
    let e = Source.step src in
    if e < 0. || e > 50. *. 1.5 +. 1e-9 then Alcotest.failf "emission out of range: %g" e
  done

(* ---------------- single node ---------------- *)

let test_node_conservation () =
  (* Everything offered eventually departs; totals match. *)
  let node = Node.create ~capacity:5. ~classes:2 (Node.Delta_policy Policy.fifo) in
  let offered = ref 0. and departed = ref 0. in
  let rng = Desim.Prng.create ~seed:3L in
  for t = 0 to 199 do
    let a = Desim.Prng.float rng *. 8. in
    offered := !offered +. a;
    Node.offer node ~now:(float_of_int t) ~cls:(t mod 2) a;
    let dep = Node.serve_slot node in
    departed := !departed +. dep.(0) +. dep.(1)
  done;
  (* drain *)
  for _ = 1 to 1000 do
    let dep = Node.serve_slot node in
    departed := !departed +. dep.(0) +. dep.(1)
  done;
  check_float ~tol:1e-6 "conservation" !offered !departed;
  check_float ~tol:1e-6 "backlog 0 empty" 0. (Node.backlog_of node ~cls:0);
  check_float ~tol:1e-6 "backlog 1 empty" 0. (Node.backlog_of node ~cls:1)

let test_node_capacity_respected () =
  let node = Node.create ~capacity:3. ~classes:1 (Node.Delta_policy Policy.fifo) in
  Node.offer node ~now:0. ~cls:0 100.;
  let dep = Node.serve_slot node in
  check_float "at most capacity" 3. dep.(0)

let test_node_priority_order () =
  (* Static priority: high class drains first. *)
  let node =
    Node.create ~capacity:4. ~classes:2
      (Node.Delta_policy (Policy.static_priority ~priorities:[| 0; 1 |]))
  in
  Node.offer node ~now:0. ~cls:0 10.;
  Node.offer node ~now:0. ~cls:1 3.;
  let dep = Node.serve_slot node in
  check_float "high priority served fully" 3. dep.(1);
  check_float "low priority gets leftover" 1. dep.(0)

let test_node_fifo_interleaves () =
  let node = Node.create ~capacity:4. ~classes:2 (Node.Delta_policy Policy.fifo) in
  Node.offer node ~now:0. ~cls:0 4.;
  Node.offer node ~now:1. ~cls:1 4.;
  let dep1 = Node.serve_slot node in
  check_float "first batch first" 4. dep1.(0);
  let dep2 = Node.serve_slot node in
  check_float "second batch second" 4. dep2.(1)

let test_node_edf_order () =
  let node =
    Node.create ~capacity:4. ~classes:2
      (Node.Delta_policy (Policy.edf ~deadlines:[| 100.; 1. |]))
  in
  Node.offer node ~now:0. ~cls:0 4.;
  Node.offer node ~now:1. ~cls:1 4.;
  (* deadline of cls 1 batch: 2 < 100 => served first despite later arrival *)
  let dep = Node.serve_slot node in
  check_float "urgent class first" 4. dep.(1)

let test_node_gps_shares () =
  let node =
    Node.create ~capacity:6. ~classes:2 (Node.Gps (Scheduler.Gps.v ~weights:[| 1.; 2. |]))
  in
  Node.offer node ~now:0. ~cls:0 100.;
  Node.offer node ~now:0. ~cls:1 100.;
  let dep = Node.serve_slot node in
  check_float "weighted share 0" 2. dep.(0);
  check_float "weighted share 1" 4. dep.(1)

(* ---------------- packetized (non-preemptive) service ---------------- *)

let test_packet_non_preemption () =
  (* A low-priority packet already on the wire blocks an urgent arrival
     until it finishes. Capacity 1 kb/slot, packets of 3 kb: the high
     priority packet must wait for the residual of the low one. *)
  let node =
    Node.create ~packet_size:3. ~capacity:1. ~classes:2
      (Node.Delta_policy (Policy.static_priority ~priorities:[| 0; 1 |]))
  in
  Node.offer node ~now:0. ~cls:0 3.;
  let d1 = Node.serve_slot node in
  check_float "low starts" 1. d1.(0);
  (* urgent high-priority arrival mid-packet *)
  Node.offer node ~now:1. ~cls:1 1.;
  let d2 = Node.serve_slot node in
  check_float "low keeps the wire" 1. d2.(0);
  check_float "high blocked" 0. d2.(1);
  let d3 = Node.serve_slot node in
  check_float "low finishes" 1. d3.(0);
  let d4 = Node.serve_slot node in
  check_float "high finally served" 1. d4.(1)

let test_packet_preemptive_contrast () =
  (* Same scenario under fluid service: the high-priority arrival goes
     first immediately. *)
  let node =
    Node.create ~capacity:1. ~classes:2
      (Node.Delta_policy (Policy.static_priority ~priorities:[| 0; 1 |]))
  in
  Node.offer node ~now:0. ~cls:0 3.;
  ignore (Node.serve_slot node);
  Node.offer node ~now:1. ~cls:1 1.;
  let d2 = Node.serve_slot node in
  check_float "high preempts under fluid" 1. d2.(1)

let test_packet_conservation () =
  let node = Node.create ~packet_size:0.4 ~capacity:5. ~classes:2 (Node.Delta_policy Policy.fifo) in
  let rng = Desim.Prng.create ~seed:11L in
  let offered = ref 0. and departed = ref 0. in
  for t = 0 to 99 do
    let a = Desim.Prng.float rng *. 7. in
    offered := !offered +. a;
    Node.offer node ~now:(float_of_int t) ~cls:(t mod 2) a;
    let dep = Node.serve_slot node in
    departed := !departed +. dep.(0) +. dep.(1)
  done;
  for _ = 1 to 500 do
    let dep = Node.serve_slot node in
    departed := !departed +. dep.(0) +. dep.(1)
  done;
  check_float ~tol:1e-6 "conservation (packetized)" !offered !departed

let test_gps_rejects_packets () =
  Alcotest.check_raises "gps is fluid"
    (Invalid_argument "Queue_node.create: GPS is fluid (no packet size)") (fun () ->
      ignore
        (Node.create ~packet_size:1. ~capacity:5. ~classes:2
           (Node.Gps (Scheduler.Gps.v ~weights:[| 1.; 1. |]))))

(* Packet segmentation assumes a positive packet size; NaN used to slip
   past a [<= 0.] test and queue NaN-sized packets. *)
let test_create_rejects_bad_packet_size () =
  List.iter
    (fun l ->
      Alcotest.check_raises (Printf.sprintf "packet size %g" l)
        (Invalid_argument "Queue_node.create: non-positive packet size") (fun () ->
          ignore
            (Node.create ~packet_size:l ~capacity:5. ~classes:2 (Node.Delta_policy Policy.fifo))))
    [ 0.; -1.; Float.nan ]

(* The class-queue design needs keys that never decrease within a class
   in arrival order; a policy that breaks this must be refused, not
   silently served out of order. *)
let test_offer_rejects_non_locally_fifo () =
  let lifo =
    Policy.make ~name:"LIFO"
      ~key:(fun ~arrival ~cls ~size:_ -> { Policy.major = -.arrival; minor = 0.; tie = cls })
      ()
  in
  let node = Node.create ~capacity:1. ~classes:2 (Node.Delta_policy lifo) in
  Node.offer node ~now:0. ~cls:0 5.;
  (* another class has its own tail; equal keys are fine *)
  Node.offer node ~now:1. ~cls:1 5.;
  Node.offer node ~now:1. ~cls:1 5.;
  Alcotest.check_raises "key below the class's tail"
    (Invalid_argument "Queue_node.offer: key below the class's tail (policy not locally FIFO)")
    (fun () -> Node.offer node ~now:2. ~cls:0 5.)

(* The node computes a built-in policy's key in place, and [Policy.key]
   is its oracle: a twin node under [Policy.make ~key:(Policy.key p)]
   takes the Custom path.  Under one random sequence of offers (zero
   sizes, equal and fractional arrival times, sizes that split into
   several packets) and slot serves (some degraded), the two nodes must
   agree bit for bit on every departure (so on every cumulative
   departure count), on [backlog_of] and on [high_water]. *)
let prop_builtin_key_matches_oracle =
  let bits = Int64.bits_of_float in
  QCheck.Test.make ~name:"in-place built-in key = Policy.key, bit for bit"
    ~count:(Qc.count 100)
    QCheck.(pair int64 bool)
    (fun (seed, packetized) ->
      let rng = Desim.Prng.create ~seed in
      let classes = 2 + Desim.Prng.int rng ~bound:3 in
      let packet_size = if packetized then Some (0.2 +. Desim.Prng.float rng) else None in
      let policies =
        [
          Policy.fifo;
          Policy.static_priority
            ~priorities:(Array.init classes (fun _ -> Desim.Prng.int rng ~bound:3));
          Policy.edf ~deadlines:(Array.init classes (fun _ -> 10. *. Desim.Prng.float rng));
          Policy.bmux ~tagged:(Desim.Prng.int rng ~bound:classes);
        ]
      in
      List.iter
        (fun p ->
          let make p = Node.create ?packet_size ~capacity:3. ~classes (Node.Delta_policy p) in
          let builtin = make p in
          let custom = make (Policy.make ~name:"oracle" ~key:(Policy.key p) ()) in
          let fail what =
            QCheck.Test.fail_reportf "%s%s: %s differs (seed %Ld)" (Policy.name p)
              (if packetized then " packetized" else "")
              what seed
          in
          let same what a b = if bits a <> bits b then fail what in
          let now = ref 0. in
          for _ = 1 to 300 do
            (match Desim.Prng.int rng ~bound:3 with
            | 0 -> ()
            | 1 -> now := !now +. 1.
            | _ -> now := !now +. Desim.Prng.float rng);
            if Desim.Prng.int rng ~bound:3 > 0 then begin
              let cls = Desim.Prng.int rng ~bound:classes in
              let size =
                if Desim.Prng.int rng ~bound:8 = 0 then 0. else 2.5 *. Desim.Prng.float rng
              in
              Node.offer builtin ~now:!now ~cls size;
              Node.offer custom ~now:!now ~cls size
            end
            else begin
              let factor =
                if Desim.Prng.int rng ~bound:4 = 0 then Some (Desim.Prng.float rng) else None
              in
              let a = Array.copy (Node.serve_slot ?factor builtin) in
              let b = Node.serve_slot ?factor custom in
              Array.iteri (fun c d -> same (Printf.sprintf "departure of class %d" c) d b.(c)) a
            end
          done;
          for cls = 0 to classes - 1 do
            same "backlog_of" (Node.backlog_of builtin ~cls) (Node.backlog_of custom ~cls)
          done;
          same "high_water" (Node.high_water builtin) (Node.high_water custom))
        policies;
      true)

(* A NaN size used to fail [size > 0.] and vanish without a trace, and
   +inf was queued as an unservable backlog. *)
let offer_rejects size () =
  let node = Node.create ~capacity:1. ~classes:2 (Node.Delta_policy Policy.fifo) in
  Alcotest.check_raises (Printf.sprintf "size %g" size)
    (Invalid_argument "Queue_node.offer: NaN or infinite size") (fun () ->
      Node.offer node ~now:0. ~cls:0 size);
  check_float "backlog untouched" 0. (Node.backlog_of node ~cls:0)

(* ---------------- tandem ---------------- *)

let small_config scheduler =
  {
    Tandem.default_config with
    Tandem.h = 3;
    n_through = 60;
    n_cross = 120;
    slots = 8_000;
    drain_limit = 4_000;
    scheduler;
    seed = 77L;
  }

let test_tandem_runs_and_measures () =
  let r = Tandem.run (small_config Scheduler.Classes.Fifo) in
  Alcotest.(check bool) "collected delays" true (Desim.Stats.Sample.count r.Tandem.delays > 1000);
  Alcotest.(check bool) "nothing censored" true (Float.equal r.Tandem.censored_kb 0.);
  Array.iter
    (fun u ->
      if u < 0. || u > 1.0001 then Alcotest.failf "utilization out of range: %g" u)
    r.Tandem.utilization

let test_tandem_min_delay_is_path_latency () =
  (* Store-and-forward over h nodes: any data needs >= h-1 slots. *)
  let r = Tandem.run (small_config Scheduler.Classes.Fifo) in
  let dmin = Desim.Stats.Sample.quantile r.Tandem.delays 0. in
  Alcotest.(check bool) "min delay >= h-1" true (dmin >= 2.)

let test_tandem_deterministic_given_seed () =
  let r1 = Tandem.run (small_config Scheduler.Classes.Fifo) in
  let r2 = Tandem.run (small_config Scheduler.Classes.Fifo) in
  Alcotest.(check (array (float 0.))) "same delays"
    (Desim.Stats.Sample.to_sorted_array r1.Tandem.delays)
    (Desim.Stats.Sample.to_sorted_array r2.Tandem.delays);
  check_float "same through volume" r1.Tandem.through_kb r2.Tandem.through_kb

let test_tandem_scheduler_ordering () =
  (* Operationally: through delays under BMUX dominate SP-high, with FIFO in
     between, at a high quantile. *)
  let q r = Tandem.delay_quantile r 0.999 in
  let bmux = Tandem.run (small_config Scheduler.Classes.Bmux) in
  let fifo = Tandem.run (small_config Scheduler.Classes.Fifo) in
  let sp = Tandem.run (small_config Scheduler.Classes.Sp_through_high) in
  Alcotest.(check bool)
    (Fmt.str "sp (%.1f) <= fifo (%.1f)" (q sp) (q fifo))
    true
    (q sp <= q fifo +. 1e-9);
  Alcotest.(check bool)
    (Fmt.str "fifo (%.1f) <= bmux (%.1f)" (q fifo) (q bmux))
    true
    (q fifo <= q bmux +. 1e-9)

let test_tandem_gps_mode () =
  let r =
    Tandem.run { (small_config Scheduler.Classes.Fifo) with Tandem.gps_weights = Some (1., 1.) }
  in
  Alcotest.(check bool) "gps run completes" true
    (Desim.Stats.Sample.count r.Tandem.delays > 1000);
  Alcotest.(check bool) "gps drains" true (Float.equal r.Tandem.censored_kb 0.)

let test_tandem_packetized_mode () =
  (* Packetized FIFO with small packets behaves like fluid FIFO. *)
  let fluid = Tandem.run (small_config Scheduler.Classes.Fifo) in
  let pkt =
    Tandem.run
      { (small_config Scheduler.Classes.Fifo) with Tandem.packet_size = Some 0.1 }
  in
  let qf = Tandem.delay_quantile fluid 0.99 and qp = Tandem.delay_quantile pkt 0.99 in
  Alcotest.(check bool)
    (Fmt.str "fluid q99 %.1f ~ packetized q99 %.1f" qf qp)
    true
    (Float.abs (qf -. qp) <= 2.)

let test_tandem_gps_between_sp_and_bmux () =
  (* Heavily weighted GPS favours the through class like SP; equal weights
     sit between the extremes. *)
  let q cfg = Tandem.delay_quantile (Tandem.run cfg) 0.999 in
  let base = small_config Scheduler.Classes.Fifo in
  let favored = q { base with Tandem.gps_weights = Some (100., 1.) } in
  let starved = q { base with Tandem.gps_weights = Some (1., 100.) } in
  Alcotest.(check bool)
    (Fmt.str "favored %.1f <= starved %.1f" favored starved)
    true (favored <= starved)

let test_tandem_utilization_matches_load () =
  let cfg = small_config Scheduler.Classes.Fifo in
  let r = Tandem.run cfg in
  (* node 0 serves through + cross: (60 + 120) * 0.1486 / 100 = 26.8%, but
     measured over slots + drain (through only in first part); accept a
     generous band *)
  let u0 = r.Tandem.utilization.(0) in
  Alcotest.(check bool) (Fmt.str "u0 = %g in band" u0) true (u0 > 0.15 && u0 < 0.35)

(* ---------------- sim vs bounds, every sweep point ---------------- *)

(* Empirical tandem delay quantiles must stay below the Theorem-1/Eq.-42
   analytical bound at a matching violation probability — at {e every}
   point of the Fig.-4 path-length sweep (H = 1..10), for each scheduler,
   under both engines.  This supersedes the sampled H ∈ {2, 5, 10}
   replication check that used to live in test_parallel.ml.  Runs are
   single fixed-seed simulations, so the assertion is deterministic:
   the 1e-3 analytical bound dominates the 0.999 empirical quantile by
   a wide margin at these parameters. *)
let test_sim_vs_bounds_every_h () =
  let n_through = 100 and n_cross = 504 (* U = 90% *) in
  let slots = 2_000 in
  let q = 0.999 in
  for h = 1 to 10 do
    let analytic sched =
      Deltanet.Scenario.delay_bound ~s_points:8 ~scheduler:sched
        {
          (Deltanet.Scenario.paper_defaults ~h ~n_through:(float_of_int n_through)
             ~n_cross:(float_of_int n_cross))
          with
          Deltanet.Scenario.epsilon = 1e-3;
        }
    in
    (* one slot of store-and-forward latency per hop except the last is
       architectural in the simulator and absent from the fluid model *)
    let forwarding = float_of_int (h - 1) in
    List.iter
      (fun (name, sched) ->
        let cfg =
          {
            Tandem.default_config with
            Tandem.h;
            n_through;
            n_cross;
            slots;
            drain_limit = slots / 2;
            scheduler = sched;
            through_deadline = 10.;
            cross_deadline = 100.;
            seed = Int64.of_int (20100621 + h);
          }
        in
        let bound = analytic sched +. forwarding in
        List.iter
          (fun (ename, engine) ->
            let r = Tandem.run ~engine cfg in
            let qv = Tandem.delay_quantile r q in
            if not (qv <= bound) then
              Alcotest.failf "H=%d %s (%s engine): sim quantile %.2f exceeds bound %.2f"
                h name ename qv bound)
          [ ("slotted", Tandem.Slotted); ("event", Tandem.Event) ])
      [
        ("FIFO", Scheduler.Classes.Fifo);
        ("BMUX", Scheduler.Classes.Bmux);
        ("EDF", Scheduler.Classes.Edf_gap (-90.));
      ]
  done

let suite =
  [
    Alcotest.test_case "source mean rate" `Slow test_source_mean_rate;
    Alcotest.test_case "source peak bound" `Quick test_source_peak_bound;
    Alcotest.test_case "node conservation" `Quick test_node_conservation;
    Alcotest.test_case "node capacity" `Quick test_node_capacity_respected;
    Alcotest.test_case "node priority order" `Quick test_node_priority_order;
    Alcotest.test_case "node fifo interleaves" `Quick test_node_fifo_interleaves;
    Alcotest.test_case "node edf order" `Quick test_node_edf_order;
    Alcotest.test_case "node gps shares" `Quick test_node_gps_shares;
    Alcotest.test_case "packet non-preemption" `Quick test_packet_non_preemption;
    Alcotest.test_case "fluid preempts" `Quick test_packet_preemptive_contrast;
    Alcotest.test_case "packet conservation" `Quick test_packet_conservation;
    Alcotest.test_case "gps rejects packets" `Quick test_gps_rejects_packets;
    Alcotest.test_case "create rejects a bad packet size" `Quick
      test_create_rejects_bad_packet_size;
    Alcotest.test_case "offer rejects non-locally-FIFO keys" `Quick
      test_offer_rejects_non_locally_fifo;
    Alcotest.test_case "tandem runs" `Slow test_tandem_runs_and_measures;
    Alcotest.test_case "tandem path latency" `Slow test_tandem_min_delay_is_path_latency;
    Alcotest.test_case "tandem deterministic" `Slow test_tandem_deterministic_given_seed;
    Alcotest.test_case "tandem scheduler ordering" `Slow test_tandem_scheduler_ordering;
    Alcotest.test_case "tandem gps mode" `Slow test_tandem_gps_mode;
    Alcotest.test_case "tandem packetized mode" `Slow test_tandem_packetized_mode;
    Alcotest.test_case "tandem gps weights order" `Slow test_tandem_gps_between_sp_and_bmux;
    Alcotest.test_case "tandem utilization" `Slow test_tandem_utilization_matches_load;
    Alcotest.test_case "sim below bounds at every sweep point" `Slow
      test_sim_vs_bounds_every_h;
    Alcotest.test_case "offer rejects a NaN size" `Quick (offer_rejects Float.nan);
    Alcotest.test_case "offer rejects an infinite size" `Quick (offer_rejects Float.infinity);
    QCheck_alcotest.to_alcotest prop_builtin_key_matches_oracle;
  ]
