(* Cross-commit simulator golden: bit digests of every result field.

   The parity suite (test_desim_parity.ml) compares the two tandem
   engines against each other; both run on the same queueing node, so a
   change to the node itself moves both sides together and parity cannot
   see it.  This suite pins an MD5 of the exact bit patterns of every
   field of [Tandem.result] and [Single_node_sim.result] over a fixed
   matrix of configurations, so any change to the arithmetic, service
   order or RNG stream derivation of the simulator fails here.

   Matrix: every scheduler shape (FIFO, BMUX, SP, EDF with both deadline
   orders, GPS, packetized FIFO/EDF/SP) crossed with plain, faulted, CBR
   and heterogeneous-capacity configs on both engines; and the
   three-class single-node simulator under FIFO/SP/EDF/SCED with and
   without faults.

   A mismatch lists every drifted case with its new digest; update the
   table only when the change of simulated behaviour is intended. *)

module Tandem = Netsim.Tandem
module Faults = Netsim.Faults
module Single = Netsim.Single_node_sim
module Sample = Desim.Stats.Sample
module Policy = Scheduler.Policy

let add_bits b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_sample b s =
  let xs = Sample.to_sorted_array s in
  Buffer.add_string b (string_of_int (Array.length xs));
  Buffer.add_char b ':';
  Array.iter (add_bits b) xs;
  Buffer.add_char b '|'

let add_floats b xs =
  Buffer.add_string b (string_of_int (Array.length xs));
  Buffer.add_char b ':';
  Array.iter (add_bits b) xs;
  Buffer.add_char b '|'

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let digest_tandem (r : Tandem.result) =
  let b = Buffer.create 4096 in
  add_sample b r.Tandem.delays;
  add_sample b r.Tandem.through_backlog;
  add_floats b [| r.Tandem.through_kb; r.Tandem.censored_kb |];
  add_floats b r.Tandem.utilization;
  add_floats b r.Tandem.fault_factor;
  Buffer.add_string b (string_of_int r.Tandem.events_processed);
  hex b

let digest_single (r : Single.result) =
  let b = Buffer.create 4096 in
  Array.iter (add_sample b) r.Single.delays;
  add_floats b [| r.Single.utilization; r.Single.fault_factor |];
  add_floats b r.Single.offered_kb;
  add_floats b r.Single.censored_kb;
  hex b

(* ---------------- configurations ---------------- *)

(* H = 3 at ~93% load on capacity 16 (100 flows of ~0.15 kb/slot mean):
   enough queueing that every scheduler reorders service, and a packet
   size that does not divide the 1.5 kb peak so packetized service takes
   its own arithmetic path. *)
let base =
  {
    Tandem.default_config with
    h = 3;
    capacity = 16.;
    n_through = 40;
    n_cross = 60;
    slots = 300;
    drain_limit = 300;
    seed = 7L;
    through_deadline = 5.;
    cross_deadline = 10.;
  }

let schedulers : (string * (Tandem.config -> Tandem.config)) list =
  let module C = Scheduler.Classes in
  [
    ("fifo", fun c -> { c with Tandem.scheduler = C.Fifo });
    ("bmux", fun c -> { c with Tandem.scheduler = C.Bmux });
    ("sp", fun c -> { c with Tandem.scheduler = C.Sp_through_high });
    ("edf+", fun c -> { c with Tandem.scheduler = C.Edf_gap 5. });
    ( "edf-",
      fun c ->
        { c with Tandem.scheduler = C.Edf_gap (-5.); through_deadline = 10.; cross_deadline = 5. }
    );
    ("gps", fun c -> { c with Tandem.gps_weights = Some (2., 1.) });
    ("pkt-fifo", fun c -> { c with Tandem.packet_size = Some 0.7 });
    ("pkt-edf", fun c -> { c with Tandem.scheduler = C.Edf_gap 5.; packet_size = Some 0.7 });
    ("pkt-sp", fun c -> { c with Tandem.scheduler = C.Sp_through_high; packet_size = Some 0.7 });
  ]

let faults =
  [
    (0, Faults.Gilbert { p_fail = 0.05; p_recover = 0.3; factor = 0.4 });
    (2, Faults.Windows [ (50, 120, 0.5) ]);
  ]

let slotted_variants : (string * (Tandem.config -> Tandem.config)) list =
  [
    ("plain", Fun.id);
    ("faults", fun c -> { c with Tandem.faults });
    ("cbr", fun c -> { c with Tandem.through_kind = Tandem.Cbr { period = 5; burst = 20. } });
    ("hetero", fun c -> { c with Tandem.capacities = Some [| 19.; 15.; 17. |] });
  ]

let tandem_cases () =
  List.concat_map
    (fun (sn, sf) ->
      List.concat_map
        (fun (vn, vf) ->
          let cfg = vf (sf base) in
          [
            (Printf.sprintf "slotted/%s/%s" sn vn, fun () -> digest_tandem (Tandem.run cfg));
            ( Printf.sprintf "event/%s/%s" sn vn,
              fun () -> digest_tandem (Tandem.run ~engine:Tandem.Event cfg) );
          ])
        slotted_variants)
    schedulers

let single_base =
  {
    Single.default_config with
    Single.capacity = 16.;
    classes =
      [|
        { Single.n_flows = 20; source = Envelope.Mmpp.paper_source };
        { Single.n_flows = 40; source = Envelope.Mmpp.paper_source };
        { Single.n_flows = 40; source = Envelope.Mmpp.paper_source };
      |];
    slots = 600;
    drain_limit = 400;
    seed = 11L;
  }

let single_cases () =
  let policies =
    [
      ("fifo", fun () -> Policy.fifo);
      ("sp", fun () -> Policy.static_priority ~priorities:[| 2; 1; 0 |]);
      ("edf", fun () -> Policy.edf ~deadlines:[| 2.; 5.; 10. |]);
      ( "sced",
        fun () ->
          Scheduler.Sced.policy
            ~targets:
              [|
                { Scheduler.Sced.rate = 4.; latency = 1. };
                { Scheduler.Sced.rate = 8.; latency = 3. };
                { Scheduler.Sced.rate = 8.; latency = 6. };
              |]
            () );
    ]
  in
  List.concat_map
    (fun (pn, policy) ->
      List.map
        (fun (fn, faults) ->
          ( Printf.sprintf "single/%s/%s" pn fn,
            fun () -> digest_single (Single.run { single_base with policy = policy (); faults }) ))
        [
          ("plain", None);
          ("faults", Some (Faults.Gilbert { p_fail = 0.05; p_recover = 0.3; factor = 0.4 }));
        ])
    policies

(* ---------------- pinned digests ---------------- *)

let expected : (string * string) list =
  [
    ("event/bmux/cbr", "ce46e5bf1067968f0efa0213a61b0539");
    ("event/bmux/faults", "771f2b1bacebedff8efbc2184ed5b6be");
    ("event/bmux/hetero", "e2091a797ea305755ce11de281fc0daa");
    ("event/bmux/plain", "99b597889ad098be580c081597047867");
    ("event/edf+/cbr", "beab0fbbd602dc1f26d4e5942550e62d");
    ("event/edf+/faults", "923c7abfd92c05fa739e04a9f8b11cda");
    ("event/edf+/hetero", "20b14cf401d8983dd3bb9310a469eb56");
    ("event/edf+/plain", "dd572e8df0674e79f7ade865b2ab9f97");
    ("event/edf-/cbr", "f94f8ce16fb374769f5125a5575a660d");
    ("event/edf-/faults", "ca5c246a6cbefb4cfad3fd17a5884be9");
    ("event/edf-/hetero", "3de212e24d27402ae19861ec3b89a42f");
    ("event/edf-/plain", "2300fbd0d9084101a9add6cab7f41e0b");
    ("event/fifo/cbr", "db6e5a3f5341f1daacb40243c20ba986");
    ("event/fifo/faults", "f1af0c4b595d2967c0cd25b198337d0d");
    ("event/fifo/hetero", "0e4486bd65f8e2a56a13bd818bb9471e");
    ("event/fifo/plain", "3c369b350f2f38293f535d52ffd44d23");
    ("event/gps/cbr", "fcbb1afbf1f1234b5c427bb8e43947c4");
    ("event/gps/faults", "767606cd0fb87e9911a2aa5b1f4b7f62");
    ("event/gps/hetero", "1d54125412c28975d493a6bf141a7483");
    ("event/gps/plain", "d02fa7a1e5019a6fe25e5bfa897f163b");
    ("event/pkt-edf/cbr", "d2d7b0b00eed73ed43e40803c0ad44aa");
    ("event/pkt-edf/faults", "ae377b16567f41887187602d7d80f5ad");
    ("event/pkt-edf/hetero", "d9f0a6ea5448e6d4d9b77eed9347e436");
    ("event/pkt-edf/plain", "0be8d8359bce4ef23e2521822992fd59");
    ("event/pkt-fifo/cbr", "8b90cbb136849c931cae3928b46b0c6b");
    ("event/pkt-fifo/faults", "12633bac479b7c0ed830afc8608ed36d");
    ("event/pkt-fifo/hetero", "ce8e39f084eeeb85b8394b0b8afe2cb8");
    ("event/pkt-fifo/plain", "4ec5c6c57303e3a7ae2d130311844dc5");
    ("event/pkt-sp/cbr", "8e6e8985f10265b0bad9a6d021e91791");
    ("event/pkt-sp/faults", "5f53c35e98938eb336111d2f686c92fe");
    ("event/pkt-sp/hetero", "ef564d7cf326eb9990abb2f70432fbe9");
    ("event/pkt-sp/plain", "8086471978d436e3286a7734795f34f9");
    ("event/sp/cbr", "99e985dcc0e8a111d69f8bcc371166be");
    ("event/sp/faults", "e08ddaf467244c87773582449acaba7b");
    ("event/sp/hetero", "45b130ab5da5571ca4a74dd5c3badab3");
    ("event/sp/plain", "72b41da84314697450047fe80b9bb58f");
    ("single/edf/faults", "a69e5d6648f29033e7914325dc63e8ff");
    ("single/edf/plain", "43ebc3a9ebca3c8c45e34891720846be");
    ("single/fifo/faults", "5cf929854be3883501583be7f62e9275");
    ("single/fifo/plain", "bcc5a267b63be57c90b7821d9214c97a");
    ("single/sced/faults", "b7226eb9fc517ce1e65376077bcb982b");
    ("single/sced/plain", "686f4b50d8ec65006fff4245c65727ec");
    ("single/sp/faults", "de3ceeb05a865bb0bcb3f7fa8d921c58");
    ("single/sp/plain", "d5eccc9be49fd5682c4a61eb3e76b010");
    ("slotted/bmux/cbr", "c0614ff9cf10030a3357fef1295a5560");
    ("slotted/bmux/faults", "cf238c77ba6ce3a82c260bb2eb03b2f1");
    ("slotted/bmux/hetero", "cf12a129c75b17c7281ab9304edf93b8");
    ("slotted/bmux/plain", "c7907f0ebb7106eb3b85728eb2555847");
    ("slotted/edf+/cbr", "99f497e6a4c03e401fada428b8e2b649");
    ("slotted/edf+/faults", "534bacb5c07abfbddb47294fc0a48f63");
    ("slotted/edf+/hetero", "d38384babb46eb99f16398923348cd8f");
    ("slotted/edf+/plain", "f6ae9f0ae900f5715a1be2f3f01eda6e");
    ("slotted/edf-/cbr", "ca48565860fc4e0d0bc8d5d659fcdebb");
    ("slotted/edf-/faults", "3fcb5937a91b6af3ad3f7de6a8d6e2bb");
    ("slotted/edf-/hetero", "81ffbc4380d54f58f8221670e20154fb");
    ("slotted/edf-/plain", "aaa8a2603595a5e0299282ab44bef6a2");
    ("slotted/fifo/cbr", "53938a39637c4150140ef2c40975dfba");
    ("slotted/fifo/faults", "9adb3f158a86beecb227d5c345f445c8");
    ("slotted/fifo/hetero", "c3111c26e1d7b9ba4a2de9d969d559aa");
    ("slotted/fifo/plain", "da82476aaf3ac585bdd2a77aa2f608e0");
    ("slotted/gps/cbr", "80daba9b246a1578c470687e296825b2");
    ("slotted/gps/faults", "4c97bbbf4d369f1f4f0299ba08a88d1d");
    ("slotted/gps/hetero", "81b7d01dfb4d56b804d944374dd89f0f");
    ("slotted/gps/plain", "6eadc543305c72e5a5ad3ca1b9080c66");
    ("slotted/pkt-edf/cbr", "605fdd1f3b0b426a03cdc6ab877c564e");
    ("slotted/pkt-edf/faults", "64f23e3419e50c174c322aaf98024bf1");
    ("slotted/pkt-edf/hetero", "9f9e050a0d3c21a0d52cea09624914da");
    ("slotted/pkt-edf/plain", "450e369832c880a55d8b17c034d3c0e5");
    ("slotted/pkt-fifo/cbr", "5ae299f97bdf9cfe8a2806ab55e55fbf");
    ("slotted/pkt-fifo/faults", "e5e52b513e9fb1d0d43ee8216d71e396");
    ("slotted/pkt-fifo/hetero", "f8a076d3b9a71e8ff884197bd1bd3080");
    ("slotted/pkt-fifo/plain", "10becc6b83a1e9550f043f87f3485655");
    ("slotted/pkt-sp/cbr", "e18be3fc0a7f4fe143ab0c6a8e220c6a");
    ("slotted/pkt-sp/faults", "84773e304d16ea38dde9a485562b83ca");
    ("slotted/pkt-sp/hetero", "dbe7a9fd4af3d715e0e8f0d4a0c99d01");
    ("slotted/pkt-sp/plain", "622b348da6ebe882f3a2c0a46aa7e83a");
    ("slotted/sp/cbr", "7fdff86ed4f78613a207568b702e7ac0");
    ("slotted/sp/faults", "e1fd1169ff035dae14d453ee40cbf679");
    ("slotted/sp/hetero", "b54b3bec29920d7ab9b5b1838ec74aba");
    ("slotted/sp/plain", "9492f20141bb79ec599ccebac133994e");
  ]

let check_cases cases () =
  let drift =
    List.filter_map
      (fun (name, run) ->
        let got = run () in
        match List.assoc_opt name expected with
        | Some want when String.equal want got -> None
        | Some want -> Some (Printf.sprintf "  %S (was %s) -> %S;" name want got)
        | None -> Some (Printf.sprintf "  (%S, %S); (* not pinned *)" name got))
      (cases ())
  in
  if drift <> [] then
    Alcotest.failf "%d simulator digest(s) drifted:\n%s" (List.length drift)
      (String.concat "\n" drift)

let suite =
  [
    Alcotest.test_case "slot-aligned tandem digests (both engines)" `Quick
      (check_cases tandem_cases);
    Alcotest.test_case "single-node digests" `Quick (check_cases single_cases);
  ]
