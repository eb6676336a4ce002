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
   and heterogeneous-capacity configs on both engines; the continuous
   event path with propagation delay, with link loss and with faults on
   heterogeneous nodes; and the three-class single-node simulator under
   FIFO/SP/EDF/SCED with and without faults.

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
  add_floats b [| r.Tandem.through_kb; r.Tandem.censored_kb; r.Tandem.lost_kb |];
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

let continuous_variants : (string * (Tandem.config -> Tandem.config)) list =
  [
    ("prop", fun c -> { c with Tandem.prop_delay = Some [| 1.; 0.5; 0.25 |] });
    ("loss", fun c -> { c with Tandem.loss = Some [| 0.05; 0.; 0.1 |] });
    ( "prop+faults+hetero",
      fun c ->
        {
          c with
          Tandem.prop_delay = Some [| 1.5; 1.; 0. |];
          faults;
          capacities = Some [| 19.; 15.; 17. |];
        } );
  ]

let slot_aligned_cases () =
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

let continuous_cases () =
  List.concat_map
    (fun (sn, sf) ->
      List.map
        (fun (vn, vf) ->
          let cfg = vf (sf base) in
          ( Printf.sprintf "continuous/%s/%s" sn vn,
            fun () -> digest_tandem (Tandem.run ~engine:Tandem.Event cfg) ))
        continuous_variants)
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
    ("continuous/bmux/loss", "26e023303d3866c0f70b629adf876e99");
    ("continuous/bmux/prop", "8e8fe607cbd3884997e90c47acc9b5fb");
    ("continuous/bmux/prop+faults+hetero", "94d20309392e805a7338844783c9ef4b");
    ("continuous/edf+/loss", "880f62f0dd08054b61aeca547959dbba");
    ("continuous/edf+/prop", "e00f8dcbeb3538ad244aaef6096cc9ea");
    ("continuous/edf+/prop+faults+hetero", "51a4ffafb9d5263ed1859c269744f179");
    ("continuous/edf-/loss", "ec7bb9c55753c2fc71085b9d615bb500");
    ("continuous/edf-/prop", "7beca91a4420ca4fb8f077055640c4d4");
    ("continuous/edf-/prop+faults+hetero", "ecd7a5e12e6fa629c9d6c00fcc363bcc");
    ("continuous/fifo/loss", "c744ffdb4f99fab1bbb32124da9da540");
    ("continuous/fifo/prop", "306ae1ad39fcaa22af7178305e7c4b67");
    ("continuous/fifo/prop+faults+hetero", "d339817d5a48cdabf4a7430d907bed10");
    (* continuous GPS has no earlier digest: the node before the shared
       class queue livelocked on GPS with propagation delay or loss *)
    ("continuous/gps/loss", "81d82291b60f4a91acba9540b69a7f7f");
    ("continuous/gps/prop", "b632f8bf0c83ab1f50913f1736f679c9");
    ("continuous/gps/prop+faults+hetero", "60d4a6d4043e356f260d31e43ac51afe");
    ("continuous/pkt-edf/loss", "1c0180515a3094f1d3911b52933732d0");
    ("continuous/pkt-edf/prop", "5a7169897cbdcd60fcb70c9de73ba78b");
    ("continuous/pkt-edf/prop+faults+hetero", "e1f665acfbdfd2bd07d520d21b2e5e13");
    ("continuous/pkt-fifo/loss", "5bd06df351db2af74ee5b8c5ff2c4908");
    ("continuous/pkt-fifo/prop", "229e5a0f848f8b9591b8369f978a7e5a");
    ("continuous/pkt-fifo/prop+faults+hetero", "cdae96c2951ea2c8b73fcfcfeae439db");
    ("continuous/pkt-sp/loss", "7213abe8dffb36d995431edb6882533d");
    ("continuous/pkt-sp/prop", "f218aa32ca0bb8f07833171f33f9a6f2");
    ("continuous/pkt-sp/prop+faults+hetero", "f28f04eb6a8d0e656a878c009ea59478");
    ("continuous/sp/loss", "121de9b77831e002dab83b598651cab8");
    ("continuous/sp/prop", "034c0307e794479e62e116d5c771b78e");
    ("continuous/sp/prop+faults+hetero", "f839790b0ff99b01960ea14f7eabf401");
    ("event/bmux/cbr", "94887c45ee9894f41264f38db8f01538");
    ("event/bmux/faults", "bc05e586be4a2b8637185982d3cef317");
    ("event/bmux/hetero", "d7b21a19966394b1fc1f1c6592e15dda");
    ("event/bmux/plain", "ac7a4bd831b0e934bc5616a611763bb7");
    ("event/edf+/cbr", "49c7d6560411893e364eea5748045a1b");
    ("event/edf+/faults", "c66062b57961b4d2f7845c2df81f891e");
    ("event/edf+/hetero", "76099d15762d82186b89d410044600bb");
    ("event/edf+/plain", "135380a568cad3d6973b7013d1326301");
    ("event/edf-/cbr", "1f77483b38d7735faeb64874f4479b0f");
    ("event/edf-/faults", "8cc6ec2a574c2b65b1086fd7445a5929");
    ("event/edf-/hetero", "77261a1c8d25f74f22e7557153639da5");
    ("event/edf-/plain", "b924d3ea9b793b3cc5a1c419a425a55f");
    ("event/fifo/cbr", "1ffe49c021a88acf1bae114747a35fb6");
    ("event/fifo/faults", "f4cdf1039bc01ddb7a496271d2ea7174");
    ("event/fifo/hetero", "2ba1b542fb0884a6acbdc8ee4ac38f19");
    ("event/fifo/plain", "29994a1829b11953d6afed5acb43d1de");
    ("event/gps/cbr", "2955cc02569b594d075c6576a4a9adfc");
    ("event/gps/faults", "9cafce2fc7747c0e0392065ecb2bf925");
    ("event/gps/hetero", "08a5579532a580778504eb0695470739");
    ("event/gps/plain", "46d9f17da51bd4db7ab1477ab1170d64");
    ("event/pkt-edf/cbr", "54937899d2b92a7f0116bce49b10796d");
    ("event/pkt-edf/faults", "605d7b145767690120ec24acc226bb35");
    ("event/pkt-edf/hetero", "ea53f13c70edff77152f47a46cf41ffa");
    ("event/pkt-edf/plain", "44370236d16700b20ec3f16ea4f67848");
    ("event/pkt-fifo/cbr", "459779537f8e822e279eb67beacb25b4");
    ("event/pkt-fifo/faults", "f4ada8fb9c9179c67ee313c2faca88f3");
    ("event/pkt-fifo/hetero", "5f373c53c9d5571e501a9bbead183498");
    ("event/pkt-fifo/plain", "717efd00d80e4020f6c869ef75e6e0d3");
    ("event/pkt-sp/cbr", "fd5c3965604a84290c3c223ca33153ca");
    ("event/pkt-sp/faults", "a7de56b8819af94a66ddd35e822954ce");
    ("event/pkt-sp/hetero", "fb30b106a01a6be9dbba769738ac3c27");
    ("event/pkt-sp/plain", "c4ce90efbca7eff0d678210c470c0774");
    ("event/sp/cbr", "ca99ef82ee43e76207f78343b2dd2f22");
    ("event/sp/faults", "8d29ded57603787d887993d8cb14478b");
    ("event/sp/hetero", "1796f2bd16b377a058687f4f618b7396");
    ("event/sp/plain", "1f22296ddd3ce642df2e89f81cc9dfce");
    ("single/edf/faults", "a69e5d6648f29033e7914325dc63e8ff");
    ("single/edf/plain", "43ebc3a9ebca3c8c45e34891720846be");
    ("single/fifo/faults", "5cf929854be3883501583be7f62e9275");
    ("single/fifo/plain", "bcc5a267b63be57c90b7821d9214c97a");
    ("single/sced/faults", "b7226eb9fc517ce1e65376077bcb982b");
    ("single/sced/plain", "686f4b50d8ec65006fff4245c65727ec");
    ("single/sp/faults", "de3ceeb05a865bb0bcb3f7fa8d921c58");
    ("single/sp/plain", "d5eccc9be49fd5682c4a61eb3e76b010");
    ("slotted/bmux/cbr", "50f8997d28f55d158b775607b8166986");
    ("slotted/bmux/faults", "12d2bce38566702e8286f9f613b595d0");
    ("slotted/bmux/hetero", "212f6b8209b97be9e6257b5fa4deb9f6");
    ("slotted/bmux/plain", "d132558580da145e47746aa75c5dd5ad");
    ("slotted/edf+/cbr", "ea12942826afcedb53e1da89166d1db9");
    ("slotted/edf+/faults", "355d717efef2b9525ec50e02be6167b3");
    ("slotted/edf+/hetero", "850ccb27b623523c70b4608729cb9f95");
    ("slotted/edf+/plain", "42cfc9c1a967de512cb183a7787deaef");
    ("slotted/edf-/cbr", "48ad4283d9ed32e4e01aa10c8a331b82");
    ("slotted/edf-/faults", "ba9cc84f3df4aba238f39e60f0fa5285");
    ("slotted/edf-/hetero", "51f3f6bdf046cb93afbe024531e4bfee");
    ("slotted/edf-/plain", "68d2e2d15bc49d19d17ecf0582b7b161");
    ("slotted/fifo/cbr", "0db0c58c1ec7a2d43d2a86ba7e594389");
    ("slotted/fifo/faults", "ed0542626db41382e2b165f697c0940d");
    ("slotted/fifo/hetero", "3ee31eaf47d8bae039766e01ae552e94");
    ("slotted/fifo/plain", "d035f34a53f390088ac093dd6ea635d0");
    ("slotted/gps/cbr", "f2ed6bfb2ba7144ccab7ba482332dd83");
    ("slotted/gps/faults", "f1cc95ef438f534df0233b79b3516f29");
    ("slotted/gps/hetero", "99ce1e114a527adb46f4009a0b7fe43d");
    ("slotted/gps/plain", "32e4db043dc517e3256ffc83a29fed73");
    ("slotted/pkt-edf/cbr", "0f98b922633e71c1ea62132b50dadf63");
    ("slotted/pkt-edf/faults", "d6aff1ade9b033b303a86ea10374d184");
    ("slotted/pkt-edf/hetero", "5223eba20fe795d3446f3a2f1854da73");
    ("slotted/pkt-edf/plain", "92035d3aca29743848796398e2fed449");
    ("slotted/pkt-fifo/cbr", "eafaa17e3756d83b8b92f9f85d2f3e9c");
    ("slotted/pkt-fifo/faults", "486cf8d0f0388e294625cdcc4629af10");
    ("slotted/pkt-fifo/hetero", "38c730a2eb551b966b7972117cecc436");
    ("slotted/pkt-fifo/plain", "61b60819e0e22b66ef4cd9831c247294");
    ("slotted/pkt-sp/cbr", "48f9cf71c4edf2765deda04853d60ab2");
    ("slotted/pkt-sp/faults", "3ccdbb4a96bc74d0727470abfb389955");
    ("slotted/pkt-sp/hetero", "c57222d5df7410fa2b88e91c5b2c5f7f");
    ("slotted/pkt-sp/plain", "bb818d8ee54a07897acf89a842a928e3");
    ("slotted/sp/cbr", "0ff766890768ad33323a39b0099e6a66");
    ("slotted/sp/faults", "f638161d72524c546f8b267e4feaf4b7");
    ("slotted/sp/hetero", "dbb3e1142152bb14eecdfb023452f7ce");
    ("slotted/sp/plain", "4a51f6ecca6fa7abaadd043dc09f04e3");
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
      (check_cases slot_aligned_cases);
    Alcotest.test_case "continuous tandem digests" `Quick (check_cases continuous_cases);
    Alcotest.test_case "single-node digests" `Quick (check_cases single_cases);
  ]
