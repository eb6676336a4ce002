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
    ("event/bmux/cbr", "1f5d6de0b35102a60bbdee68f72fc0a4");
    ("event/bmux/faults", "b38b8354ad23669ee1b773dbcae5e7e5");
    ("event/bmux/hetero", "006cdc16557fc8259bdf41aea6b10395");
    ("event/bmux/plain", "6d43325ea6908197f0abfe981ff300d1");
    ("event/edf+/cbr", "072ffc6c2e95b1310795b4162449f5e5");
    ("event/edf+/faults", "f7b8692a7c91b223dd842efede22f980");
    ("event/edf+/hetero", "788c7f041b2667c0d04f3985df633eeb");
    ("event/edf+/plain", "ff355e8e25dd280fc4c525d5bc31eb84");
    ("event/edf-/cbr", "7502bf7bd8b1c5aeefa4fef86e1d2d1f");
    ("event/edf-/faults", "065b9ba7ccc0b4e2b75bcf58c397cd30");
    ("event/edf-/hetero", "30b2a2552f95b856d0bd08caf6415e5a");
    ("event/edf-/plain", "d069c6105cebc7ee08bf6a12c09aebdf");
    ("event/fifo/cbr", "faf2257f0e01dd208c143aead5b36971");
    ("event/fifo/faults", "d00115ad7a6c48e691cdf0f7c489d71b");
    ("event/fifo/hetero", "b01ae0eb4db128725efd797de2213613");
    ("event/fifo/plain", "ce45981c60b4bc258d175f28eea57456");
    ("event/gps/cbr", "651b03044ce6489a15aa62814e704e1d");
    ("event/gps/faults", "ffb29145f331841bd3fec87af74efa84");
    ("event/gps/hetero", "4d519df69d1d95c1952ab326caeab00f");
    ("event/gps/plain", "0df88cc0c138d5a6df4ed1c90fc7ac8e");
    ("event/pkt-edf/cbr", "3cd0d65661e1d2b5068677656ecb1b89");
    ("event/pkt-edf/faults", "06d240539b40589cd2053948623c206b");
    ("event/pkt-edf/hetero", "a340052b954e6eb82398f43d054e9332");
    ("event/pkt-edf/plain", "7da60f7e279add71b4f52f141ccaf3b3");
    ("event/pkt-fifo/cbr", "6ad5bf3a655924b372374f9859fb5abb");
    ("event/pkt-fifo/faults", "5a864b855ad5a590360a53a233967e6c");
    ("event/pkt-fifo/hetero", "30ef2f598083339637a86cbc09e0a41c");
    ("event/pkt-fifo/plain", "c67e5edbd207a8ad1e5c0bd2862179ca");
    ("event/pkt-sp/cbr", "a5a8fc2e1fd4facdfa3f0f3b471bcc9b");
    ("event/pkt-sp/faults", "41481002fbf7e11ec6168e4396b7ec8f");
    ("event/pkt-sp/hetero", "b9cb71f4426f442337989840d1288f8f");
    ("event/pkt-sp/plain", "4cea5185c59d6debfb4a99d0006fcc53");
    ("event/sp/cbr", "525e6bdbeaeba645423395101a38d434");
    ("event/sp/faults", "ae0b08b218a652ca26ec79211dd08b85");
    ("event/sp/hetero", "dd9f882edb10ba81933eb560f26127ce");
    ("event/sp/plain", "e6153e6fe200f41645e8da7d15937272");
    ("single/edf/faults", "1890e5a47f244b558299018777466878");
    ("single/edf/plain", "c330a378ef29ef37b5eb320825651078");
    ("single/fifo/faults", "27d66fedbcb4aa31c5d2d4b8e399938e");
    ("single/fifo/plain", "d331c83dc67774ad49dd316779faf597");
    ("single/sced/faults", "c4d5d667db6821b84007dda67f6c484f");
    ("single/sced/plain", "081d44a1f8c5eec204d60d860816c443");
    ("single/sp/faults", "dc4af1271e067d1bc208287f8616b282");
    ("single/sp/plain", "c721d8a80b22f7c6f33f87f3afac5d92");
    ("slotted/bmux/cbr", "3e4d9304661e265baf5abccb6eb09e72");
    ("slotted/bmux/faults", "9fc7981344660ee1a073b48f4716dc93");
    ("slotted/bmux/hetero", "4c72265dcfd9a0a7a13cde77fbcb2dc4");
    ("slotted/bmux/plain", "699fc0bd47ff4069efb3d6260cc48ba9");
    ("slotted/edf+/cbr", "1b5e7d4850f5a9684f9ceb23f18ce066");
    ("slotted/edf+/faults", "9a139a401c8854314c29ec2c9b5d13f3");
    ("slotted/edf+/hetero", "ed583a50ad1b54531f11557ca121c9bc");
    ("slotted/edf+/plain", "a023640951349c08659f1a45ee4c59d9");
    ("slotted/edf-/cbr", "b6097cb2ba0dc7e676c8b50b3b9e6a98");
    ("slotted/edf-/faults", "fc313d5a94558b394d53ca59ef339d54");
    ("slotted/edf-/hetero", "bc52fefcc2fd429564a3c24091c64463");
    ("slotted/edf-/plain", "8b24311025e077a1443a41d062db8a18");
    ("slotted/fifo/cbr", "5b03c38d0339abd39f323a6890f017d0");
    ("slotted/fifo/faults", "8a8e43f82c782a7908f0b229f423960a");
    ("slotted/fifo/hetero", "138456a721869903c540344c0e660d83");
    ("slotted/fifo/plain", "ebdd7ffbf98db7a2adef4cf6f91e0efc");
    ("slotted/gps/cbr", "0dd9cd219254ab09248773e0944cef15");
    ("slotted/gps/faults", "48b030e1746772fa660b2578802a63bf");
    ("slotted/gps/hetero", "cc16022904f10b7e41ce6cc3859eba64");
    ("slotted/gps/plain", "e79776f0c6de7b1a685f489ab5610ad7");
    ("slotted/pkt-edf/cbr", "4d2f8db69754a4d7ad35786a0e76522c");
    ("slotted/pkt-edf/faults", "597c5a7d94c33bf099b27a05c0f29f89");
    ("slotted/pkt-edf/hetero", "a3d044af9526f7a3e44613cfb543d50e");
    ("slotted/pkt-edf/plain", "f96a6deaaccb9a1f115439d539ae1b2d");
    ("slotted/pkt-fifo/cbr", "cb19776d5747d2120e54d242b18915d3");
    ("slotted/pkt-fifo/faults", "eae95ab9136f44aeab405ad63bcc6a1b");
    ("slotted/pkt-fifo/hetero", "0f1f25dd03d004fbb1fd31fe911a6800");
    ("slotted/pkt-fifo/plain", "faa2e16ab178b026fdf35a73595aa591");
    ("slotted/pkt-sp/cbr", "42d838317b5f0932ae6f058dd5ee3393");
    ("slotted/pkt-sp/faults", "20b719fb33c2a0c4fc33af5ac3131de7");
    ("slotted/pkt-sp/hetero", "795cbaebdfc5c353f7aae6687cb50121");
    ("slotted/pkt-sp/plain", "0af154e717873b517f48719221a5ea00");
    ("slotted/sp/cbr", "243abada4c2135666fa9e3e3edf4594a");
    ("slotted/sp/faults", "74e8569dc563cf0a1634f47a922e8165");
    ("slotted/sp/hetero", "ffbab03f977b4c1ebdac6dc049ffe0fd");
    ("slotted/sp/plain", "c71b28a8ce83a6c656447593a37e9e63");
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
