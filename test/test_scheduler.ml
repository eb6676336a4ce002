(* Tests for ∆ constants, scheduler matrices, policies, and GPS. *)

module Delta = Scheduler.Delta
module Classes = Scheduler.Classes
module Policy = Scheduler.Policy
module Gps = Scheduler.Gps

let check_float ?(tol = 1e-9) name expected got =
  if Float.abs (expected -. got) > tol *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- Delta ---------------- *)

let test_delta_clip () =
  Alcotest.(check bool) "pos_inf clips to y" true
    (Delta.equal (Delta.clip Delta.Pos_inf 3.) (Delta.Fin 3.));
  Alcotest.(check bool) "fin clips to min" true
    (Delta.equal (Delta.clip (Delta.Fin 5.) 3.) (Delta.Fin 3.));
  Alcotest.(check bool) "fin stays below" true
    (Delta.equal (Delta.clip (Delta.Fin 2.) 3.) (Delta.Fin 2.));
  Alcotest.(check bool) "neg_inf absorbs" true
    (Delta.equal (Delta.clip Delta.Neg_inf 3.) Delta.Neg_inf);
  Alcotest.(check (option (float 1e-12))) "clip_fin excludes neg_inf" None
    (Delta.clip_fin Delta.Neg_inf 1.);
  Alcotest.(check (option (float 1e-12))) "clip_fin finite" (Some 1.)
    (Delta.clip_fin Delta.Pos_inf 1.)

let test_delta_of_float () =
  Alcotest.(check bool) "infinity" true (Delta.fin Float.infinity = Delta.Pos_inf);
  Alcotest.(check bool) "neg infinity" true (Delta.fin Float.neg_infinity = Delta.Neg_inf);
  Alcotest.(check bool) "finite" true (Delta.fin 2. = Delta.Fin 2.);
  Alcotest.check_raises "nan" (Invalid_argument "Delta.fin: nan") (fun () ->
      ignore (Delta.fin Float.nan))

let test_delta_order () =
  Alcotest.(check bool) "neg_inf < fin" true (Delta.compare Delta.Neg_inf (Delta.Fin 0.) < 0);
  Alcotest.(check bool) "fin < pos_inf" true (Delta.compare (Delta.Fin 9.) Delta.Pos_inf < 0)

(* ---------------- matrices (Section III examples) ---------------- *)

let test_fifo_matrix () =
  let m = Classes.fifo ~n:3 in
  for j = 0 to 2 do
    for k = 0 to 2 do
      Alcotest.(check bool)
        (Fmt.str "delta %d %d = 0" j k)
        true
        (Delta.equal (Classes.delta m j k) (Delta.Fin 0.))
    done
  done

let test_sp_matrix () =
  let m = Classes.static_priority ~priorities:[| 2; 1; 1 |] in
  Alcotest.(check bool) "high vs low" true
    (Delta.equal (Classes.delta m 0 1) Delta.Neg_inf);
  Alcotest.(check bool) "low vs high" true
    (Delta.equal (Classes.delta m 1 0) Delta.Pos_inf);
  Alcotest.(check bool) "same priority" true
    (Delta.equal (Classes.delta m 1 2) (Delta.Fin 0.))

let test_edf_matrix () =
  let m = Classes.edf ~deadlines:[| 2.; 10. |] in
  Alcotest.(check bool) "d0 - d1" true (Delta.equal (Classes.delta m 0 1) (Delta.Fin (-8.)));
  Alcotest.(check bool) "d1 - d0" true (Delta.equal (Classes.delta m 1 0) (Delta.Fin 8.));
  Alcotest.(check bool) "diagonal zero" true (Delta.equal (Classes.delta m 0 0) (Delta.Fin 0.))

let test_bmux_matrix () =
  let m = Classes.bmux ~n:3 ~tagged:1 in
  Alcotest.(check bool) "tagged yields" true (Delta.equal (Classes.delta m 1 0) Delta.Pos_inf);
  Alcotest.(check bool) "others ignore tagged" true
    (Delta.equal (Classes.delta m 0 1) Delta.Neg_inf);
  Alcotest.(check bool) "others fifo" true (Delta.equal (Classes.delta m 0 2) (Delta.Fin 0.))

let test_two_class_deltas () =
  Alcotest.(check bool) "fifo" true
    (Delta.equal (Classes.delta_through_cross Classes.Fifo) (Delta.Fin 0.));
  Alcotest.(check bool) "bmux" true
    (Delta.equal (Classes.delta_through_cross Classes.Bmux) Delta.Pos_inf);
  Alcotest.(check bool) "sp high" true
    (Delta.equal (Classes.delta_through_cross Classes.Sp_through_high) Delta.Neg_inf);
  Alcotest.(check bool) "edf gap" true
    (Delta.equal (Classes.delta_through_cross (Classes.Edf_gap (-3.))) (Delta.Fin (-3.)))

(* ---------------- policies ---------------- *)

let test_policy_fifo_order () =
  let p = Policy.fifo in
  let k1 = Policy.key p ~arrival:1. ~cls:0 ~size:1. in
  let k2 = Policy.key p ~arrival:2. ~cls:1 ~size:1. in
  Alcotest.(check bool) "earlier first" true (Policy.compare_key k1 k2 < 0)

let test_policy_sp_order () =
  let p = Policy.static_priority ~priorities:[| 0; 5 |] in
  let low = Policy.key p ~arrival:0. ~cls:0 ~size:1. in
  let high = Policy.key p ~arrival:9. ~cls:1 ~size:1. in
  Alcotest.(check bool) "high priority first despite later arrival" true
    (Policy.compare_key high low < 0)

let test_policy_edf_order () =
  let p = Policy.edf ~deadlines:[| 10.; 1. |] in
  let slow = Policy.key p ~arrival:0. ~cls:0 ~size:1. in
  let urgent = Policy.key p ~arrival:5. ~cls:1 ~size:1. in
  Alcotest.(check bool) "earlier deadline first" true (Policy.compare_key urgent slow < 0)

let test_policy_bmux_order () =
  let p = Policy.bmux ~tagged:0 in
  let tagged = Policy.key p ~arrival:0. ~cls:0 ~size:1. in
  let cross = Policy.key p ~arrival:99. ~cls:1 ~size:1. in
  Alcotest.(check bool) "cross always first" true (Policy.compare_key cross tagged < 0)

let test_policy_locally_fifo () =
  (* same class, later arrival never precedes earlier arrival *)
  List.iter
    (fun p ->
      let a = Policy.key p ~arrival:1. ~cls:0 ~size:1. and b = Policy.key p ~arrival:2. ~cls:0 ~size:1. in
      Alcotest.(check bool) (Policy.name p ^ " locally FIFO") true (Policy.compare_key a b < 0))
    [
      Policy.fifo;
      Policy.static_priority ~priorities:[| 1; 0 |];
      Policy.edf ~deadlines:[| 3.; 4. |];
      Policy.bmux ~tagged:0;
    ]

let test_policy_matrix_roundtrip () =
  let p = Policy.edf ~deadlines:[| 2.; 10. |] in
  match Policy.is_delta_realizable p ~n:2 with
  | None -> Alcotest.fail "EDF policy should be a ∆-scheduler"
  | Some m ->
    Alcotest.(check bool) "gap matches" true
      (Delta.equal (Classes.delta m 0 1) (Delta.Fin (-8.)))

(* ---------------- SCED ---------------- *)

let test_sced_deadline_recursion () =
  let p = Scheduler.Sced.policy ~targets:[| { Scheduler.Sced.rate = 2.; latency = 1. } |] () in
  (* empty clock: deadline = a + T + size/R *)
  let k1 = Policy.key p ~arrival:0. ~cls:0 ~size:4. in
  check_float "first deadline" 3. k1.Policy.major;
  (* back-to-back: continues from the virtual finish *)
  let k2 = Policy.key p ~arrival:0.5 ~cls:0 ~size:2. in
  check_float "second deadline" 4. k2.Policy.major;
  (* after an idle gap the clock resets to a + T *)
  let k3 = Policy.key p ~arrival:10. ~cls:0 ~size:2. in
  check_float "post-idle deadline" 12. k3.Policy.major

let test_sced_orders_by_guarantee () =
  (* A class with a tight rate-latency guarantee beats a loose one. *)
  let p =
    Scheduler.Sced.policy
      ~targets:
        [|
          { Scheduler.Sced.rate = 10.; latency = 0.5 };
          { Scheduler.Sced.rate = 1.; latency = 5. };
        |]
      ()
  in
  let fast = Policy.key p ~arrival:1. ~cls:0 ~size:2. in
  let slow = Policy.key p ~arrival:0. ~cls:1 ~size:2. in
  Alcotest.(check bool) "tight guarantee first" true (Policy.compare_key fast slow < 0)

let test_sced_locally_fifo () =
  let p = Scheduler.Sced.policy ~targets:[| { Scheduler.Sced.rate = 3.; latency = 1. } |] () in
  let a = Policy.key p ~arrival:1. ~cls:0 ~size:2. in
  let b = Policy.key p ~arrival:2. ~cls:0 ~size:2. in
  Alcotest.(check bool) "locally FIFO" true (Policy.compare_key a b < 0)

let test_sced_not_delta () =
  let p = Scheduler.Sced.policy ~targets:[| { Scheduler.Sced.rate = 3.; latency = 1. } |] () in
  Alcotest.(check bool) "no delta matrix" true (Policy.is_delta_realizable p ~n:1 = None)

let test_sced_in_simulator () =
  (* SCED node: a class kept within its guaranteed rate meets its
     rate-latency delay bound (latency + burst/rate) even under pressure
     from a greedy class. *)
  let node =
    Netsim.Queue_node.create ~capacity:10. ~classes:2
      (Netsim.Queue_node.Delta_policy
         (Scheduler.Sced.policy
            ~targets:
              [|
                { Scheduler.Sced.rate = 4.; latency = 1. };
                { Scheduler.Sced.rate = 5.; latency = 4. };
              |]
            ()))
  in
  (* class 0 sends 4 kb/slot (its guaranteed rate), class 1 floods *)
  let backlog0_max = ref 0. in
  for t = 0 to 199 do
    Netsim.Queue_node.offer node ~now:(float_of_int t) ~cls:0 4.;
    Netsim.Queue_node.offer node ~now:(float_of_int t) ~cls:1 8.;
    ignore (Netsim.Queue_node.serve_slot node);
    backlog0_max := Float.max !backlog0_max (Netsim.Queue_node.backlog_of node ~cls:0)
  done;
  (* backlog bound for (4t) against beta_{4,1}: 4 kb * 1 ms = 4 kb, plus one
     slot of arrival granularity *)
  Alcotest.(check bool)
    (Fmt.str "class-0 backlog %.1f stays near its guarantee" !backlog0_max)
    true
    (!backlog0_max <= 8. +. 1e-9)

(* ---------------- GPS ---------------- *)

let test_gps_proportional () =
  let g = Gps.v ~weights:[| 1.; 3. |] in
  let grants = Gps.allocate g ~capacity:8. ~backlogs:[| 100.; 100. |] in
  check_float "class 0 share" 2. grants.(0);
  check_float "class 1 share" 6. grants.(1)

let test_gps_work_conserving () =
  let g = Gps.v ~weights:[| 1.; 1. |] in
  (* class 0 has little backlog; leftovers must flow to class 1 *)
  let grants = Gps.allocate g ~capacity:10. ~backlogs:[| 2.; 100. |] in
  check_float "class 0 drained" 2. grants.(0);
  check_float "class 1 takes leftover" 8. grants.(1)

let test_gps_underload () =
  let g = Gps.v ~weights:[| 2.; 1. |] in
  let grants = Gps.allocate g ~capacity:10. ~backlogs:[| 1.; 2. |] in
  check_float "all served 0" 1. grants.(0);
  check_float "all served 1" 2. grants.(1)

let prop_gps_never_exceeds =
  QCheck.Test.make ~name:"GPS grants bounded by backlog and capacity" ~count:(Qc.count 200)
    QCheck.(triple (float_range 0.1 20.) (float_range 0. 50.) (float_range 0. 50.))
    (fun (cap, b0, b1) ->
      let g = Gps.v ~weights:[| 1.; 2. |] in
      let grants = Gps.allocate g ~capacity:cap ~backlogs:[| b0; b1 |] in
      let total = grants.(0) +. grants.(1) in
      grants.(0) <= b0 +. 1e-9
      && grants.(1) <= b1 +. 1e-9
      && total <= cap +. 1e-9
      && total >= Float.min cap (b0 +. b1) -. 1e-6)

let suite =
  [
    Alcotest.test_case "delta clip" `Quick test_delta_clip;
    Alcotest.test_case "delta of_float" `Quick test_delta_of_float;
    Alcotest.test_case "delta order" `Quick test_delta_order;
    Alcotest.test_case "fifo matrix" `Quick test_fifo_matrix;
    Alcotest.test_case "sp matrix" `Quick test_sp_matrix;
    Alcotest.test_case "edf matrix" `Quick test_edf_matrix;
    Alcotest.test_case "bmux matrix" `Quick test_bmux_matrix;
    Alcotest.test_case "two-class deltas" `Quick test_two_class_deltas;
    Alcotest.test_case "policy fifo order" `Quick test_policy_fifo_order;
    Alcotest.test_case "policy sp order" `Quick test_policy_sp_order;
    Alcotest.test_case "policy edf order" `Quick test_policy_edf_order;
    Alcotest.test_case "policy bmux order" `Quick test_policy_bmux_order;
    Alcotest.test_case "policies locally FIFO" `Quick test_policy_locally_fifo;
    Alcotest.test_case "policy-matrix roundtrip" `Quick test_policy_matrix_roundtrip;
    Alcotest.test_case "sced deadline recursion" `Quick test_sced_deadline_recursion;
    Alcotest.test_case "sced guarantee order" `Quick test_sced_orders_by_guarantee;
    Alcotest.test_case "sced locally fifo" `Quick test_sced_locally_fifo;
    Alcotest.test_case "sced not a delta-scheduler" `Quick test_sced_not_delta;
    Alcotest.test_case "sced meets its guarantee (sim)" `Quick test_sced_in_simulator;
    Alcotest.test_case "gps proportional" `Quick test_gps_proportional;
    Alcotest.test_case "gps work conserving" `Quick test_gps_work_conserving;
    Alcotest.test_case "gps underload" `Quick test_gps_underload;
    QCheck_alcotest.to_alcotest prop_gps_never_exceeds;
  ]
