(* Unit and property tests for Minplus.Curve. *)

module Curve = Minplus.Curve

let feq ?(tol = 1e-9) a b =
  (Float.equal a Float.infinity && Float.equal b Float.infinity)
  || Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))

let check_float ?tol name expected got =
  if not (feq ?tol expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* -------------------- random curve generator -------------------- *)

(* A random non-decreasing PWL curve: random non-negative slopes and
   upward jumps at random breakpoints. *)
let gen_curve =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* gaps = list_repeat n (float_range 0.1 5.) in
  let* slopes = list_repeat (n + 1) (float_range 0. 4.) in
  let* jumps = list_repeat (n + 1) (float_range 0. 3.) in
  let xs =
    List.fold_left (fun acc g -> (List.hd acc +. g) :: acc) [ 0. ] gaps
    |> List.rev
  in
  let rec build acc y = function
    | [], _, _ | _, [], _ | _, _, [] -> List.rev acc
    | x :: xs', r :: rs', j :: js' ->
      let y = y +. j in
      let next_y =
        match xs' with [] -> y | x' :: _ -> y +. (r *. (x' -. x))
      in
      build ((x, y, r) :: acc) next_y (xs', rs', js')
  in
  let triples = build [] 0. (xs, slopes, jumps) in
  return (Curve.v triples)

let arb_curve = QCheck.make ~print:(Fmt.to_to_string Curve.pp) gen_curve

let sample_points f g =
  let xs =
    List.sort_uniq compare
      (Curve.breakpoints f @ Curve.breakpoints g
      @ List.concat_map (fun x -> [ x +. 0.05; x +. 0.5 ]) (Curve.breakpoints f)
      @ [ 0.; 0.25; 1.; 7.; 33. ])
  in
  xs

(* -------------------- unit tests -------------------- *)

let test_affine_eval () =
  let f = Curve.affine ~rate:2. ~burst:3. in
  check_float "f(-1)" 0. (Curve.eval f (-1.));
  check_float "f(0)" 3. (Curve.eval f 0.);
  check_float "f(2)" 7. (Curve.eval f 2.);
  check_float "left limit at 0" 0. (Curve.eval_left f 0.);
  check_float "ultimate rate" 2. (Curve.ultimate_rate f)

let test_rate_latency () =
  let f = Curve.rate_latency ~rate:10. ~latency:3. in
  check_float "f(2)" 0. (Curve.eval f 2.);
  check_float "f(3)" 0. (Curve.eval f 3.);
  check_float "f(5)" 20. (Curve.eval f 5.);
  Alcotest.(check bool) "convex" true (Curve.is_convex f);
  Alcotest.(check bool) "not concave" false (Curve.is_concave f)

let test_delta_curve () =
  let f = Curve.delta 4. in
  check_float "f(2)" 0. (Curve.eval f 2.);
  check_float "f(5)" Float.infinity (Curve.eval f 5.);
  Alcotest.(check bool) "ultimately infinite" true (Curve.ultimately_infinite f);
  check_float "left limit at 4" 0. (Curve.eval_left f 4.)

let test_step () =
  let f = Curve.step ~at:2. ~height:5. in
  check_float "f(1.99)" 0. (Curve.eval f 1.99);
  check_float "f(2)" 5. (Curve.eval f 2.);
  check_float "f(100)" 5. (Curve.eval f 100.)

let test_token_buckets () =
  let f = Curve.token_buckets [ (1., 10.); (5., 2.) ] in
  (* crossing at t = 2: min(10 + t, 2 + 5t) *)
  check_float "f(0)" 2. (Curve.eval f 0.);
  check_float "f(1)" 7. (Curve.eval f 1.);
  check_float "f(2)" 12. (Curve.eval f 2.);
  check_float "f(4)" 14. (Curve.eval f 4.);
  Alcotest.(check bool) "concave" true (Curve.is_concave f)

let test_inverse () =
  let f = Curve.rate_latency ~rate:4. ~latency:1. in
  check_float "inverse 0" 0. (Curve.inverse f 0.);
  check_float "inverse 4" 2. (Curve.inverse f 4.);
  check_float "inverse 8" 3. (Curve.inverse f 8.);
  let plateau = Curve.step ~at:1. ~height:2. in
  check_float "inverse plateau reachable" 1. (Curve.inverse plateau 2.);
  check_float "inverse plateau unreachable" Float.infinity (Curve.inverse plateau 3.)

let test_min_max_add () =
  let f = Curve.affine ~rate:1. ~burst:4. in
  let g = Curve.constant_rate 3. in
  let mn = Curve.min f g and mx = Curve.max f g and s = Curve.add f g in
  (* crossing at t = 2 *)
  check_float "min(1)" 3. (Curve.eval mn 1.);
  check_float "min(2)" 6. (Curve.eval mn 2.);
  check_float "min(3)" 7. (Curve.eval mn 3.);
  check_float "max(1)" 5. (Curve.eval mx 1.);
  check_float "max(3)" 9. (Curve.eval mx 3.);
  check_float "add(2)" 12. (Curve.eval s 2.)

let test_shifts () =
  let f = Curve.affine ~rate:2. ~burst:1. in
  let h = Curve.hshift 3. f in
  check_float "hshift before" 0. (Curve.eval h 2.);
  check_float "hshift at 4" 3. (Curve.eval h 4.);
  let l = Curve.lshift 3. f in
  check_float "lshift at 0" 7. (Curve.eval l 0.);
  check_float "lshift at 1" 9. (Curve.eval l 1.)

let test_gate () =
  let f = Curve.constant_rate 2. in
  let g = Curve.gate 3. f in
  check_float "gate before" 0. (Curve.eval g 2.);
  check_float "gate after" 10. (Curve.eval g 5.);
  check_float "gate keeps value at threshold" 6. (Curve.eval g 3.)

let test_sub_clip_rate_latency () =
  (* (C t - (rho t + b))_+ as used for leftover service: a rate-latency
     curve with rate C - rho and latency b / (C - rho). *)
  let line = Curve.constant_rate 10. in
  let env = Curve.affine ~rate:4. ~burst:12. in
  let s = Curve.sub_clip line env in
  check_float "zero until latency" 0. (Curve.eval s 1.);
  check_float "latency point" 0. (Curve.eval s 2.);
  check_float "after latency" 6. (Curve.eval s 3.);
  check_float "ultimate rate" 6. (Curve.ultimate_rate s)

let test_sub_clip_minorant () =
  (* Subtracting a step creates a downward jump; the result must be the
     non-decreasing minorant (anticipate the drop). *)
  let line = Curve.constant_rate 1. in
  let env = Curve.step ~at:5. ~height:3. in
  let s = Curve.sub_clip line env in
  (* raw difference: t for t<5, t-3 for t>=5; minorant: min(t, 2) up to 5 *)
  check_float "follows line early" 1. (Curve.eval s 1.);
  check_float "capped before jump" 2. (Curve.eval s 3.);
  check_float "at jump" 2. (Curve.eval s 5.);
  check_float "resumes" 4. (Curve.eval s 7.)

let test_equal () =
  let f = Curve.affine ~rate:1. ~burst:2. in
  let g = Curve.v [ (0., 2., 1.) ] in
  Alcotest.(check bool) "equal" true (Curve.equal f g);
  Alcotest.(check bool) "not equal" false (Curve.equal f (Curve.constant_rate 1.))

let test_v_validation () =
  Alcotest.check_raises "decreasing" (Invalid_argument "Curve.v: downward jump")
    (fun () -> ignore (Curve.v [ (0., 5., 0.); (1., 2., 0.) ]));
  Alcotest.check_raises "bad order"
    (Invalid_argument "Curve.v: abscissae must be strictly increasing") (fun () ->
      ignore (Curve.v [ (0., 0., 1.); (0., 1., 1.) ]))

(* -------------------- property tests -------------------- *)

let prop_min_is_pointwise =
  QCheck.Test.make ~name:"min is pointwise minimum" ~count:(Qc.count 200)
    (QCheck.pair arb_curve arb_curve) (fun (f, g) ->
      let m = Curve.min f g in
      List.for_all
        (fun t -> feq (Curve.eval m t) (Float.min (Curve.eval f t) (Curve.eval g t)))
        (sample_points f g))

let prop_max_is_pointwise =
  QCheck.Test.make ~name:"max is pointwise maximum" ~count:(Qc.count 200)
    (QCheck.pair arb_curve arb_curve) (fun (f, g) ->
      let m = Curve.max f g in
      List.for_all
        (fun t -> feq (Curve.eval m t) (Float.max (Curve.eval f t) (Curve.eval g t)))
        (sample_points f g))

let prop_add_is_pointwise =
  QCheck.Test.make ~name:"add is pointwise sum" ~count:(Qc.count 200)
    (QCheck.pair arb_curve arb_curve) (fun (f, g) ->
      let s = Curve.add f g in
      List.for_all
        (fun t -> feq (Curve.eval s t) (Curve.eval f t +. Curve.eval g t))
        (sample_points f g))

let prop_monotone =
  QCheck.Test.make ~name:"curves are non-decreasing" ~count:(Qc.count 200) arb_curve (fun f ->
      let xs = sample_points f f in
      let rec go = function
        | a :: (b :: _ as rest) ->
          Curve.eval f a <= Curve.eval f b +. 1e-9 && go rest
        | _ -> true
      in
      go xs)

let prop_inverse_galois =
  QCheck.Test.make ~name:"pseudo-inverse Galois connection" ~count:(Qc.count 200) arb_curve
    (fun f ->
      List.for_all
        (fun y ->
          let t = Curve.inverse f y in
          (not (Float.is_finite t)) || Curve.eval f t >= y -. 1e-9)
        [ 0.1; 1.; 3.; 10.; 50. ])

let prop_shift_roundtrip =
  (* Sampled strictly between breakpoints: the roundtrip perturbs the
     breakpoints by an ulp, so sampling exactly at a jump would compare the
     two sides of the jump. *)
  QCheck.Test.make ~name:"lshift after hshift is identity" ~count:(Qc.count 200)
    (QCheck.pair arb_curve (QCheck.float_range 0.1 5.)) (fun (f, d) ->
      let g = Curve.lshift d (Curve.hshift d f) in
      List.for_all
        (fun t -> feq (Curve.eval f t) (Curve.eval g t))
        (List.concat_map (fun x -> [ x +. 0.03; x +. 0.07 ]) (Curve.breakpoints f)))

let prop_gate_dominated =
  QCheck.Test.make ~name:"gate theta f <= f, equal after theta" ~count:(Qc.count 200)
    (QCheck.pair arb_curve (QCheck.float_range 0.1 5.)) (fun (f, theta) ->
      let g = Curve.gate theta f in
      List.for_all
        (fun t ->
          Curve.eval g t <= Curve.eval f t +. 1e-9
          && (t < theta || feq (Curve.eval g t) (Curve.eval f t)))
        (sample_points f f))

let prop_scale_linear =
  QCheck.Test.make ~name:"scale is pointwise multiplication" ~count:(Qc.count 200)
    (QCheck.pair arb_curve (QCheck.float_range 0. 4.)) (fun (f, k) ->
      let g = Curve.scale k f in
      List.for_all
        (fun t -> feq (Curve.eval g t) (k *. Curve.eval f t))
        (sample_points f f))

let prop_sub_clip_below_difference =
  QCheck.Test.make ~name:"sub_clip stays below the clipped difference" ~count:(Qc.count 200)
    (QCheck.pair arb_curve arb_curve) (fun (f, g) ->
      let d = Curve.sub_clip f g in
      List.for_all
        (fun t ->
          Curve.eval d t <= Float.max 0. (Curve.eval f t -. Curve.eval g t) +. 1e-9)
        (sample_points f g))

let prop_sub_clip_monotone =
  QCheck.Test.make ~name:"sub_clip is non-decreasing" ~count:(Qc.count 200)
    (QCheck.pair arb_curve arb_curve) (fun (f, g) ->
      let d = Curve.sub_clip f g in
      let xs = sample_points f g in
      let rec go = function
        | a :: (b :: _ as rest) -> Curve.eval d a <= Curve.eval d b +. 1e-9 && go rest
        | _ -> true
      in
      go xs)

let prop_min_commutes =
  QCheck.Test.make ~name:"min commutes" ~count:(Qc.count 100) (QCheck.pair arb_curve arb_curve)
    (fun (f, g) -> Curve.equal ~tol:1e-7 (Curve.min f g) (Curve.min g f))

let prop_add_assoc =
  QCheck.Test.make ~name:"add associates" ~count:(Qc.count 100)
    (QCheck.triple arb_curve arb_curve arb_curve) (fun (f, g, h) ->
      Curve.equal ~tol:1e-7 (Curve.add f (Curve.add g h)) (Curve.add (Curve.add f g) h))

let suite =
  [
    Alcotest.test_case "affine eval" `Quick test_affine_eval;
    Alcotest.test_case "rate-latency" `Quick test_rate_latency;
    Alcotest.test_case "burst-delay delta" `Quick test_delta_curve;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "token buckets" `Quick test_token_buckets;
    Alcotest.test_case "pseudo-inverse" `Quick test_inverse;
    Alcotest.test_case "min/max/add" `Quick test_min_max_add;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "gate" `Quick test_gate;
    Alcotest.test_case "sub_clip rate-latency" `Quick test_sub_clip_rate_latency;
    Alcotest.test_case "sub_clip minorant" `Quick test_sub_clip_minorant;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "validation" `Quick test_v_validation;
    QCheck_alcotest.to_alcotest prop_min_is_pointwise;
    QCheck_alcotest.to_alcotest prop_max_is_pointwise;
    QCheck_alcotest.to_alcotest prop_add_is_pointwise;
    QCheck_alcotest.to_alcotest prop_monotone;
    QCheck_alcotest.to_alcotest prop_inverse_galois;
    QCheck_alcotest.to_alcotest prop_shift_roundtrip;
    QCheck_alcotest.to_alcotest prop_gate_dominated;
    QCheck_alcotest.to_alcotest prop_scale_linear;
    QCheck_alcotest.to_alcotest prop_sub_clip_below_difference;
    QCheck_alcotest.to_alcotest prop_sub_clip_monotone;
    QCheck_alcotest.to_alcotest prop_min_commutes;
    QCheck_alcotest.to_alcotest prop_add_assoc;
  ]
