(* Property-based verification of the end-to-end analysis over random
   parameterizations, plus the scaling-law checks. *)

module E2e = Deltanet.E2e
module Delta = Scheduler.Delta
module Ebb = Envelope.Ebb
module Scaling = Deltanet.Scaling
module Scenario = Deltanet.Scenario
module Classes = Scheduler.Classes

(* Random stable homogeneous paths: capacity 100, through + cross rates
   leaving a margin, random delta from all four kinds. *)
let gen_path =
  let open QCheck.Gen in
  let* h = int_range 1 8 in
  let* rho = float_range 5. 30. in
  let* rho_c = float_range 5. 50. in
  let* alpha = float_range 0.2 2. in
  let* delta_kind = int_range 0 3 in
  let* dval = float_range (-30.) 30. in
  let delta =
    match delta_kind with
    | 0 -> Delta.Fin 0.
    | 1 -> Delta.Pos_inf
    | 2 -> Delta.Neg_inf
    | _ -> Delta.Fin dval
  in
  let through = Ebb.v ~m:1. ~rho ~alpha in
  let cross = Ebb.v ~m:1. ~rho:rho_c ~alpha in
  return (E2e.homogeneous ~h ~capacity:100. ~cross ~delta ~through)

let print_path p =
  let nd = p.E2e.nodes.(0) in
  Fmt.str "H=%d rho=%g rho_c=%g alpha=%g delta=%a" (E2e.hop_count p)
    p.E2e.through.Ebb.rho nd.E2e.cross_rho p.E2e.through.Ebb.alpha Delta.pp
    nd.E2e.delta

let arb_path = QCheck.make ~print:print_path gen_path

let gamma_sigma p =
  let gmax = E2e.gamma_max p in
  let gamma = 0.3 *. gmax in
  if gamma <= 0. then None
  else Some (gamma, E2e.sigma_for p ~gamma ~epsilon:1e-9)

let prop_constraints_feasible =
  QCheck.Test.make ~name:"optimal thetas satisfy every Eq.-38 constraint" ~count:(Qc.count 300)
    arb_path (fun p ->
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let (thetas, x) = E2e.Reference.optimal_thetas p ~gamma ~sigma in
        Array.for_all Float.is_finite thetas
        && Array.to_list thetas
           |> List.mapi (fun h theta ->
                  let nd = p.E2e.nodes.(h) in
                  let c_h = nd.E2e.capacity -. (float_of_int h *. gamma) in
                  let cross =
                    match Delta.clip_fin nd.E2e.delta theta with
                    | None -> 0.
                    | Some c ->
                      (nd.E2e.cross_rho +. gamma) *. Float.max 0. (x +. c)
                  in
                  (c_h *. (x +. theta)) -. cross >= sigma -. 1e-6)
           |> List.for_all Fun.id)

let prop_delay_curve_consistency =
  QCheck.Test.make ~name:"materialized curve reproduces the optimizer" ~count:(Qc.count 150)
    arb_path (fun p ->
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let d = E2e.delay_given p ~gamma ~sigma in
        if not (Float.is_finite d) then true
        else begin
          let (thetas, _) = E2e.Reference.optimal_thetas p ~gamma ~sigma in
          let dc = E2e.Reference.delay_via_curve p ~gamma ~sigma ~thetas in
          Float.abs (d -. dc) <= 1e-5 *. (1. +. d)
        end)

let prop_kproc_upper_bound =
  QCheck.Test.make ~name:"K-procedure never beats the exact optimum" ~count:(Qc.count 300)
    arb_path (fun p ->
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let d = E2e.delay_given p ~gamma ~sigma in
        let k = E2e.k_procedure p ~gamma ~sigma in
        d <= k +. (1e-9 *. (1. +. Float.abs k)))

let prop_monotone_in_sigma =
  QCheck.Test.make ~name:"delay monotone in sigma" ~count:(Qc.count 200) arb_path (fun p ->
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        E2e.delay_given p ~gamma ~sigma
        <= E2e.delay_given p ~gamma ~sigma:(1.5 *. sigma) +. 1e-9)

let prop_monotone_in_delta =
  QCheck.Test.make ~name:"delay monotone in the precedence constant" ~count:(Qc.count 200)
    arb_path (fun p ->
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let with_delta delta =
          let nodes = Array.map (fun nd -> { nd with E2e.delta }) p.E2e.nodes in
          E2e.delay_given { p with E2e.nodes } ~gamma ~sigma
        in
        let ds =
          List.map with_delta
            [ Delta.Neg_inf; Delta.Fin (-10.); Delta.Fin 0.; Delta.Fin 10.; Delta.Pos_inf ]
        in
        let rec nondecr = function
          | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecr rest
          | _ -> true
        in
        nondecr ds)

let prop_bmux_closed_form =
  QCheck.Test.make ~name:"Eq. 43 on random BMUX paths" ~count:(Qc.count 200) arb_path (fun p ->
      let nodes = Array.map (fun nd -> { nd with E2e.delta = Delta.Pos_inf }) p.E2e.nodes in
      let p = { p with E2e.nodes } in
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let d = E2e.delay_given p ~gamma ~sigma in
        let c = E2e.bmux_closed_form p ~gamma ~sigma in
        (not (Float.is_finite d)) || Float.abs (d -. c) <= 1e-9 *. (1. +. c))

let prop_fifo_closed_form =
  QCheck.Test.make ~name:"Eq. 44 on random FIFO paths" ~count:(Qc.count 200) arb_path (fun p ->
      let nodes = Array.map (fun nd -> { nd with E2e.delta = Delta.Fin 0. }) p.E2e.nodes in
      let p = { p with E2e.nodes } in
      match gamma_sigma p with
      | None -> QCheck.assume_fail ()
      | Some (gamma, sigma) ->
        let d = E2e.delay_given p ~gamma ~sigma in
        let c = E2e.fifo_closed_form p ~gamma ~sigma in
        (not (Float.is_finite d)) || Float.abs (d -. c) <= 1e-6 *. (1. +. c))

(* ---------------- scaling laws ---------------- *)

let test_growth_exponent_exact () =
  let e = Scaling.growth_exponent [ (1., 2.); (2., 8.); (4., 32.) ] in
  if Float.abs (e -. 2.) > 1e-9 then Alcotest.failf "expected 2, got %g" e

let test_network_bound_near_linear () =
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.25 ~u_cross:0.25 in
  let (_, e) = Scaling.delay_growth ~scheduler:Classes.Fifo sc in
  Alcotest.(check bool) (Fmt.str "exponent %g in [0.9, 1.3]" e) true (e > 0.9 && e < 1.3)

let test_additive_superlinear_exponent () =
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.25 ~u_cross:0.25 in
  let (_, e_add) = Scaling.additive_growth sc in
  let (_, e_net) = Scaling.delay_growth ~scheduler:Classes.Bmux sc in
  Alcotest.(check bool)
    (Fmt.str "additive exponent %g > 1.8 > network %g" e_add e_net)
    true
    (e_add > 1.8 && e_add > e_net +. 0.5)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_constraints_feasible;
    QCheck_alcotest.to_alcotest prop_delay_curve_consistency;
    QCheck_alcotest.to_alcotest prop_kproc_upper_bound;
    QCheck_alcotest.to_alcotest prop_monotone_in_sigma;
    QCheck_alcotest.to_alcotest prop_monotone_in_delta;
    QCheck_alcotest.to_alcotest prop_bmux_closed_form;
    QCheck_alcotest.to_alcotest prop_fifo_closed_form;
    Alcotest.test_case "growth exponent exact" `Quick test_growth_exponent_exact;
    Alcotest.test_case "network bound near-linear" `Slow test_network_bound_near_linear;
    Alcotest.test_case "additive super-linear" `Slow test_additive_superlinear_exponent;
  ]
