(* Multi-class-cross end-to-end analysis (generalized Eq. 38). *)

module Exp = Envelope.Exponential
module Delta = Scheduler.Delta

type cross_class = { rho : float; m : float; delta : Delta.t }

type path = {
  h : int;
  capacity : float;
  cross : cross_class list;
  through : Envelope.Ebb.t;
}

let v ~h ~capacity ~cross ~through =
  if h <= 0 then invalid_arg "Multiclass.v: non-positive path length";
  if capacity <= 0. then invalid_arg "Multiclass.v: non-positive capacity";
  List.iter
    (fun k -> if k.rho < 0. || k.m < 0. then invalid_arg "Multiclass.v: negative class parameter")
    cross;
  { h; capacity; cross; through }

let active_classes p = List.filter (fun k -> not (Delta.equal k.delta Delta.Neg_inf)) p.cross

let gamma_max p =
  let cross_rho =
    List.fold_left (fun acc k -> acc +. k.rho) 0. (active_classes p)
  in
  (p.capacity -. cross_rho -. p.through.Envelope.Ebb.rho) /. float_of_int (p.h + 1)

let total_bound p ~gamma =
  if gamma <= 0. then invalid_arg "Multiclass.total_bound: non-positive gamma";
  let alpha = p.through.Envelope.Ebb.alpha in
  let eps_g = Exp.geometric_sum (Envelope.Ebb.bounding p.through) ~gamma in
  match active_classes p with
  | [] -> eps_g
  | classes ->
    let node_bound =
      Exp.combine
        (List.map (fun k -> Exp.geometric_sum (Exp.v ~m:k.m ~a:alpha) ~gamma) classes)
    in
    let node_terms =
      List.init p.h (fun i ->
          if i < p.h - 1 then Exp.geometric_sum node_bound ~gamma else node_bound)
    in
    Exp.combine (eps_g :: node_terms)

let sigma_for p ~gamma ~epsilon = Exp.invert (total_bound p ~gamma) ~epsilon

(* Constraint value f(theta) at node h (0-indexed) for given X = x:
   f = C_h (x + theta) - sum_k (rho_k + gamma) (x + min(delta_k, theta))_+ *)
let constraint_value p ~gamma ~x h theta =
  let c_h = p.capacity -. (float_of_int h *. gamma) in
  let cross_part =
    List.fold_left
      (fun acc k ->
        match Delta.clip_fin k.delta theta with
        | None -> acc
        | Some clipped -> acc +. ((k.rho +. gamma) *. Float.max 0. (x +. clipped)))
      0. (active_classes p)
  in
  (c_h *. (x +. theta)) -. cross_part

(* Smallest theta >= 0 with f(theta) >= sigma.  f is piecewise linear in
   theta with kinks at the finite non-negative deltas (where min saturates)
   and at theta = -x - delta_k for clips; slopes are non-decreasing across
   segments (terms drop out of the theta-dependence as they saturate), so a
   left-to-right segment scan finds the smallest root. *)
let theta_of_x p ~gamma ~sigma ~x h =
  let c_h = p.capacity -. (float_of_int h *. gamma) in
  if c_h <= 0. then Float.infinity
  else begin
    let f = constraint_value p ~gamma ~x h in
    if f 0. >= sigma then 0.
    else begin
      let kinks =
        List.filter_map
          (fun k ->
            match k.delta with
            | Delta.Fin d when d > 0. -> Some d
            | Delta.Fin _ | Delta.Neg_inf | Delta.Pos_inf -> None)
          (active_classes p)
        |> List.sort_uniq Float.compare
      in
      let slope_after theta0 =
        (* d f / d theta just after theta0 *)
        let eps = 1e-9 *. (1. +. theta0) in
        (f (theta0 +. (2. *. eps)) -. f (theta0 +. eps)) /. eps
      in
      let rec scan lo = function
        | [] ->
          let s = slope_after lo in
          if s <= 1e-12 then Float.infinity else lo +. ((sigma -. f lo) /. s)
        | hi :: rest ->
          if f hi >= sigma then begin
            (* root inside (lo, hi]: linear on this segment *)
            let s = (f hi -. f lo) /. (hi -. lo) in
            if s <= 0. then hi else lo +. ((sigma -. f lo) /. s)
          end
          else scan hi rest
      in
      scan 0. kinks
    end
  end

let objective p ~gamma ~sigma x =
  let acc = ref x in
  for h = 0 to p.h - 1 do
    acc := !acc +. theta_of_x p ~gamma ~sigma ~x h
  done;
  !acc

(* Bisect for the X at which [pred X] first becomes true; [pred] must be
   monotone (false then true) on [0, hi]. *)
let bisect_threshold ~hi pred =
  if pred 0. then 0.
  else if not (pred hi) then hi
  else begin
    let lo = ref 0. and hi = ref hi in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      if pred mid then hi := mid else lo := mid
    done;
    !hi
  end

let x_candidates p ~gamma ~sigma =
  let cands = ref [ 0. ] in
  let push x = if Float.is_finite x && x >= 0. then cands := x :: !cands in
  for h = 0 to p.h - 1 do
    let c_h = p.capacity -. (float_of_int h *. gamma) in
    if c_h > 0. then begin
      let margin =
        c_h
        -. List.fold_left (fun acc k -> acc +. k.rho +. gamma) 0. (active_classes p)
      in
      let x_hi = if margin > 0. then sigma /. margin else sigma /. c_h *. 100. in
      (* X where theta_h reaches 0 *)
      push (bisect_threshold ~hi:x_hi (fun x -> Float.equal (theta_of_x p ~gamma ~sigma ~x h) 0.));
      (* X where theta_h crosses each positive finite delta *)
      List.iter
        (fun k ->
          match k.delta with
          | Delta.Fin d when d > 0. ->
            push
              (bisect_threshold ~hi:x_hi (fun x -> theta_of_x p ~gamma ~sigma ~x h <= d))
          | Delta.Fin d when d < 0. -> push (-.d)
          | Delta.Fin _ | Delta.Neg_inf | Delta.Pos_inf -> ())
        (active_classes p)
    end
  done;
  List.sort_uniq Float.compare !cands

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "Multiclass.delay_given: negative sigma";
  let cands = x_candidates p ~gamma ~sigma in
  (* kinks are located by bisection to 1e-24 relative precision; add the
     midpoints as cheap insurance against straddling *)
  let rec with_midpoints = function
    | a :: (b :: _ as rest) -> a :: (0.5 *. (a +. b)) :: with_midpoints rest
    | tail -> tail
  in
  List.fold_left
    (fun acc x -> Float.min acc (objective p ~gamma ~sigma x))
    Float.infinity
    (with_midpoints cands)

let delay_bound ?(gamma_points = 40) ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "Multiclass.delay_bound: epsilon out of range";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity
  else begin
    let f gamma =
      let sigma = sigma_for p ~gamma ~epsilon in
      delay_given p ~gamma ~sigma
    in
    let lo, hi = E2e.gamma_bracket gmax in
    let ratio = (hi /. lo) ** (1. /. float_of_int (gamma_points - 1)) in
    let best = ref (f lo) in
    let g = ref lo in
    for _ = 2 to gamma_points do
      g := !g *. ratio;
      let v = f !g in
      if v < !best then best := v
    done;
    !best
  end

let of_two_class (p : E2e.path) =
  let nd0 = p.E2e.nodes.(0) in
  Array.iter
    (fun (nd : E2e.node) ->
      if nd.E2e.capacity <> nd0.E2e.capacity
         || nd.E2e.cross_rho <> nd0.E2e.cross_rho
         || not (Delta.equal nd.E2e.delta nd0.E2e.delta)
      then invalid_arg "Multiclass.of_two_class: path is not homogeneous")
    p.E2e.nodes;
  v
    ~h:(Array.length p.E2e.nodes)
    ~capacity:nd0.E2e.capacity
    ~cross:[ { rho = nd0.E2e.cross_rho; m = nd0.E2e.cross_m; delta = nd0.E2e.delta } ]
    ~through:p.E2e.through
