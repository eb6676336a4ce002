(* Node-by-node additive analysis (the Fig. 4 baseline). *)

module Exp = Envelope.Exponential
module Ebb = Envelope.Ebb

let c_node_steps = Telemetry.Counter.make "additive.node_steps"
let c_gamma_evals = Telemetry.Counter.make "additive.gamma.evals"
let c_s_evals = Telemetry.Counter.make "additive.s_grid.evals"

type per_node = { delay : float; input : Ebb.t }

let analyze ~capacity ~cross ~through ~h ~gamma ~epsilon =
  if h <= 0 then invalid_arg "Additive.analyze: non-positive path length";
  if gamma <= 0. then invalid_arg "Additive.analyze: non-positive gamma";
  let eps_node = epsilon /. float_of_int h in
  let service_rate = capacity -. cross.Ebb.rho -. gamma in
  let eps_service = Exp.geometric_sum (Ebb.bounding cross) ~gamma in
  let rec go inp k acc total =
    if k = h then (List.rev acc, total)
    else begin
      if !Telemetry.on then Telemetry.Counter.incr c_node_steps;
      let sp = Ebb.sample_path_envelope inp ~gamma in
      if sp.Ebb.envelope_rate > service_rate then ([], Float.infinity)
      else begin
        (* Per-node delay bound: G(t) = rate * t against S(t) = R * t gives
           d = sigma / R with the combined violation bound (Eq. 20-21). *)
        let combined = Exp.combine [ sp.Ebb.bound; eps_service ] in
        let sigma = Exp.invert combined ~epsilon:eps_node in
        let d = sigma /. service_rate in
        (* Departure process re-characterized by the deconvolution
           theorem: rate grows by gamma, decay degrades harmonically. *)
        let out =
          Output.ebb_through_node ~input:inp ~service_rate ~service_bound:eps_service
            ~gamma
        in
        go out (k + 1) ({ delay = d; input = inp } :: acc) (total +. d)
      end
    end
  in
  go through 0 [] 0.

(* [Float.max 0. d], bit for bit, without [Float.max]'s sign-bit probe *)
let[@inline] fmax0 (d : float) = if d > 0. then d else if Float.is_nan d then d else 0.

(* [snd (analyze ...)], fused into one allocation-free pass: no record,
   list or [Exponential.t] per node, and each node's combined bound
   computed once where [analyze] combines it again for the departure
   envelope ([Output.ebb_through_node]).  Every float expression is
   [analyze]'s, operand for operand and in the same order, and every
   check it makes raises the same [Invalid_argument] at the same point
   of the walk, so the result is bit-identical (QCheck-pinned against
   [analyze], the oracle). *)
let delay_sum ~capacity ~cross ~through ~h ~gamma ~epsilon =
  if h <= 0 then invalid_arg "Additive.analyze: non-positive path length";
  if gamma <= 0. then invalid_arg "Additive.analyze: non-positive gamma";
  let eps_node = epsilon /. float_of_int h in
  let service_rate = capacity -. cross.Ebb.rho -. gamma in
  (* eps_service = geometric_sum (bounding cross) ~gamma *)
  let cm = cross.Ebb.m and ca = cross.Ebb.alpha in
  if cm < 0. || Float.is_nan cm then invalid_arg "Exponential.v: negative prefactor";
  if ca <= 0. || Float.is_nan ca then invalid_arg "Exponential.v: non-positive rate";
  let es_m = cm /. (1. -. exp (-.ca *. gamma)) in
  (* the through EBB at the node's input *)
  let m = ref through.Ebb.m and rho = ref through.Ebb.rho and alpha = ref through.Ebb.alpha in
  let sum = ref 0. and k = ref 0 and unstable = ref false in
  while !k < h && not !unstable do
    if !Telemetry.on then Telemetry.Counter.incr c_node_steps;
    incr k;
    (* sample_path_envelope: its bound is geometric_sum (bounding inp) *)
    let im = !m and ia = !alpha in
    if im < 0. || Float.is_nan im then invalid_arg "Exponential.v: negative prefactor";
    if ia <= 0. || Float.is_nan ia then invalid_arg "Exponential.v: non-positive rate";
    let rate = !rho +. gamma in
    let bm = im /. (1. -. exp (-.ia *. gamma)) in
    if rate > service_rate then unstable := true
    else begin
      (* combine [sp.bound; eps_service], as Exponential.combine folds it *)
      let w = 0. +. (1. /. ia) +. (1. /. ca) in
      let log_m =
        log w +. (0. +. ((log bm +. log ia) /. (ia *. w)) +. ((log es_m +. log ca) /. (ca *. w)))
      in
      let c_m = exp log_m and c_a = 1. /. w in
      (* invert, then the per-node delay *)
      if eps_node <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      let d = fmax0 (log (c_m /. eps_node) /. c_a) /. service_rate in
      (* the departure EBB, Ebb.v's checks *)
      if c_m < 0. then invalid_arg "Ebb.v: negative prefactor";
      if rate < 0. then invalid_arg "Ebb.v: negative rate";
      if c_a <= 0. then invalid_arg "Ebb.v: non-positive decay";
      m := c_m;
      rho := rate;
      alpha := c_a;
      sum := !sum +. d
    end
  done;
  if !unstable then Float.infinity else !sum
[@@zero_alloc_check]

let gamma_points = 40

let delay_bound ~capacity ~cross ~h ~epsilon through =
  (* Stability over the whole path needs rho +. h * gamma +. gamma below the
     leftover rate; reuse the Eq.-32-style cap. *)
  let gmax = (capacity -. cross.Ebb.rho -. through.Ebb.rho) /. float_of_int (h + 1) in
  if gmax <= 0. then Float.infinity
  else
    Telemetry.span "additive.gamma_search"
      ~attrs:[ ("h", Telemetry.Int h); ("points", Telemetry.Int gamma_points) ]
    @@ fun () ->
  begin
    let lo, hi = E2e.gamma_bracket gmax in
    let r =
      Search.minimize ~points:gamma_points ~lo ~hi (fun gamma ->
          delay_sum ~capacity ~cross ~through ~h ~gamma ~epsilon)
    in
    Telemetry.Counter.add c_gamma_evals r.Search.evals;
    r.Search.value
  end

let delay_bound_scenario ?(s_points = Scenario.s_points) (sc : Scenario.t) =
  let f s =
    let through = Envelope.Mmpp.ebb sc.Scenario.source ~n:sc.Scenario.n_through ~s in
    let cross = Envelope.Mmpp.ebb sc.Scenario.source ~n:sc.Scenario.n_cross ~s in
    delay_bound ~capacity:sc.Scenario.capacity ~cross ~h:sc.Scenario.h
      ~epsilon:sc.Scenario.epsilon through
  in
  (* Scenario's stability scan, without its bisection: the grid tops out
     at half the doubling bound *)
  match Scenario.s_doubling sc with
  | None -> Float.infinity
  | Some s_hi ->
    Telemetry.span "additive.s_grid"
      ~attrs:[ ("h", Telemetry.Int sc.Scenario.h); ("s_points", Telemetry.Int s_points) ]
    @@ fun () ->
    let r = Search.minimize ~points:s_points ~lo:(s_hi *. 1e-4) ~hi:(s_hi *. 0.5) f in
    Telemetry.Counter.add c_s_evals r.Search.evals;
    r.Search.value
