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
          snd (analyze ~capacity ~cross ~through ~h ~gamma ~epsilon))
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
