(* Admission control by bisection on the monotone delay bounds. *)

type guarantee = { deadline : float; epsilon : float }
type request = { base : Scenario.t; guarantee : guarantee }

let scenario_with r ~u_cross =
  let mean = Envelope.Mmpp.mean_rate r.base.Scenario.source in
  {
    r.base with
    Scenario.n_cross = u_cross *. r.base.Scenario.capacity /. mean;
    epsilon = r.guarantee.epsilon;
  }

(* The one admission predicate: a bound is evidence only when its
   optimization converged ([Unstable], [Diverged] and [Non_finite] values
   are not bounds), and then it must meet the deadline. *)
let meets r (diag : Diag.t) bound = Diag.ok diag && bound <= r.guarantee.deadline

(* FIFO, BMUX and SP at their fixed gap; EDF through its fixed point,
   re-solved for every probe, so a [Diverged] probe does not fit *)
let delay_meets r ~scheduler sc =
  let o = Scenario.bound_checked ~scheduler sc in
  meets r o.Diag.diag o.Diag.value

let admissible r ~scheduler ~u_cross =
  delay_meets r ~scheduler (scenario_with r ~u_cross)

type decision = {
  admitted : bool;
  bound : float;
  slack : float;
  diag : Diag.t;
}

(* The single-query entry point the serving layer calls: one checked bound
   for the request exactly as specified (no bisection), with the contract
   checks folded in.  Only a [Converged] diagnostic may admit — an
   [Unstable]/[Diverged]/[Non_finite] bound is not trusted as evidence. *)
let decide ?(s_points = Scenario.s_points) r ~scheduler =
  Contracts.ensure
    (Contracts.check_guarantee ~deadline:r.guarantee.deadline
       ~epsilon:r.guarantee.epsilon);
  let sc = { r.base with Scenario.epsilon = r.guarantee.epsilon } in
  Contracts.ensure (Contracts.check_scenario sc);
  let o = Scenario.delay_bound_checked ~s_points ~scheduler sc in
  let bound = o.Diag.value in
  let admitted = meets r o.Diag.diag bound in
  { admitted; bound; slack = r.guarantee.deadline -. bound; diag = o.Diag.diag }

let bisect_max ~resolution ~hi fits =
  if not (fits 0.) then 0.
  else if fits hi then hi
  else begin
    let lo = ref 0. and hi = ref hi in
    while !hi -. !lo > resolution do
      let mid = 0.5 *. (!lo +. !hi) in
      if fits mid then lo := mid else hi := mid
    done;
    !lo
  end

let max_cross_utilization r ~scheduler =
  Contracts.ensure (Contracts.check_scenario r.base);
  let fits u_cross = admissible r ~scheduler ~u_cross in
  let mean = Envelope.Mmpp.mean_rate r.base.Scenario.source in
  let u_through = r.base.Scenario.n_through *. mean /. r.base.Scenario.capacity in
  bisect_max ~resolution:1e-4 ~hi:(Float.max 0. (1. -. u_through)) fits

let max_through_flows r ~scheduler =
  Contracts.ensure (Contracts.check_scenario r.base);
  let fits n =
    delay_meets r ~scheduler
      { r.base with Scenario.n_through = n; epsilon = r.guarantee.epsilon }
  in
  let mean = Envelope.Mmpp.mean_rate r.base.Scenario.source in
  let n_max =
    Float.max 0.
      ((r.base.Scenario.capacity /. mean) -. r.base.Scenario.n_cross)
  in
  bisect_max ~resolution:0.5 ~hi:n_max fits
