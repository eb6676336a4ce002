(* Section III-B: probabilistic single-node delay bounds. *)

(* paper content; ROADMAP item 5 gives it a user *)
[@@@lint.allow "unreachable-module"]

type flow = {
  envelope : Minplus.Curve.t;
  bound : Envelope.Exponential.t;
  delta : Scheduler.Delta.t;
}

let to_sched_flows flows =
  List.map
    (fun f -> { Schedulability.envelope = f.envelope; delta = f.delta })
    flows

(* Eq. (23): slack of the deterministic-shaped condition with sigma added. *)
let condition ~capacity ~flows ~sigma ~delay =
  Schedulability.slack ~capacity ~delay (to_sched_flows flows) >= sigma -. 1e-9

let delay_for_sigma ?(tol = 1e-9) ~capacity ~sigma flows =
  if sigma < 0. then invalid_arg "Single_node.delay_for_sigma: negative sigma";
  let ok d = condition ~capacity ~flows ~sigma ~delay:d in
  let rec bracket hi tries =
    if tries = 0 then None else if ok hi then Some hi else bracket (2. *. hi) (tries - 1)
  in
  match bracket 1. 80 with
  | None -> Float.infinity
  | Some hi ->
    let rec bisect lo hi =
      if hi -. lo <= tol *. (1. +. hi) then hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if ok mid then bisect lo mid else bisect mid hi
    in
    bisect 0. hi

let combined_bound flows =
  let included =
    List.filter (fun f -> not (Scheduler.Delta.equal f.delta Scheduler.Delta.Neg_inf)) flows
  in
  match included with
  | [] -> invalid_arg "Single_node: no flow can precede the tagged flow"
  | fs -> Envelope.Exponential.combine (List.map (fun f -> f.bound) fs)

let delay_bound ?(tol = 1e-9) ~capacity ~epsilon flows =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "Single_node.delay_bound: epsilon out of range";
  let sigma = Envelope.Exponential.invert (combined_bound flows) ~epsilon in
  delay_for_sigma ~tol ~capacity ~sigma flows

let violation_probability ~capacity ~delay flows =
  (* Largest sigma such that Eq. (23) still holds at this delay. *)
  let slack = Schedulability.slack ~capacity ~delay (to_sched_flows flows) in
  if slack < 0. then 1.
  else Envelope.Exponential.eval (combined_bound flows) slack
