(* Two-state Markov-modulated on-off source and its effective bandwidth. *)

type t = { p_stay_off : float; p_stay_on : float; peak : float }

let v ~p_stay_off ~p_stay_on ~peak =
  let prob p = p >= 0. && p <= 1. in
  if not (prob p_stay_off && prob p_stay_on) then
    invalid_arg "Mmpp.v: probabilities must be in [0,1]";
  if peak <= 0. then invalid_arg "Mmpp.v: non-positive peak";
  let p12 = 1. -. p_stay_off and p21 = 1. -. p_stay_on in
  if p12 +. p21 > 1. +. 1e-12 then
    invalid_arg "Mmpp.v: requires p12 + p21 <= 1 (positively correlated states)";
  { p_stay_off; p_stay_on; peak }

let paper_source = v ~p_stay_off:0.989 ~p_stay_on:0.9 ~peak:1.5

let stationary_on { p_stay_off; p_stay_on; _ } =
  let p12 = 1. -. p_stay_off and p21 = 1. -. p_stay_on in
  if Float.equal (p12 +. p21) 0. then 0. else p12 /. (p12 +. p21)

let mean_rate src = stationary_on src *. src.peak

let effective_bandwidth src ~s =
  if s <= 0. then invalid_arg "Mmpp.effective_bandwidth: non-positive s";
  let p11 = src.p_stay_off and p22 = src.p_stay_on in
  (* Largest eigenvalue lambda = (b + sqrt (b^2 - 4 q z)) / 2 with
     z = e^{sP}, b = p11 + p22 z, q = p11 + p22 - 1, computed entirely in
     the log domain so that large s*P cannot overflow. *)
  let sp = s *. src.peak in
  let log_b =
    (* log (p11 + p22 e^{sp}) by log-sum-exp *)
    let l1 = log p11 and l2 = sp +. log p22 in
    let hi = Float.max l1 l2 and lo = Float.min l1 l2 in
    if Float.equal hi Float.neg_infinity then Float.neg_infinity else hi +. Float.log1p (exp (lo -. hi))
  in
  let q = Float.max 0. (p11 +. p22 -. 1.) in
  (* u = 4 q z / b^2 in [0, 1]; disc = b^2 (1 - u) *)
  let u = if Float.equal q 0. then 0. else Float.min 1. (4. *. q *. exp (sp -. (2. *. log_b))) in
  let log_lambda = log_b -. log 2. +. log (1. +. sqrt (1. -. u)) in
  log_lambda /. s

let ebb src ~n ~s =
  if n < 0. then invalid_arg "Mmpp.ebb: negative flow count";
  Ebb.v ~m:1. ~rho:(n *. effective_bandwidth src ~s) ~alpha:s
