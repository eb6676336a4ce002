(* Aggregate on-off Markov source. *)

type laws = {
  of_src : Envelope.Mmpp.t;
  stay_on : Desim.Prng.binomial_law;
  turn_on : Desim.Prng.binomial_law;
}

let laws src =
  {
    of_src = src;
    stay_on = Desim.Prng.binomial_law ~p:src.Envelope.Mmpp.p_stay_on;
    turn_on = Desim.Prng.binomial_law ~p:(1. -. src.Envelope.Mmpp.p_stay_off);
  }

type t = {
  src : Envelope.Mmpp.t;
  n : int;
  mutable on : int;
  rng : Desim.Prng.t;
  laws : laws;
}

let create ?laws:shared src ~n ~rng =
  if n < 0 then invalid_arg "Source.create: negative flow count";
  let laws =
    match shared with
    | None -> laws src
    | Some l ->
      if l.of_src <> src then invalid_arg "Source.create: laws built for another source";
      l
  in
  let on = Desim.Prng.binomial rng ~n ~p:(Envelope.Mmpp.stationary_on src) in
  { src; n; on; rng; laws }

let step t =
  let emitted = float_of_int t.on *. t.src.Envelope.Mmpp.peak in
  let stay_on = Desim.Prng.binomial_of_law t.rng t.laws.stay_on ~n:t.on in
  let turn_on = Desim.Prng.binomial_of_law t.rng t.laws.turn_on ~n:(t.n - t.on) in
  t.on <- stay_on + turn_on;
  emitted

let on_count t = t.on
let flows t = t.n
let mean_rate t = float_of_int t.n *. Envelope.Mmpp.mean_rate t.src
