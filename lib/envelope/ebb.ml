(* EBB traffic characterization. *)

type t = { m : float; rho : float; alpha : float }

let v ~m ~rho ~alpha =
  if m < 0. then invalid_arg "Ebb.v: negative prefactor";
  if rho < 0. then invalid_arg "Ebb.v: negative rate";
  if alpha <= 0. then invalid_arg "Ebb.v: non-positive decay";
  { m; rho; alpha }

let bounding { m; alpha; _ } = Exponential.v ~m ~a:alpha

type sample_path = { envelope_rate : float; bound : Exponential.t }

let sample_path_envelope f ~gamma =
  if gamma <= 0. then invalid_arg "Ebb.sample_path_envelope: non-positive gamma";
  {
    envelope_rate = f.rho +. gamma;
    bound = Exponential.geometric_sum (bounding f) ~gamma;
  }
