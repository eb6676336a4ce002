(* Exponential bounding functions and their optimal mixtures (Eq. 33). *)

type t = { m : float; a : float }

let v ~m ~a =
  if m < 0. || Float.is_nan m then invalid_arg "Exponential.v: negative prefactor";
  if a <= 0. || Float.is_nan a then invalid_arg "Exponential.v: non-positive rate";
  { m; a }

let eval_uncapped { m; a } sigma = m *. exp (-.a *. sigma)
let eval t sigma = Float.min 1. (eval_uncapped t sigma)

(* inf_{sum sigma_i = sigma} sum m_i e^{-a_i sigma_i}
   = w * prod (m_i a_i)^{1/(a_i w)} * e^{-sigma/w},   w = sum 1/a_i.
   Computed in log domain for numerical robustness. *)
let combine = function
  | [] -> invalid_arg "Exponential.combine: empty list"
  | [ e ] -> e
  | es ->
    let w = List.fold_left (fun acc e -> acc +. (1. /. e.a)) 0. es in
    let log_m =
      log w
      +. List.fold_left
           (fun acc e -> acc +. ((log e.m +. log e.a) /. (e.a *. w)))
           0. es
    in
    { m = exp log_m; a = 1. /. w }

let combine_brute es sigma =
  (* Recursive grid minimization: split sigma between the head term and the
     (recursively combined) rest.  Resolution 1/2048 of sigma per level. *)
  let rec go = function
    | [] -> fun _ -> Float.infinity
    | [ e ] -> fun s -> eval_uncapped e s
    | e :: rest ->
      let tail = go rest in
      fun s ->
        let n = 2048 in
        let best = ref Float.infinity in
        for i = 0 to n do
          let s1 = s *. float_of_int i /. float_of_int n in
          let v = eval_uncapped e s1 +. tail (s -. s1) in
          if v < !best then best := v
        done;
        !best
  in
  go es sigma

let invert { m; a } ~epsilon =
  if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
  Float.max 0. (log (m /. epsilon) /. a)

let geometric_sum e ~gamma =
  if gamma <= 0. then invalid_arg "Exponential.geometric_sum: non-positive gamma";
  let q = exp (-.e.a *. gamma) in
  { e with m = e.m /. (1. -. q) }
