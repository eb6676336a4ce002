(* Finite-state Markov-modulated sources: effective bandwidth by power
   iteration on the exponentially tilted transition matrix. *)

(* an extension past the paper's two-state sources, held by
   test/test_extensions.ml; no executable computes with it yet *)
[@@@lint.allow "unreachable-module"]

type t = { p : float array array; rates : float array }

let v ~p ~rates =
  let n = Array.length p in
  if n = 0 then invalid_arg "Markov.v: empty chain";
  if Array.length rates <> n then invalid_arg "Markov.v: rates arity mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Markov.v: non-square matrix";
      let sum = Array.fold_left ( +. ) 0. row in
      Array.iter
        (fun x -> if x < 0. || x > 1. then invalid_arg "Markov.v: entry out of [0,1]")
        row;
      if Float.abs (sum -. 1.) > 1e-9 then invalid_arg "Markov.v: rows must sum to 1")
    p;
  Array.iter (fun r -> if r < 0. then invalid_arg "Markov.v: negative rate") rates;
  { p; rates }

let size t = Array.length t.rates

let stationary t =
  let n = size t in
  let x = ref (Array.make n (1. /. float_of_int n)) in
  for _ = 1 to 2000 do
    let y = Array.make n 0. in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        y.(j) <- y.(j) +. (!x.(i) *. t.p.(i).(j))
      done
    done;
    let s = Array.fold_left ( +. ) 0. y in
    Array.iteri (fun j v -> y.(j) <- v /. s) y;
    x := y
  done;
  !x

let mean_rate t =
  let pi = stationary t in
  let acc = ref 0. in
  Array.iteri (fun i pi_i -> acc := !acc +. (pi_i *. t.rates.(i))) pi;
  !acc

let peak_rate t = Array.fold_left Float.max 0. t.rates

(* log of the spectral radius of M_{ij} = p_{ij} e^{s r_j}, computed on the
   rescaled matrix M'_{ij} = p_{ij} e^{s (r_j - r_max)} to avoid overflow:
   log rho(M) = s r_max + log rho(M'). *)
let log_spectral_radius t ~s =
  let n = size t in
  let rmax = peak_rate t in
  let weight = Array.map (fun r -> exp (s *. (r -. rmax))) t.rates in
  let x = ref (Array.make n 1.) in
  let growth = ref 1. in
  for _ = 1 to 500 do
    let y = Array.make n 0. in
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. (t.p.(i).(j) *. weight.(j) *. !x.(j))
      done;
      y.(i) <- !acc
    done;
    let norm = Array.fold_left ( +. ) 0. y /. float_of_int n in
    if norm > 0. then begin
      Array.iteri (fun i v -> y.(i) <- v /. norm) y;
      growth := norm
    end;
    x := y
  done;
  (s *. rmax) +. log !growth

let effective_bandwidth t ~s =
  if s <= 0. then invalid_arg "Markov.effective_bandwidth: non-positive s";
  log_spectral_radius t ~s /. s

let ebb t ~n ~s =
  if n < 0. then invalid_arg "Markov.ebb: negative flow count";
  Ebb.v ~m:1. ~rho:(n *. effective_bandwidth t ~s) ~alpha:s

let of_mmpp (m : Mmpp.t) =
  let p11 = m.Mmpp.p_stay_off and p22 = m.Mmpp.p_stay_on in
  v
    ~p:[| [| p11; 1. -. p11 |]; [| 1. -. p22; p22 |] |]
    ~rates:[| 0.; m.Mmpp.peak |]
