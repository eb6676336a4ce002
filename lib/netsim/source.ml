(* Aggregate on-off Markov source.

   From [k] ON flows of [n], the next ON-count is Bin(k, a) + Bin(n - k, b)
   with a = p_stay_on and b = 1 - p_stay_off.  [step] draws it by one
   inversion of row [k] of that kernel; rows are built on first visit
   (DESIGN.md §8). *)

(* Row [k]: the slot's emission [kb] = k * peak, and the next count's
   law as cut points over [lo, lo + length cuts) (Desim.Prng.guide).  A
   row with one cut is a point mass: no guide, no draw.  The emission is
   a field so that [step] returns it without boxing a float. *)
type row = { kb : float; lo : int; cuts : int array; guide : int array }

let unbuilt = { kb = Float.nan; lo = 0; cuts = [||]; guide = [||] }

(* A binomial's weights relative to the one at its mode, nonzero on
   [lo, hi]: the row builder's scratch. *)
type weights = { w : float array; mutable lo : int; mutable hi : int }

type kernel = {
  src : Envelope.Mmpp.t;
  n : int;
  rows : row array;  (* by current count; [unbuilt] until visited *)
  stay : weights;
  turn : weights;
  conv : float array;
}

type laws = { of_src : Envelope.Mmpp.t; mutable kernels : kernel list }

let laws src =
  let prob p = p >= 0. && p <= 1. in
  if not (prob src.Envelope.Mmpp.p_stay_on && prob src.Envelope.Mmpp.p_stay_off) then
    invalid_arg "Source.laws: transition probability outside [0, 1]";
  { of_src = src; kernels = [] }

(* A tail is cut at the first weight below [tail] whose ratio to the
   next one is at most 1/2, so it drops at most 2^-62 of the mass. *)
let tail = 0x1p-64

(* Extends the weights of Bin(m, p), r = p / (1 - p), from [i] in
   direction [d] (1 or -1), each weight the last times the ratio of
   consecutive pmf terms, until the support ends or the tail is cut;
   returns the last index kept. *)
let rec walk w ~m ~r ~d i =
  let j = i + d in
  if j < 0 || j > m then i
  else
    let ratio =
      if d > 0 then float_of_int (m - i) *. r /. float_of_int j
      else float_of_int i /. (float_of_int (m - j) *. r)
    in
    let x = w.(i) *. ratio in
    if x < tail && ratio <= 0.5 then i
    else begin
      w.(j) <- x;
      walk w ~m ~r ~d j
    end

(* Bin(m, p) from md = floor ((m + 1) p), its mode, outwards; p = 0 and
   p = 1 (r = 0 and r = inf) leave the point mass at md. *)
let fill s ~m ~p =
  let r = p /. (1. -. p) in
  let md = Stdlib.min m (Float.to_int (float_of_int (m + 1) *. p)) in
  s.w.(md) <- 1.;
  s.hi <- walk s.w ~m ~r ~d:1 md;
  s.lo <- walk s.w ~m ~r ~d:(-1) md

(* The cut point of cumulative weight [c] out of [total]. *)
let[@inline] cut c total = Float.to_int (Float.round (c /. total *. 0x1p53))

let build kr k =
  let { src; stay = u; turn = v; conv = w; _ } = kr in
  fill u ~m:k ~p:src.Envelope.Mmpp.p_stay_on;
  fill v ~m:(kr.n - k) ~p:(1. -. src.Envelope.Mmpp.p_stay_off);
  (* the running sum of w = u * v *)
  let jlo = u.lo + v.lo and jhi = u.hi + v.hi and c = ref 0. in
  for j = jlo to jhi do
    let x = ref 0. in
    for i = Stdlib.max u.lo (j - v.hi) to Stdlib.min u.hi (j - v.lo) do
      x := !x +. (u.w.(i) *. v.w.(j - i))
    done;
    c := !c +. !x;
    w.(j) <- !c
  done;
  let total = w.(jhi) and lo = ref jlo in
  while cut w.(!lo) total = 0 do
    incr lo
  done;
  let hi = ref !lo in
  while cut w.(!hi) total < 1 lsl 53 do
    incr hi
  done;
  (* the row's arrays and record are allocated once, on the first visit
     to its count, and kept *)
  let cuts = (Array.make (!hi - !lo + 1) 0 [@lint.allow "zero-alloc"]) in
  for i = 0 to !hi - !lo do
    cuts.(i) <- cut w.(!lo + i) total
  done;
  let guide = if Array.length cuts = 1 then [||] else Desim.Prng.guide cuts in
  let row =
    ({ kb = float_of_int k *. src.Envelope.Mmpp.peak; lo = !lo; cuts; guide }
    [@lint.allow "zero-alloc"])
  in
  kr.rows.(k) <- row;
  row

let[@inline] row_at kr k =
  let r = kr.rows.(k) in
  if r == unbuilt then build kr k else r

let kernel laws n =
  match List.find_opt (fun kr -> kr.n = n) laws.kernels with
  | Some kr -> kr
  | None ->
    let scratch () = { w = Array.make (n + 1) 0.; lo = 0; hi = 0 } in
    let src = laws.of_src and rows = Array.make (n + 1) unbuilt in
    let kr = { src; n; rows; stay = scratch (); turn = scratch (); conv = Array.make (n + 1) 0. } in
    laws.kernels <- kr :: laws.kernels;
    kr

let row laws ~n ~k =
  if k < 0 || k > n then invalid_arg "Source.row: count outside 0..n";
  let r = row_at (kernel laws n) k in
  (r.lo, Array.copy r.cuts)

type t = { kernel : kernel; mutable on : int; rng : Desim.Prng.t }

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
  { kernel = kernel laws n; on; rng }

let step t =
  let r = row_at t.kernel t.on in
  t.on <-
    (if Array.length r.cuts = 1 then r.lo
     else r.lo + Desim.Prng.invert t.rng ~cuts:r.cuts ~guide:r.guide);
  r.kb
[@@zero_alloc_check]

let on_count t = t.on
let mean_rate t = float_of_int t.kernel.n *. Envelope.Mmpp.mean_rate t.kernel.src
