(* xoshiro256++ with splitmix64 seeding.

   The four state words live in a 32-byte buffer read and written with
   [Bytes.get_int64_ne]/[set_int64_ne].  Inside one function the compiler
   keeps [int64] locals unboxed, so a state update allocates nothing,
   where mutable [int64] record fields would box every write. *)

type t = Bytes.t

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (z, logxor z (shift_right_logical z 31))

let create ~seed =
  let (x1, s0) = splitmix64 seed in
  let (x2, s1) = splitmix64 x1 in
  let (x3, s2) = splitmix64 x2 in
  let (_, s3) = splitmix64 x3 in
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step; [@inline] so callers keep the result unboxed. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne t 0 (logxor s0 s3);
  Bytes.set_int64_ne t 8 (logxor s1 s2);
  Bytes.set_int64_ne t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

(* The top 53 bits of one step, scaled into [0, 1). *)
let[@inline] float t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

let split t = create ~seed:(bits64 t)
let copy = Bytes.copy

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* Rejection sampling to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int b) in
  let rec go () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    if r >= limit then go () else Int64.to_int (Int64.rem r b)
  in
  go ()

let bernoulli t ~p =
  if p < 0. || p > 1. then invalid_arg "Prng.bernoulli: p out of range";
  float t < p

(* Failures before the first success of Bernoulli(q) trials, by
   inversion, with [log_q = log1p (-. q)].  The quotient is >= 0; from
   2^62 on it no longer fits an [int] and the gap saturates at
   [max_int]. *)
let[@inline] gap t ~log_q =
  let x = Float.log1p (-.float t) /. log_q in
  if x >= 0x1p62 then max_int else Float.to_int (Float.floor x)

(* Successes among [n >= 1] Bernoulli(q) trials, skipping over geometric
   gaps: O(n q) expected draws.  The one sampler loop behind [binomial]
   and [binomial_of_law]; [gap >= n - 1 - i] is [i + gap + 1 >= n]
   without the overflow a saturated gap would cause. *)
let[@inline] successes t ~n ~log_q =
  let i = ref (-1) and count = ref 0 and stop = ref false in
  while not !stop do
    let g = gap t ~log_q in
    if g >= n - 1 - !i then stop := true
    else begin
      i := !i + g + 1;
      incr count
    end
  done;
  !count
[@@zero_alloc_check]

let geometric t ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Prng.geometric: p out of range";
  if Float.equal p 1. then 0 else gap t ~log_q:(Float.log1p (-.p))

(* A binomial law as the loop needs it: the reflection [p > 0.5] and
   [log_q = log1p (-. q)] for q = [min p (1. -. p)].  [log_q = 0.] marks
   q = 0: no draws, and the count is [n] if [reflect] else 0. *)
type binomial_law = { log_q : float; reflect : bool }

let[@inline] log_q_of ~p =
  let q = if p > 0.5 then 1. -. p else p in
  if Float.equal q 0. then 0. else Float.log1p (-.q)

let[@inline] sample t ~n ~log_q ~reflect =
  if n < 0 then invalid_arg "Prng.binomial: negative n";
  if n = 0 || Float.equal log_q 0. then if reflect then n else 0
  else if reflect then n - successes t ~n ~log_q
  else successes t ~n ~log_q

let check_p p = if not (p >= 0. && p <= 1.) then invalid_arg "Prng.binomial: p out of range"

let binomial t ~n ~p =
  check_p p;
  sample t ~n ~log_q:(log_q_of ~p) ~reflect:(p > 0.5)
[@@zero_alloc_check]

let binomial_law ~p =
  check_p p;
  { log_q = log_q_of ~p; reflect = p > 0.5 }

let binomial_of_law t law ~n = sample t ~n ~log_q:law.log_q ~reflect:law.reflect
[@@zero_alloc_check]

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: non-positive rate";
  -.Float.log1p (-.float t) /. rate
