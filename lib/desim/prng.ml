(* xoshiro256++ with splitmix64 seeding.

   The four state words live in a 32-byte buffer read and written in
   native byte order (see [get64]/[set64]).  Inside one function the compiler
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

(* Unchecked native-endian accessors: every offset below is a constant
   inside the 32 bytes that [create] allocates, and [t] is abstract, so
   the bounds checks of [Bytes.get_int64_ne] can never fail (they cost
   ~20% of a binomial draw). *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step; [@inline] so callers keep the result unboxed. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
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

(* Failures before the first success of Bernoulli(q) trials for the
   uniform [u = m 2^-53] of a 53-bit [m], by inversion, with
   [log_q = log1p (-. q)].  The quotient is >= 0; from 2^62 on it no
   longer fits an [int] and the gap saturates at [max_int]. *)
let[@inline] log1p_gap m ~log_q =
  let x = Float.log1p (-.(float_of_int m *. 0x1.0p-53)) /. log_q in
  if x >= 0x1p62 then max_int else Float.to_int (Float.floor x)

(* The top 53 bits of one step: [float t] is this times 2^-53. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* Successes among [n >= 1] Bernoulli(q) trials, skipping over geometric
   gaps: O(n q) expected draws.  [gap >= n - 1 - i] is [i + gap + 1 >= n]
   without the overflow a saturated gap would cause. *)
let[@inline] successes t ~n ~log_q =
  let i = ref (-1) and count = ref 0 and stop = ref false in
  while not !stop do
    let g = log1p_gap (bits53 t) ~log_q in
    if g >= n - 1 - !i then stop := true
    else begin
      i := !i + g + 1;
      incr count
    end
  done;
  !count

(* Inversion on q = [min p (1. -. p)], reflected when [p > 0.5]; q = 0
   draws nothing. *)
let binomial t ~n ~p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Prng.binomial: p out of range";
  if n < 0 then invalid_arg "Prng.binomial: negative n";
  let reflect = p > 0.5 in
  let q = if reflect then 1. -. p else p in
  if n = 0 || Float.equal q 0. then if reflect then n else 0
  else
    let s = successes t ~n ~log_q:(Float.log1p (-.q)) in
    if reflect then n - s else s
[@@zero_alloc_check]

(* Guide-table inversion (Chen & Asau 1974; Devroye 1986, III.2) of a
   law on [0, len) given by its cut points: [cuts.(i)] is the number of
   53-bit values [m] that draw at most [i], so the cuts are
   non-decreasing and end at 2^53.  [guide.(b)] is the least [i] with
   [cuts.(i) > b 2^47], where the scan for any [m] of the [b]-th of the
   64 equal buckets of [\[0, 2^53)] may start. *)
let guide_shift = 47

let guide cuts =
  let len = Array.length cuts in
  if len = 0 || cuts.(len - 1) <> 1 lsl 53 then invalid_arg "Prng.guide: cuts must end at 2^53";
  for i = 1 to len - 1 do
    if cuts.(i) < cuts.(i - 1) then invalid_arg "Prng.guide: decreasing cuts"
  done;
  let g = Array.make (1 lsl (53 - guide_shift)) 0 in
  let i = ref 0 in
  for b = 0 to Array.length g - 1 do
    while cuts.(!i) <= b lsl guide_shift do
      incr i
    done;
    g.(b) <- !i
  done;
  g

let invert t ~cuts ~guide =
  let m = bits53 t in
  let i = ref guide.(m lsr guide_shift) in
  while cuts.(!i) <= m do
    incr i
  done;
  !i
[@@zero_alloc_check]
