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

(* Guide-table inversion (Chen & Asau 1974; Devroye 1986, III.2) of
   [log1p_gap].  [cuts.(k)] is the least [m] whose gap exceeds [k]
   (T_(k+1) in DESIGN.md); [limit] is the last cut, and every
   [m >= limit] takes the [log1p] path.  The guide splits [\[0, limit)]
   into at most [guide_buckets] buckets of [2^shift] values each;
   [guide.(j)] is the gap at [m = j lsl shift], where the scan for any
   [m] of bucket [j] may start.  An empty table has [limit = 0]. *)
let guide_buckets = 1024
let max_cuts = 1024
let covered = (1 lsl 53) - (1 lsl 45) (* cut the table past u = 1 - 2^-8 *)

let[@inline] table_gap ~cuts ~guide ~shift ~limit ~log_q m =
  if m < limit then begin
    let k = ref guide.(m lsr shift) in
    while cuts.(!k) <= m do
      incr k
    done;
    !k
  end
  else log1p_gap m ~log_q
[@@zero_alloc_check]

(* Successes among [n >= 1] Bernoulli(q) trials, skipping over geometric
   gaps: O(n q) expected draws.  The one sampler loop behind [binomial]
   (empty table) and [binomial_of_law]; [gap >= n - 1 - i] is
   [i + gap + 1 >= n] without the overflow a saturated gap would
   cause. *)
let[@inline] successes t ~n ~log_q ~cuts ~guide ~shift ~limit =
  let i = ref (-1) and count = ref 0 and stop = ref false in
  while not !stop do
    let g = table_gap ~cuts ~guide ~shift ~limit ~log_q (bits53 t) in
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
  if Float.equal p 1. then 0 else log1p_gap (bits53 t) ~log_q:(Float.log1p (-.p))

(* A binomial law as the loop needs it: the reflection [p > 0.5],
   [log_q = log1p (-. q)] for q = [min p (1. -. p)], and the gap table.
   [log_q = 0.] marks q = 0: no draws, and the count is [n] if [reflect]
   else 0. *)
type binomial_law = {
  log_q : float;
  reflect : bool;
  cuts : int array;
  guide : int array;
  shift : int;
  limit : int;
}

let[@inline] log_q_of ~p =
  let q = if p > 0.5 then 1. -. p else p in
  if Float.equal q 0. then 0. else Float.log1p (-.q)

let[@inline] sample t ~n ~log_q ~reflect ~cuts ~guide ~shift ~limit =
  if n < 0 then invalid_arg "Prng.binomial: negative n";
  if n = 0 || Float.equal log_q 0. then if reflect then n else 0
  else if reflect then n - successes t ~n ~log_q ~cuts ~guide ~shift ~limit
  else successes t ~n ~log_q ~cuts ~guide ~shift ~limit

let check_p p = if not (p >= 0. && p <= 1.) then invalid_arg "Prng.binomial: p out of range"

let binomial t ~n ~p =
  check_p p;
  sample t ~n ~log_q:(log_q_of ~p) ~reflect:(p > 0.5) ~cuts:[||] ~guide:[||] ~shift:0 ~limit:0
[@@zero_alloc_check]

(* The least [m] in [\[lo, 2^53\]] whose gap reaches [k] (2^53 when none
   does), given that none below [lo] does.  The closed form
   [ceil (-. expm1 (k log_q) 2^53)] is within a step or two of it; a
   galloping search from there brackets it by [gap a < k <= gap b] and
   bisection closes the bracket, so the result [T] satisfies
   [gap (T - 1) < k <= gap T] whatever the rounding of [log1p]. *)
let cut ~log_q ~lo k =
  let m_end = 1 lsl 53 in
  let reaches m = m >= m_end || log1p_gap m ~log_q >= k in
  let guess = -.Float.expm1 (float_of_int k *. log_q) *. 0x1p53 in
  let g = if guess >= 0x1p53 then m_end else Stdlib.max lo (Float.to_int (Float.ceil guess)) in
  let a = ref g and b = ref g and step = ref 1 in
  if reaches g then begin
    while !b - !step >= lo && reaches (!b - !step) do
      b := !b - !step;
      step := 2 * !step
    done;
    (* [lo - 1] stands for "below lo", which never reaches [k] *)
    a := Stdlib.max (lo - 1) (!b - !step)
  end
  else begin
    while not (reaches (Stdlib.min m_end (!a + !step))) do
      a := !a + !step;
      step := 2 * !step
    done;
    b := Stdlib.min m_end (!a + !step)
  end;
  while !b - !a > 1 do
    let mid = !a + ((!b - !a) / 2) in
    if reaches mid then b := mid else a := mid
  done;
  !b

let binomial_law ~p =
  check_p p;
  let log_q = log_q_of ~p and reflect = p > 0.5 in
  if Float.equal log_q 0. then { log_q; reflect; cuts = [||]; guide = [||]; shift = 0; limit = 0 }
  else begin
    let cuts = Array.make max_cuts 0 in
    let rec fill k lo =
      if k = max_cuts || lo >= covered then k
      else
        let m = cut ~log_q ~lo (k + 1) in
        if m >= 1 lsl 53 then k
        else begin
          cuts.(k) <- m;
          fill (k + 1) m
        end
    in
    let len = fill 0 0 in
    let cuts = Array.sub cuts 0 len in
    let limit = if len = 0 then 0 else cuts.(len - 1) in
    let shift = ref 0 in
    while (limit - 1) asr !shift >= guide_buckets do
      incr shift
    done;
    let shift = !shift in
    let guide = Array.make (if len = 0 then 0 else ((limit - 1) lsr shift) + 1) 0 in
    let k = ref 0 in
    Array.iteri
      (fun j _ ->
        while cuts.(!k) <= j lsl shift do
          incr k
        done;
        guide.(j) <- !k)
      guide;
    { log_q; reflect; cuts; guide; shift; limit }
  end

let binomial_of_law t law ~n =
  sample t ~n ~log_q:law.log_q ~reflect:law.reflect ~cuts:law.cuts ~guide:law.guide
    ~shift:law.shift ~limit:law.limit
[@@zero_alloc_check]

let law_cuts law = Array.copy law.cuts

let law_gap law m =
  if m < 0 || m >= 1 lsl 53 then invalid_arg "Prng.law_gap: m outside [0, 2^53)";
  table_gap ~cuts:law.cuts ~guide:law.guide ~shift:law.shift ~limit:law.limit ~log_q:law.log_q m

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: non-positive rate";
  -.Float.log1p (-.float t) /. rate
