(* Simulation output statistics. *)

(* NaN tripwire: a NaN entering an accumulator silently poisons every
   downstream mean/quantile, so reject it at the boundary. *)
let check_not_nan ~what x =
  if Float.is_nan x then invalid_arg (what ^ ": NaN sample")

module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    check_not_nan ~what:"Stats.Online.add" x;
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = if t.n = 0 then Float.nan else t.mean
  let variance t = if t.n < 2 then Float.nan else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
end

module Sample = struct
  type t = { mutable data : float array; mutable n : int; mutable sorted : bool }

  let create () = { data = [||]; n = 0; sorted = true }

  let add_copies t x k =
    check_not_nan ~what:"Stats.Sample.add" x;
    if k < 0 then invalid_arg "Stats.Sample.add_copies: negative count";
    if t.n + k > Array.length t.data then begin
      let cap = Stdlib.max (t.n + k) (Stdlib.max 1024 (2 * Array.length t.data)) in
      let data = Array.make cap 0. in
      Array.blit t.data 0 data 0 t.n;
      t.data <- data
    end;
    Array.fill t.data t.n k x;
    t.n <- t.n + k;
    t.sorted <- false

  let add t x = add_copies t x 1

  let count t = t.n

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.n in
      (* merge sort: a delay sample is mostly runs of equal values, on
         which it is ~3x faster than [Array.sort]'s heapsort *)
      Array.stable_sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.n;
      t.sorted <- true
    end

  let quantile t q =
    if t.n = 0 then invalid_arg "Stats.Sample.quantile: empty sample";
    if not (q >= 0. && q <= 1.) then invalid_arg "Stats.Sample.quantile: q out of range";
    ensure_sorted t;
    let pos = q *. float_of_int (t.n - 1) in
    let lo = Float.to_int (Float.floor pos) in
    let hi = Stdlib.min (t.n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. t.data.(lo)) +. (frac *. t.data.(hi))

  let max t =
    if t.n = 0 then Float.neg_infinity
    else begin
      ensure_sorted t;
      t.data.(t.n - 1)
    end

  let to_sorted_array t =
    ensure_sorted t;
    Array.sub t.data 0 t.n
end

(* Two-sided Student-t 0.975 quantiles for small degrees of freedom. *)
let t_975 = function
  | 1 -> 12.706
  | 2 -> 4.303
  | 3 -> 3.182
  | 4 -> 2.776
  | 5 -> 2.571
  | 6 -> 2.447
  | 7 -> 2.365
  | 8 -> 2.306
  | 9 -> 2.262
  | 10 -> 2.228
  | 15 -> 2.131
  | 20 -> 2.086
  | 25 -> 2.060
  | df -> if df < 15 then 2.2 else if df < 30 then 2.05 else 1.96

let batch_means xs ~batches =
  let n = Array.length xs in
  if batches <= 1 then invalid_arg "Stats.batch_means: need at least two batches";
  if n < batches then invalid_arg "Stats.batch_means: fewer observations than batches";
  let per = n / batches in
  let means =
    Array.init batches (fun b ->
        let s = ref 0. in
        for i = b * per to ((b + 1) * per) - 1 do
          s := !s +. xs.(i)
        done;
        !s /. float_of_int per)
  in
  let acc = Online.create () in
  Array.iter (Online.add acc) means;
  let half =
    t_975 (batches - 1) *. Online.stddev acc /. sqrt (float_of_int batches)
  in
  (Online.mean acc, half)

(* Eq. 6 on the slot clock by a two-pointer sweep: the first slot at or
   after [t] whose departures reach [t]'s arrivals only moves forward as
   [t] does, because [cum_in] never decreases.  A slot's increment is the
   float difference of the counter, so an arrival that rounds away
   against a large cumulative is no arrival. *)
let virtual_delays ~cum_in ~cum_out =
  let delays = Sample.create () in
  let n_out = Array.length cum_out in
  let censored = ref 0. in
  let u = ref 0 in
  let eps = 1e-6 in
  let before = ref 0. in
  for t = 0 to Array.length cum_in - 1 do
    let cum = cum_in.(t) in
    let inc = cum -. !before in
    before := cum;
    if inc > 0. then begin
      if !u < t then u := t;
      while !u < n_out && cum_out.(!u) < cum -. eps do
        incr u
      done;
      if !u < n_out then Sample.add delays (float_of_int (!u - t))
      else censored := !censored +. inc
    end
  done;
  (delays, !censored)
