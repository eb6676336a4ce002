(* Tests for the simulation substrate: PRNG, samplers, statistics. *)

module Prng = Desim.Prng
module Stats = Desim.Stats

let check_float ?(tol = 1e-9) name expected got =
  if Float.abs (expected -. got) > tol *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ---------------- PRNG ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123L and b = Prng.create ~seed:123L in
  for i = 1 to 100 do
    if Prng.bits64 a <> Prng.bits64 b then Alcotest.failf "diverged at step %d" i
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  Alcotest.(check bool) "different streams" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_float_range () =
  let t = Prng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let x = Prng.float t in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %g" x
  done

let test_prng_float_mean () =
  let t = Prng.create ~seed:6L in
  let acc = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.float t
  done;
  check_float ~tol:0.01 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7L in
  let seen = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Prng.int t ~bound:7 in
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 8_000 || c > 12_000 then Alcotest.failf "bucket %d skewed: %d" i c)
    seen

let test_binomial_moments () =
  let t = Prng.create ~seed:8L in
  let n = 50 and p = 0.2 in
  let trials = 50_000 in
  let acc = Stats.Online.create () in
  for _ = 1 to trials do
    Stats.Online.add acc (float_of_int (Prng.binomial t ~n ~p))
  done;
  check_float ~tol:0.01 "binomial mean" (float_of_int n *. p) (Stats.Online.mean acc);
  check_float ~tol:0.05 "binomial variance" (float_of_int n *. p *. (1. -. p))
    (Stats.Online.variance acc)

let test_binomial_reflected () =
  let t = Prng.create ~seed:9L in
  let n = 40 and p = 0.9 in
  let acc = Stats.Online.create () in
  for _ = 1 to 50_000 do
    let k = Prng.binomial t ~n ~p in
    if k < 0 || k > n then Alcotest.failf "binomial out of range: %d" k;
    Stats.Online.add acc (float_of_int k)
  done;
  check_float ~tol:0.01 "mean with p > 1/2" (float_of_int n *. p) (Stats.Online.mean acc)

let test_binomial_edges () =
  let t = Prng.create ~seed:10L in
  Alcotest.(check int) "p = 0" 0 (Prng.binomial t ~n:10 ~p:0.);
  Alcotest.(check int) "p = 1" 10 (Prng.binomial t ~n:10 ~p:1.);
  Alcotest.(check int) "n = 0" 0 (Prng.binomial t ~n:0 ~p:0.5)

let test_tiny_p_saturates () =
  (* log1p (-. u) /. log1p (-. p) passes the int range for such p: the
     gap saturates at max_int instead of wrapping to a zero gap, which
     made every trial a success. *)
  let t = Prng.create ~seed:13L in
  for _ = 1 to 100 do
    Alcotest.(check int) "binomial p = 1e-20" 0 (Prng.binomial t ~n:10 ~p:1e-20);
    Alcotest.(check int) "binomial p = 1e-300" 0 (Prng.binomial t ~n:10 ~p:1e-300)
  done

let test_prng_split_independent () =
  (* Split streams are fully determined at the split: later draws on the
     parent must not disturb an already-split child.  The engine parity
     guarantee (test_desim_parity.ml) rests on exactly this property —
     only per-stream step counts matter, not global interleaving. *)
  let tape r = Array.init 50 (fun _ -> Prng.bits64 r) in
  let a = Prng.create ~seed:99L in
  let t1 = tape (Prng.split a) in
  let b = Prng.create ~seed:99L in
  let child = Prng.split b in
  for _ = 1 to 17 do
    ignore (Prng.bits64 b)
  done;
  let t2 = tape child in
  Alcotest.(check bool) "child stream unaffected by parent draws" true
    (Array.for_all2 Int64.equal t1 t2)

let test_prng_split_streams_distinct () =
  let tape r = Array.init 50 (fun _ -> Prng.bits64 r) in
  let a = Prng.create ~seed:100L in
  let s1 = tape (Prng.split a) in
  let s2 = tape (Prng.split a) in
  Alcotest.(check bool) "sibling splits diverge" true
    (not (Array.for_all2 Int64.equal s1 s2));
  let b = Prng.create ~seed:100L in
  let r1 = tape (Prng.split b) in
  let r2 = tape (Prng.split b) in
  Alcotest.(check bool) "replayed first split identical" true
    (Array.for_all2 Int64.equal s1 r1);
  Alcotest.(check bool) "replayed second split identical" true
    (Array.for_all2 Int64.equal s2 r2)

let test_seeds_jobs_invariant () =
  (* Replication seeds are derived up front from the base seed alone, so
     fanning the work over any pool size yields bit-identical streams. *)
  let seeds = Parallel.Seeds.derive ~base_seed:777L 32 in
  let again = Parallel.Seeds.derive ~base_seed:777L 32 in
  Alcotest.(check bool) "derivation deterministic" true
    (Array.for_all2 Int64.equal seeds again);
  let distinct = Array.to_list seeds |> List.sort_uniq Int64.compare in
  Alcotest.(check int) "seeds pairwise distinct" 32 (List.length distinct);
  let experiment seed =
    let r = Prng.create ~seed in
    let acc = ref 0. in
    for _ = 1 to 200 do
      acc := !acc +. Prng.float r
    done;
    !acc
  in
  let run jobs = Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.map pool experiment seeds) in
  let one = run 1 and four = run 4 in
  Array.iteri
    (fun i x ->
      if not (Float.equal x four.(i)) then
        Alcotest.failf "replication %d differs across pool sizes: %.17g vs %.17g" i x
          four.(i))
    one

(* The sampler as it stood with the state in a record of mutable [int64]
   fields and a closure-based [binomial]: the oracle that the
   allocation-free version must reproduce draw for draw.  It keeps the
   old zero-gap wrap for quotients past the int range, which the
   generated [p] never reach (the smallest, 1e-12, stays below 4e13). *)
module Oracle = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

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
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let float t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

  let binomial t ~n ~p =
    let count_successes p =
      let rec go i count =
        let u = float t in
        let gap = Float.to_int (Float.floor (Float.log1p (-.u) /. Float.log1p (-.p))) in
        let gap = if gap < 0 then 0 else gap in
        let j = i + gap + 1 in
        if j >= n then count else go j (count + 1)
      in
      go (-1) 0
    in
    if n = 0 || Float.equal p 0. then 0
    else if Float.equal p 1. then n
    else if p > 0.5 then n - count_successes (1. -. p)
    else count_successes p
end

let prop_sampler_matches_oracle =
  let p_gen =
    QCheck.Gen.(
      oneof
        [
          oneofl [ 0.; 1.; 0.5; Float.pred 0.5; Float.succ 0.5; 1e-12 ];
          float_bound_exclusive 1. |> map (fun p -> if p > 0. then p else 0.5);
        ])
  in
  let gen = QCheck.Gen.(triple ui64 (int_range 0 500) p_gen) in
  QCheck.Test.make ~name:"sampler = record-state oracle, bit for bit"
    ~count:(Qc.count 100)
    (QCheck.make ~print:(fun (s, n, p) -> Printf.sprintf "seed=%Ld n=%d p=%h" s n p) gen)
    (fun (seed, n, p) ->
      (* Four samples, then an 8-word bits64 tape: equal tapes mean equal
         generator states. *)
      let run draw =
        let t = Prng.create ~seed in
        let xs = Array.init 4 (fun _ -> draw t) in
        (xs, Array.init 8 (fun _ -> Prng.bits64 t))
      in
      let oracle draw =
        let o = Oracle.create ~seed in
        let xs = Array.init 4 (fun _ -> draw o) in
        (xs, Array.init 8 (fun _ -> Oracle.bits64 o))
      in
      run (fun t -> Prng.binomial t ~n ~p) = oracle (fun o -> Oracle.binomial o ~n ~p))

(* ---------------- on-off kernel sampler ---------------- *)

module Source = Netsim.Source
module Mmpp = Envelope.Mmpp

(* Sources whose stay-ON probability a or turn-ON probability b is 0 or 1
   (Mmpp.v needs p_stay_off + p_stay_on >= 1). *)
let edge_sources =
  List.map
    (fun (p_stay_off, p_stay_on) -> Mmpp.v ~p_stay_off ~p_stay_on ~peak:1.5)
    [ (1., 0.9); (0.989, 1.); (1., 1.); (1., 0.); (0., 1.) ]

(* [Source.step] is one [Prng.invert] of the current count's row: the
   next count is that draw and the generator has moved by exactly one
   [bits64], or by none on a point-mass row. *)
let test_step_one_draw () =
  List.iter
    (fun (src, n) ->
      let laws = Source.laws src and rng = Prng.create ~seed:40L in
      let s = Source.create ~laws src ~n ~rng in
      for step = 1 to 20_000 do
        let (lo, cuts) = Source.row laws ~n ~k:(Source.on_count s) in
        let twin = Prng.copy rng in
        let want =
          if Array.length cuts = 1 then lo else lo + Prng.invert twin ~cuts ~guide:(Prng.guide cuts)
        in
        ignore (Source.step s);
        if Source.on_count s <> want then
          Alcotest.failf "n = %d, step %d: count %d, inversion %d" n step (Source.on_count s) want;
        if not (Int64.equal (Prng.bits64 (Prng.copy rng)) (Prng.bits64 twin)) then
          Alcotest.failf "n = %d, step %d: generator moved by other than one draw" n step
      done)
    ([ (Mmpp.paper_source, 101); (Mmpp.paper_source, 236); (Mmpp.paper_source, 1) ]
    @ List.map (fun src -> (src, 50)) edge_sources)

(* gamma_m of Higham's rounding-error analysis, unit roundoff 2^-53 *)
let gamma m =
  let mu = float_of_int m *. 0x1p-53 in
  mu /. (1. -. mu)

(* The law of the next count, flow by flow: the n - k flows that may
   turn ON first, then the k that may stay ON, each a Bernoulli
   convolution.  Every entry is within gamma_(3n) of the true pmf
   relative, plus n 2^-1074 absolute (DESIGN.md §8). *)
let reference_row src ~n ~k =
  let a = src.Mmpp.p_stay_on and b = 1. -. src.Mmpp.p_stay_off in
  let pmf = Array.make (n + 1) 0. in
  pmf.(0) <- 1.;
  let flow len p =
    let q = 1. -. p in
    for j = len downto 1 do
      pmf.(j) <- (pmf.(j) *. q) +. (pmf.(j - 1) *. p)
    done;
    pmf.(0) <- pmf.(0) *. q
  in
  for f = 0 to n - k - 1 do
    flow (f + 1) b
  done;
  for f = n - k to n - 1 do
    flow (f + 1) a
  done;
  pmf

(* Row [k]'s cuts are non-decreasing, strictly inside (0, 2^53) but for
   the last, which is 2^53; the mass they give each count is within
   DESIGN.md §8's bound of the flow-by-flow law. *)
let certify_row laws src ~n ~k =
  let (lo, cuts) = Source.row laws ~n ~k in
  let len = Array.length cuts in
  if len = 0 || lo < 0 || lo + len - 1 > n || cuts.(len - 1) <> 1 lsl 53 then
    Alcotest.failf "n = %d, k = %d: cuts do not end at 2^53 inside 0..n" n k;
  Array.iteri
    (fun i c ->
      if c <= 0 || (i < len - 1 && c >= 1 lsl 53) || (i > 0 && c < cuts.(i - 1)) then
        Alcotest.failf "n = %d, k = %d: cut %d = %d out of order" n k i c)
    cuts;
  let reference = reference_row src ~n ~k in
  let tol =
    0x1p-53 +. (2. *. gamma ((14 * n) + 3)) +. gamma (3 * n) +. 0x1p-59
    +. (float_of_int n *. 0x1p-1074)
  in
  for j = 0 to n do
    let cum i = if i < lo then 0 else if i >= lo + len then 1 lsl 53 else cuts.(i - lo) in
    let mass = float_of_int (cum j - cum (j - 1)) *. 0x1p-53 in
    if Float.abs (mass -. reference.(j)) > tol then
      Alcotest.failf "n = %d, k = %d: mass of %d is %h, flow by flow %h (bound %h)" n k j mass
        reference.(j) tol
  done

let test_kernel_rows_exact () =
  List.iter
    (fun (src, n) ->
      let laws = Source.laws src in
      for k = 0 to n do
        certify_row laws src ~n ~k
      done)
    ([ (Mmpp.paper_source, 101); (Mmpp.paper_source, 236); (Mmpp.paper_source, 1);
       (Mmpp.paper_source, 0) ]
    @ List.map (fun src -> (src, 40)) edge_sources);
  Alcotest.check_raises "NaN probability"
    (Invalid_argument "Source.laws: transition probability outside [0, 1]") (fun () ->
      ignore (Source.laws { Mmpp.paper_source with Mmpp.p_stay_on = Float.nan }))

(* (p_stay_off, p_stay_on, n, k) with p_stay_off + p_stay_on >= 1, the
   probabilities often 0, 1 or extreme *)
let kernel_gen =
  QCheck.Gen.(
    let p = oneof [ oneofl [ 0.; 1.; 0.5; 1e-9; 1. -. 1e-9 ]; float_bound_inclusive 1. ] in
    pair p p >>= fun (x, y) ->
    let p_stay_off = Float.max x y and p_stay_on = Float.max (Float.min x y) (1. -. Float.max x y) in
    int_range 0 400 >>= fun n ->
    int_range 0 n >|= fun k -> (Mmpp.v ~p_stay_off ~p_stay_on ~peak:1., n, k))

let print_kernel (src, n, k) =
  Printf.sprintf "p_stay_off=%h p_stay_on=%h n=%d k=%d" src.Mmpp.p_stay_off src.Mmpp.p_stay_on n k

let prop_kernel_rows_exact =
  QCheck.Test.make ~name:"kernel row = flow-by-flow law" ~count:(Qc.count 200)
    (QCheck.make ~print:print_kernel kernel_gen)
    (fun (src, n, k) ->
      certify_row (Source.laws src) src ~n ~k;
      true)

(* Two-sample chi-square over equal-size histograms [a] and [b]: cells
   with fewer than 10 draws between them pooled into one.  Returns the
   statistic and its degrees of freedom. *)
let chi2_two_sample a b =
  let stat = ref 0. and cells = ref 0 and pa = ref 0 and pb = ref 0 in
  let add x y =
    if x + y > 0 then begin
      stat := !stat +. (float_of_int ((x - y) * (x - y)) /. float_of_int (x + y));
      incr cells
    end
  in
  Array.iteri
    (fun j x ->
      let y = b.(j) in
      if x + y >= 10 then add x y
      else begin
        pa := !pa + x;
        pb := !pb + y
      end)
    a;
  add !pa !pb;
  (!stat, Stdlib.max 0 (!cells - 1))

(* The statistic passes unless it is past the chi-square quantile of
   1 - 1e-9 (Wilson-Hilferty, z = 6). *)
let chi2_passes (stat, df) =
  if df = 0 then Float.equal stat 0.
  else
    let d = float_of_int df in
    let c = 2. /. (9. *. d) in
    stat <= d *. ((1. -. c +. (6. *. Float.sqrt c)) ** 3.)

(* The next count as two [Prng.binomial] draws: the oracle. *)
let oracle_next rng src ~n ~k =
  Prng.binomial rng ~n:k ~p:src.Mmpp.p_stay_on
  + Prng.binomial rng ~n:(n - k) ~p:(1. -. src.Mmpp.p_stay_off)

(* Along one chain of [Source.step]s, each transition k -> j beside an
   oracle draw from the same k: per k, both histograms of next counts
   have the same size, and their statistics and degrees of freedom add
   up. *)
let test_kernel_chi2 () =
  List.iter
    (fun (src, n, seed) ->
      let s = Source.create src ~n ~rng:(Prng.create ~seed) and orng = Prng.create ~seed:(Int64.succ seed) in
      let hs = Array.make_matrix (n + 1) (n + 1) 0 and ho = Array.make_matrix (n + 1) (n + 1) 0 in
      for _ = 1 to 200_000 do
        let k = Source.on_count s in
        let o = oracle_next orng src ~n ~k in
        ho.(k).(o) <- ho.(k).(o) + 1;
        ignore (Source.step s);
        let j = Source.on_count s in
        hs.(k).(j) <- hs.(k).(j) + 1
      done;
      let stat, df =
        Array.fold_left
          (fun (st, d) (a, b) ->
            let st', d' = chi2_two_sample a b in
            (st +. st', d + d'))
          (0., 0)
          (Array.map2 (fun a b -> (a, b)) hs ho)
      in
      if not (chi2_passes (stat, df)) then
        Alcotest.failf "p_stay_off = %g, p_stay_on = %g, n = %d: chi2 %.1f on %d df" src.Mmpp.p_stay_off
          src.Mmpp.p_stay_on n stat df)
    ([ (Mmpp.paper_source, 101, 41L); (Mmpp.paper_source, 236, 43L); (Mmpp.paper_source, 1, 45L) ]
    @ List.mapi (fun i src -> (src, 30, Int64.of_int (47 + (2 * i)))) edge_sources)

let prop_kernel_chi2 =
  QCheck.Test.make ~name:"kernel draws = two binomial draws (chi-square)" ~count:(Qc.count ~cap:400 30)
    (QCheck.make ~print:print_kernel kernel_gen)
    (fun (src, n, k) ->
      let laws = Source.laws src in
      let (lo, cuts) = Source.row laws ~n ~k in
      let guide = if Array.length cuts = 1 then [||] else Prng.guide cuts in
      let rng = Prng.create ~seed:(Int64.of_int ((n * 1000) + k)) in
      let hs = Array.make (n + 1) 0 and ho = Array.make (n + 1) 0 in
      for _ = 1 to 20_000 do
        let j = if Array.length cuts = 1 then lo else lo + Prng.invert rng ~cuts ~guide in
        hs.(j) <- hs.(j) + 1;
        let o = oracle_next rng src ~n ~k in
        ho.(o) <- ho.(o) + 1
      done;
      chi2_passes (chi2_two_sample hs ho))

(* Gc.minor_words is unboxed and allocation-free, so the window counts
   only the calls under test. *)
let minor_words_per_call calls f =
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_sampler_allocates_nothing () =
  let t = Prng.create ~seed:14L in
  let sink = ref 0 in
  let calls = 100_000 in
  let words = minor_words_per_call calls (fun () -> sink := !sink + Prng.binomial t ~n:200 ~p:0.1) in
  Alcotest.(check (float 0.)) "words per binomial (p < 1/2)" 0. words;
  let words = minor_words_per_call calls (fun () -> sink := !sink + Prng.binomial t ~n:200 ~p:0.9) in
  Alcotest.(check (float 0.)) "words per binomial (p > 1/2)" 0. words;
  (* every row built first: a row's arrays are allocated on its first visit *)
  let laws = Source.laws Mmpp.paper_source in
  for k = 0 to 235 do
    ignore (Source.row laws ~n:235 ~k : int * int array)
  done;
  let source = Source.create ~laws Mmpp.paper_source ~n:235 ~rng:t in
  let words = minor_words_per_call calls (fun () -> ignore (Sys.opaque_identity (Source.step source))) in
  Alcotest.(check (float 0.)) "words per Source.step" 0. words;
  ignore (Sys.opaque_identity !sink)

(* A built-in policy's key is computed in the node, so queueing a batch
   and serving a slot allocate nothing, fluid or packetized (a 1.25 kb
   offer is two 0.7 kb-at-most packets); [now] and the size are bound
   outside the window, so no argument is boxed inside it. *)
let test_node_allocates_nothing () =
  let module Node = Netsim.Queue_node in
  let module Policy = Scheduler.Policy in
  let now = Sys.opaque_identity 3. and size = Sys.opaque_identity 1.25 in
  List.iter
    (fun (policy, packet_size) ->
      let node = Node.create ?packet_size ~capacity:5. ~classes:2 (Node.Delta_policy policy) in
      let step () =
        Node.offer node ~now ~cls:0 size;
        Node.offer node ~now ~cls:1 size;
        ignore (Sys.opaque_identity (Node.serve_slot node))
      in
      for _ = 1 to 100 do
        step ()
      done;
      let words = minor_words_per_call 100_000 step in
      if words > 0. then
        Alcotest.failf "%s%s: offer + serve_slot allocate %g words" (Policy.name policy)
          (if Option.is_some packet_size then " packetized" else "")
          words)
    [
      (Policy.fifo, None);
      (Policy.static_priority ~priorities:[| 0; 1 |], None);
      (Policy.edf ~deadlines:[| 4.; 9. |], None);
      (Policy.bmux ~tagged:0, None);
      (Policy.fifo, Some 0.7);
      (Policy.edf ~deadlines:[| 4.; 9. |], Some 0.7);
    ]

(* Both engines at the simulate workload's shape (Example 1, H = 10,
   U0 = 15%, U = 50%): every offer, serve and source step of a slot in
   at most 130 minor words, setup included. *)
let check_words_per_slot engine () =
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  let flows u = int_of_float (Float.round (u *. 100. /. mean)) in
  let cfg =
    {
      Netsim.Tandem.default_config with
      Netsim.Tandem.h = 10;
      n_through = flows 0.15;
      n_cross = flows 0.35;
      slots = 4_000;
      drain_limit = 400;
      seed = 5L;
    }
  in
  let w0 = Gc.minor_words () in
  let r = Netsim.Tandem.run ~engine cfg in
  let words = (Gc.minor_words () -. w0) /. float_of_int (cfg.slots + cfg.drain_limit) in
  ignore (Sys.opaque_identity r);
  if words > 130. then
    Alcotest.failf "%s run allocates %.1f words per slot (> 130)"
      (Netsim.Tandem.engine_to_string engine)
      words

(* ---------------- Stats ---------------- *)

let test_online_moments () =
  let acc = Stats.Online.create () in
  List.iter (Stats.Online.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.Online.mean acc);
  check_float "variance" (32. /. 7.) (Stats.Online.variance acc)

let test_sample_quantiles () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check_float "median" 3. (Stats.Sample.quantile s 0.5);
  check_float "q0" 1. (Stats.Sample.quantile s 0.);
  check_float "q1" 5. (Stats.Sample.quantile s 1.);
  check_float "interpolated" 1.4 (Stats.Sample.quantile s 0.1)

(* [q < 0. || q > 1.] let a NaN through, and the interpolation then
   returned NaN. *)
let test_sample_quantile_rejects_nan () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 1.; 2.; 3. ];
  Alcotest.check_raises "q = nan" (Invalid_argument "Stats.Sample.quantile: q out of range")
    (fun () -> ignore (Stats.Sample.quantile s Float.nan : float))

let test_sample_add_copies () =
  let a = Stats.Sample.create () and b = Stats.Sample.create () in
  List.iter
    (fun (x, k) ->
      Stats.Sample.add_copies a x k;
      for _ = 1 to k do
        Stats.Sample.add b x
      done)
    [ (3., 2); (1., 0); (2., 1500); (0.5, 1) ];
  Alcotest.(check int) "count" (Stats.Sample.count b) (Stats.Sample.count a);
  List.iter
    (fun q -> check_float ~tol:0. "quantile" (Stats.Sample.quantile b q) (Stats.Sample.quantile a q))
    [ 0.; 0.001; 0.5; 0.9995; 1. ];
  Alcotest.check_raises "negative count"
    (Invalid_argument "Stats.Sample.add_copies: negative count") (fun () ->
      Stats.Sample.add_copies a 1. (-1))

let test_batch_means () =
  let xs = Array.init 1000 (fun i -> float_of_int (i mod 10)) in
  let (mean, half) = Stats.batch_means xs ~batches:10 in
  check_float "grand mean" 4.5 mean;
  Alcotest.(check bool) "tiny half width for periodic data" true (half < 0.01)

(* Eq. 6 by brute force: for each arrival slot with a positive increment,
   the least u >= t whose departures reach its arrivals, or its
   increment censored when there is none. *)
let brute_virtual_delays ~cum_in ~cum_out =
  let delays = ref [] and censored = ref 0. in
  Array.iteri
    (fun t c ->
      let inc = c -. (if t = 0 then 0. else cum_in.(t - 1)) in
      if inc > 0. then begin
        let rec first u =
          if u >= Array.length cum_out then None
          else if cum_out.(u) >= c -. 1e-6 then Some u
          else first (u + 1)
        in
        match first t with
        | Some u -> delays := float_of_int (u - t) :: !delays
        | None -> censored := !censored +. inc
      end)
    cum_in;
  (List.rev !delays, !censored)

let prop_virtual_delays_brute =
  (* zero-increment slots, sub-tolerance and ordinary increments, and a
     1e17 jump after which a unit increment rounds away *)
  let inc =
    QCheck.Gen.(
      frequency
        [
          (3, return 0.);
          (4, map float_of_int (int_range 1 4));
          (2, float_range 0. 3.);
          (1, return 1e-9);
          (1, return 1e17);
        ])
  in
  let cumulative incs =
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      incs
  in
  (* [drain] extra departure slots; out increments drawn independently,
     so some arrivals are still in flight when [cum_out] ends *)
  let gen =
    QCheck.Gen.(
      int_range 0 40 >>= fun n ->
      int_range 0 8 >>= fun drain ->
      pair (array_size (return n) inc) (array_size (return (n + drain)) inc))
  in
  let print (a, b) =
    let arr xs = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") xs)) in
    Printf.sprintf "in=[%s] out=[%s]" (arr a) (arr b)
  in
  QCheck.Test.make ~name:"virtual delays = brute-force Eq. 6" ~count:(Qc.count 500)
    (QCheck.make ~print gen) (fun (in_incs, out_incs) ->
      let cum_in = cumulative in_incs and cum_out = cumulative out_incs in
      let (sample, censored) = Stats.virtual_delays ~cum_in ~cum_out in
      let (delays, censored') = brute_virtual_delays ~cum_in ~cum_out in
      let got = Stats.Sample.to_sorted_array sample in
      let want = Array.of_list (List.sort Float.compare delays) in
      if got <> want then
        QCheck.Test.fail_reportf "delays %s vs brute %s"
          (String.concat "," (Array.to_list (Array.map string_of_float got)))
          (String.concat "," (Array.to_list (Array.map string_of_float want)));
      if not (Float.equal censored censored') then
        QCheck.Test.fail_reportf "censored %h vs brute %h" censored censored';
      true)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng float mean" `Slow test_prng_float_mean;
    Alcotest.test_case "prng int bounds" `Slow test_prng_int_bounds;
    Alcotest.test_case "binomial moments" `Slow test_binomial_moments;
    Alcotest.test_case "binomial reflected" `Slow test_binomial_reflected;
    Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
    Alcotest.test_case "tiny p saturates the gap" `Quick test_tiny_p_saturates;
    QCheck_alcotest.to_alcotest prop_sampler_matches_oracle;
    Alcotest.test_case "sampler allocates nothing" `Quick test_sampler_allocates_nothing;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng split streams distinct" `Quick test_prng_split_streams_distinct;
    Alcotest.test_case "seeds jobs-invariant" `Quick test_seeds_jobs_invariant;
    Alcotest.test_case "online moments" `Quick test_online_moments;
    Alcotest.test_case "sample quantiles" `Quick test_sample_quantiles;
    Alcotest.test_case "sample add_copies = repeated add" `Quick test_sample_add_copies;
    Alcotest.test_case "batch means" `Quick test_batch_means;
    Alcotest.test_case "node offer + serve allocate nothing" `Quick test_node_allocates_nothing;
    Alcotest.test_case "slotted run words per slot" `Quick
      (check_words_per_slot Netsim.Tandem.Slotted);
    Alcotest.test_case "event run words per slot" `Quick
      (check_words_per_slot Netsim.Tandem.Event);
    Alcotest.test_case "Source.step is one draw" `Quick test_step_one_draw;
    Alcotest.test_case "kernel rows = flow-by-flow law" `Quick test_kernel_rows_exact;
    QCheck_alcotest.to_alcotest prop_kernel_rows_exact;
    Alcotest.test_case "kernel draws chi-square" `Quick test_kernel_chi2;
    QCheck_alcotest.to_alcotest prop_kernel_chi2;
    Alcotest.test_case "sample quantile rejects NaN" `Quick test_sample_quantile_rejects_nan;
    QCheck_alcotest.to_alcotest prop_virtual_delays_brute;
  ]
