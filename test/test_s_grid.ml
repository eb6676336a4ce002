(* The certified prunings of the Eq.-38 searches.  The s-grid of
   Scenario: the one-evaluation floor E2e.delay_bound_floor must never
   exceed E2e.delay_bound, and the pruned scan must return exactly what
   an exhaustive scan of the same grids returns — value bits, Diag
   status and iteration counts, through the memoized EDF fixed point
   too.  The γ grid of E2e.delay_bound: the interval floor must never
   exceed an Eq.-38 evaluation inside its interval, and the pruned
   search must return the floorless search's bits. *)

module E2e = Deltanet.E2e
module Search = Deltanet.Search
module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Classes = Scheduler.Classes

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------------- the floor ---------------- *)

(* One floor query: a paper scenario at a violation probability, a
   scheduler and an s inside the stable range. *)
type case = { sc : Scenario.t; sched : Classes.two_class; s : float }

let path_of c = Scenario.path_at c.sc ~s:c.s ~delta:(Classes.delta_through_cross c.sched)

let print_case c =
  Fmt.str "H=%d n0=%h nc=%h eps=%g %a s=%h" c.sc.Scenario.h c.sc.Scenario.n_through
    c.sc.Scenario.n_cross c.sc.Scenario.epsilon Scheduler.Delta.pp (Classes.delta_through_cross c.sched) c.s

(* The property, parameterized by the floor under test so the test below
   can show it rejects a floor without the rounding margin. *)
let floor_sound floor c =
  let p = path_of c in
  let epsilon = c.sc.Scenario.epsilon in
  let f = floor ~epsilon p in
  (not (Float.is_nan f)) && f <= E2e.delay_bound ~epsilon p

(* The interval floor's evaluation without the (1 - 1e-9) margin,
   rebuilt from the public evaluator. *)
let unmargined_interval_floor bt ~epsilon ~a ~b =
  let sigma_a = E2e.Batch.sigma_for bt ~gamma:a ~epsilon
  and sigma_b = E2e.Batch.sigma_for bt ~gamma:b ~epsilon in
  if not (Float.is_finite sigma_a && Float.is_finite sigma_b) then Float.neg_infinity
  else begin
    E2e.Batch.set bt ~gamma:a ~sigma:sigma_b;
    E2e.Batch.delay bt
  end

(* The floor's evaluation without the (1 - 1e-9) margin: the unmargined
   interval floor over the bracket. *)
let unmargined_floor ~epsilon p =
  let gmax = E2e.gamma_max p in
  if gmax <= 0. then Float.infinity
  else begin
    let lo, hi = E2e.gamma_bracket gmax in
    (* the top of delay_bound's 40-point γ grid, which rounding can push
       past [hi] *)
    let ratio = (hi /. lo) ** (1. /. 39.) in
    let top = Float.max hi (Search.log_spaced ~lo ~ratio ~points:40).(39) in
    unmargined_interval_floor (E2e.Batch.make p) ~epsilon ~a:lo ~b:top
  end

let sched_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Classes.Bmux);
        (1, return Classes.Fifo);
        (1, return Classes.Sp_through_high);
        (2, map (fun g -> Classes.Edf_gap g) (float_range (-40.) 40.));
      ])

(* A paper scenario: H in 1..max_h with H = 1 drawn often, total
   utilization up to 97% split at random between through and cross
   traffic, and one of three violation probabilities. *)
let scenario_gen ~max_h =
  QCheck.Gen.(
    frequency [ (1, return 1); (4, int_range 2 max_h) ] >>= fun h ->
    pair (float_range 0.05 0.97) (float_range 0.05 1.) >>= fun (u, share) ->
    oneofl [ 1e-3; 1e-9; 1e-30 ] >>= fun epsilon ->
    return
      {
        (Scenario.of_utilization ~h ~u_through:(u *. share) ~u_cross:(u -. (u *. share)))
        with
        Scenario.epsilon;
      })

(* The s fraction is log-uniform over (1e-4, 0.999) of the stable
   maximum. *)
let case_arb =
  let gen =
    QCheck.Gen.(
      scenario_gen ~max_h:30 >>= fun sc ->
      sched_gen >>= fun sched ->
      float_range (log 1e-4) (log 0.999) >>= fun log_frac ->
      let s =
        match Scenario.s_stable_max sc with Some m -> m *. exp log_frac | None -> Float.nan
      in
      return { sc; sched; s })
  in
  QCheck.make ~print:print_case gen

let prop_floor_sound =
  QCheck.Test.make ~name:"delay_bound_floor <= delay_bound, exactly"
    ~count:(Qc.count 300 ~cap:20000) case_arb (fun c ->
      QCheck.assume (not (Float.is_nan c.s));
      if floor_sound E2e.delay_bound_floor c then true
      else
        let p = path_of c in
        let epsilon = c.sc.Scenario.epsilon in
        QCheck.Test.fail_reportf "floor %h above delay_bound %h"
          (E2e.delay_bound_floor ~epsilon p) (E2e.delay_bound ~epsilon p))

(* Cases where the margin-free evaluation lands above delay_bound, by
   5.5e-16 and 5.0e-16 relative: a few ulps of rounding between two
   Eq.-38 evaluations at different (γ, σ).  Found by a 40k-case search
   over [case_arb]'s distribution, which turned up five such cases.  The
   property must reject the unmargined floor on them and accept the
   shipped one. *)
let margin_witnesses =
  [
    {
      sc =
        Scenario.paper_defaults ~h:12 ~n_through:0x1.36f8230b646b4p+3
          ~n_cross:0x1.b8258ac55da27p+5;
      sched = Classes.Fifo;
      s = 0x1.c5fb620b0d899p+35;
    };
    {
      sc =
        {
          (Scenario.paper_defaults ~h:14 ~n_through:0x1.da9e999061766p+1
             ~n_cross:0x1.e882d1246430fp+5)
          with
          Scenario.epsilon = 1e-3;
        };
      sched = Classes.Fifo;
      s = 0x1.332ae827b61edp+31;
    };
  ]

let test_margin_is_needed () =
  List.iter
    (fun c ->
      let p = path_of c in
      let epsilon = c.sc.Scenario.epsilon in
      (* the rebuilt evaluation is the shipped floor before its margin *)
      Alcotest.(check bool)
        (print_case c ^ ": floor = unmargined *. (1 - 1e-9)")
        true
        (bit_eq (E2e.delay_bound_floor ~epsilon p)
           (unmargined_floor ~epsilon p *. (1. -. 1e-9)));
      Alcotest.(check bool)
        (print_case c ^ ": property rejects the unmargined floor")
        false
        (floor_sound unmargined_floor c);
      Alcotest.(check bool)
        (print_case c ^ ": property accepts the floor")
        true
        (floor_sound E2e.delay_bound_floor c))
    margin_witnesses

let test_floor_edges () =
  let p = Scenario.path_at (Scenario.of_utilization ~h:3 ~u_through:0.3 ~u_cross:0.3)
      ~s:1e-3 ~delta:(Classes.delta_through_cross Classes.Fifo) in
  (* an overloaded path: infinity, as delay_bound *)
  let over = { p with E2e.through = Envelope.Ebb.v ~m:1. ~rho:1000. ~alpha:1e-3 } in
  Alcotest.(check bool) "overloaded: infinity" true
    (Float.equal (E2e.delay_bound_floor ~epsilon:1e-9 over) Float.infinity
     && Float.equal (E2e.delay_bound ~epsilon:1e-9 over) Float.infinity);
  (* a NaN epsilon poisons sigma at both ends: certify nothing *)
  Alcotest.(check bool) "NaN sigma: neg_infinity" true
    (Float.equal (E2e.delay_bound_floor ~epsilon:Float.nan p) Float.neg_infinity);
  Alcotest.check_raises "epsilon out of range"
    (Invalid_argument "E2e.delay_bound_floor: epsilon out of range") (fun () ->
      ignore (E2e.delay_bound_floor ~epsilon:1. p))

(* ---------------- the interval floor and the pruned γ grid ---------------- *)

(* [delay_bound]'s search shape without the interval floor: the whole
   40-point grid evaluated, then 40 golden-section steps, through one
   batch — the search as it ran before the γ grid was pruned. *)
let unpruned_search ~points ~golden ~epsilon p =
  let gmax = E2e.gamma_max p in
  if gmax <= 0. then Float.infinity
  else begin
    let lo, hi = E2e.gamma_bracket gmax in
    let b = E2e.Batch.make p in
    (Search.minimize ~refine:(Search.Golden golden) ~points ~lo ~hi (fun gamma ->
         E2e.Batch.delay_at_gamma b ~gamma ~epsilon))
      .Search.value
  end

let unpruned_delay_bound ~epsilon p = unpruned_search ~points:40 ~golden:40 ~epsilon p

(* [delay_bound]'s 40-point γ grid over a path's bracket *)
let delay_grid p =
  let lo, hi = E2e.gamma_bracket (E2e.gamma_max p) in
  Search.log_spaced ~lo ~ratio:(Search.grid_ratio ~points:40 ~lo ~hi) ~points:40

(* One interval-floor query: a mixed-∆ path (H = 1..40), a violation
   probability, and grid indices i <= j. *)
let interval_arb =
  let gen =
    QCheck.Gen.(
      triple Test_e2e.long_path_gen (oneofl [ 1e-3; 1e-9; 1e-30 ])
        (pair (int_range 0 39) (int_range 0 39)))
  in
  let print (p, epsilon, (i, j)) =
    Fmt.str "eps=%g i=%d j=%d %s" epsilon i j (Test_e2e.print_path p)
  in
  QCheck.make ~print gen

(* The property, parameterized by the floor under test so that a
   mutated floor can be shown to fail it: the floor over [grid.(i),
   grid.(j)] is not NaN and is no larger than every non-NaN Eq.-38
   value at a grid γ in that interval — no tolerance. *)
let interval_floor_sound floor (p, epsilon, (i, j)) =
  let i, j = (Int.min i j, Int.max i j) in
  let grid = delay_grid p in
  let b = E2e.Batch.make p in
  let f = floor b ~epsilon ~a:grid.(i) ~b:grid.(j) in
  let ok = ref (not (Float.is_nan f)) in
  for k = i to j do
    let v = E2e.Batch.delay_at_gamma b ~gamma:grid.(k) ~epsilon in
    if not (Float.is_nan v || f <= v) then ok := false
  done;
  !ok

let prop_interval_floor_sound =
  QCheck.Test.make ~name:"interval_floor a b <= delay_at_gamma on every grid gamma in [a, b]"
    ~count:(Qc.count 300 ~cap:20000) interval_arb
    (interval_floor_sound E2e.Batch.interval_floor)

(* Intervals where the margin-free evaluation lands one ulp above an
   Eq.-38 value inside them (1.2e-16 and 1.6e-16 relative): one-hop EDF
   paths with a negative deadline gap.  Found by a search over 9000
   figures-shaped paths and every grid interval of each; the mixed-∆
   generator draws such a case too rarely for the property to meet one.
   The property must reject the unmargined floor on them and accept the
   shipped one. *)
let interval_witnesses =
  let edf_hop ~n_through ~n_cross ~gap ~s =
    Scenario.path_at (Scenario.paper_defaults ~h:1 ~n_through ~n_cross) ~s
      ~delta:(Classes.delta_through_cross (Classes.Edf_gap gap))
  in
  [
    ( edf_hop ~n_through:0x1.76751d9d91c74p+5 ~n_cross:0x1.c1d25c972bad8p+4
        ~gap:(-0x1.375715efbf87p+3) ~s:0x1.7bea81f095ec6p-3,
      1e-9,
      (0, 1) );
    ( edf_hop ~n_through:0x1.c994240bad37fp+5 ~n_cross:0x1.64f0c9650211ap+3
        ~gap:(-0x1.b2a13443f2b4p+0) ~s:0x1.6c79fdcfc229p+0,
      1e-9,
      (28, 29) );
  ]

let test_interval_margin_is_needed () =
  List.iteri
    (fun n ((p, epsilon, (i, j)) as c) ->
      let grid = delay_grid p in
      let shipped = E2e.Batch.interval_floor (E2e.Batch.make p) ~epsilon ~a:grid.(i) ~b:grid.(j)
      and bare =
        unmargined_interval_floor (E2e.Batch.make p) ~epsilon ~a:grid.(i) ~b:grid.(j)
      in
      Alcotest.(check bool)
        (Fmt.str "witness %d: floor = unmargined *. (1 - 1e-9)" n)
        true
        (bit_eq shipped (bare *. (1. -. 1e-9)));
      Alcotest.(check bool)
        (Fmt.str "witness %d: property rejects the unmargined floor" n)
        false
        (interval_floor_sound unmargined_interval_floor c);
      Alcotest.(check bool)
        (Fmt.str "witness %d: property accepts the floor" n)
        true
        (interval_floor_sound E2e.Batch.interval_floor c))
    interval_witnesses

(* Mixed-∆ paths, and figures-shaped ones, at three violation
   probabilities: [delay_bound] equals the floorless search bit for
   bit. *)
let prop_pruned_search_exact =
  let gen =
    QCheck.Gen.(
      triple
        (frequency
           [
             (1, map Option.some Test_e2e.long_path_gen);
             (1, map (Option.map fst) Test_e2e.figure_path_gen);
           ])
        (oneofl [ 1e-3; 1e-9; 1e-30 ])
        (oneofl [ 2; 8; 40 ]))
  in
  let print (p, epsilon, points) =
    Fmt.str "eps=%g points=%d %s" epsilon points
      (match p with None -> "unstable scenario" | Some p -> Test_e2e.print_path p)
  in
  QCheck.Test.make ~name:"pruned gamma search = floorless search, bitwise"
    ~count:(Qc.count 200 ~cap:4000) (QCheck.make ~print gen)
    (fun (p, epsilon, _) ->
      match p with
      | None -> QCheck.assume_fail ()
      | Some p ->
        let got = E2e.delay_bound ~epsilon p and want = unpruned_delay_bound ~epsilon p in
        if not (bit_eq got want) then
          QCheck.Test.fail_reportf "delay_bound %h, floorless %h" got want;
        true)

(* ε = NaN, an overloaded path, an all-infinite grid and a NaN at
   index 0, pruned and floorless alike. *)
let test_pruned_grid_edges () =
  let p =
    Scenario.path_at (Scenario.of_utilization ~h:3 ~u_through:0.3 ~u_cross:0.3) ~s:1e-3
      ~delta:(Classes.delta_through_cross Classes.Fifo)
  in
  let grid = delay_grid p in
  let b = E2e.Batch.make p in
  (* a NaN epsilon poisons sigma everywhere: no floor certifies anything,
     and index 0's NaN sticks through both searches *)
  Alcotest.(check bool) "NaN epsilon: interval floor neg_infinity" true
    (Float.equal
       (E2e.Batch.interval_floor b ~epsilon:Float.nan ~a:grid.(3) ~b:grid.(30))
       Float.neg_infinity);
  Alcotest.(check bool) "NaN epsilon: both searches NaN" true
    (Float.is_nan (E2e.delay_bound ~epsilon:Float.nan p)
     && Float.is_nan (unpruned_delay_bound ~epsilon:Float.nan p));
  (* overloaded: the search never runs; the through rate enters Eq. 38
     only through the bracket, so an interval floor still bounds the
     evaluations at both ends, the upper one infinite (the margins are
     gone) *)
  let over = { p with E2e.through = Envelope.Ebb.v ~m:1. ~rho:1000. ~alpha:1e-3 } in
  Alcotest.(check bool) "overloaded: both searches infinity" true
    (Float.equal (E2e.delay_bound ~epsilon:1e-9 over) Float.infinity
     && Float.equal (unpruned_delay_bound ~epsilon:1e-9 over) Float.infinity);
  let bo = E2e.Batch.make over in
  let fl = E2e.Batch.interval_floor bo ~epsilon:1e-9 ~a:40. ~b:80. in
  let va = E2e.Batch.delay_at_gamma bo ~gamma:40. ~epsilon:1e-9
  and vb = E2e.Batch.delay_at_gamma bo ~gamma:80. ~epsilon:1e-9 in
  Alcotest.(check bool)
    (Fmt.str "overloaded: floor %h <= %h and <= %h = infinity" fl va vb)
    true
    (Float.is_finite fl && fl <= va && Float.equal vb Float.infinity);
  (* scripted grids: the floor claims infinity everywhere, so every
     block is skipped whenever the running minimum is finite *)
  let points = 9 and lo = 1e-3 and hi = 10. in
  let ratio = Search.grid_ratio ~points ~lo ~hi in
  let sgrid = Search.log_spaced ~lo ~ratio ~points in
  let search ~golden vals =
    let calls = ref [] in
    let f g =
      calls := g :: !calls;
      let k = ref (-1) in
      Array.iteri (fun i x -> if bit_eq x g then k := i) sgrid;
      if !k >= 0 then vals.(!k) else 7.
    in
    let refine = if golden = 0 then None else Some (Search.Golden golden) in
    let r =
      Search.minimize ~floor:(Search.Interval (fun _ _ -> Float.infinity)) ?refine ~points
        ~lo ~hi f
    in
    (r.Search.value, List.rev !calls)
  in
  let all_inf = Array.make points Float.infinity in
  let (v, calls) = search ~golden:5 all_inf in
  Alcotest.(check bool) "all-infinite grid: infinity, then the golden probe" true
    (Float.equal v 7.);
  (* the golden bracket is centred on index 0, the first of the ties *)
  List.iter
    (fun g ->
      if (not (Array.exists (bit_eq g) sgrid)) && g > sgrid.(1) then
        Alcotest.failf "all-infinite grid: golden probe %h outside [lo, grid.(1)]" g)
    calls;
  let (v, _) = search ~golden:0 all_inf in
  Alcotest.(check bool) "all-infinite grid, no golden: infinity" true
    (Float.equal v Float.infinity);
  let nan0 = Array.init points (fun i -> if i = 0 then Float.nan else 1.) in
  List.iter
    (fun golden ->
      let (v, calls) = search ~golden nan0 in
      Alcotest.(check bool) (Fmt.str "NaN at index 0 sticks (golden %d)" golden) true
        (Float.is_nan v);
      if golden = 0 then
        Alcotest.(check int) "NaN at index 0: the ends only, the rest skipped" 2
          (List.length calls))
    [ 0; 5 ]

(* ---------------- the scan vs an exhaustive oracle ---------------- *)

(* The exhaustive s-scan, rebuilt from the public pieces: every grid point
   evaluated in index order, the same first-strict-minimum fold, the same
   12-point refinement and status rule.  Each point runs the floorless γ
   search, so neither pruning is in the oracle. *)
let exhaustive ~s_points t f =
  match Scenario.s_stable_max t with
  | None -> (Float.infinity, Diag.Unstable, 0)
  | Some s_max ->
    let lo = s_max *. 1e-4 and hi = s_max *. 0.999 in
    let ratio = (hi /. lo) ** (1. /. float_of_int (s_points - 1)) in
    let grid = Search.log_spaced ~lo ~ratio ~points:s_points in
    let vals = Array.map f grid in
    let bi = ref 0 in
    for i = 1 to s_points - 1 do
      if vals.(i) < vals.(!bi) then bi := i
    done;
    let center = grid.(!bi) in
    let a = Float.max lo (center /. ratio) and b = Float.min hi (center *. ratio) in
    let rr = (b /. a) ** (1. /. 11.) in
    let rvals = Array.map f (Search.log_spaced ~lo:a ~ratio:rr ~points:12) in
    let best = Array.fold_left (fun m v -> if v < m then v else m) vals.(!bi) rvals in
    let nan_seen = Array.exists Float.is_nan vals || Array.exists Float.is_nan rvals in
    let status =
      if nan_seen || Float.is_nan best then Diag.Non_finite
      else if Float.is_finite best then Diag.Converged
      else Diag.Unstable
    in
    (best, status, s_points + 12)

let exhaustive_delay ~s_points ~scheduler (t : Scenario.t) =
  let delta = Classes.delta_through_cross scheduler in
  exhaustive ~s_points t (fun s ->
      unpruned_delay_bound ~epsilon:t.Scenario.epsilon (Scenario.path_at t ~s ~delta))

(* Scenario.delay_bound_edf_checked's fixed point over the exhaustive
   scan, with no memo: every step runs the scan.  (bound, status,
   iterations, tolerance). *)
let exhaustive_edf ~s_points ~max_iter ~ratio (t : Scenario.t) =
  let hf = float_of_int t.Scenario.h in
  let value sched =
    let (v, _, _) = exhaustive_delay ~s_points ~scheduler:sched t in
    v
  in
  let seed = value Classes.Fifo in
  if Float.is_nan seed then (Float.nan, Diag.Non_finite, 0, 0.)
  else if not (Float.is_finite seed) then (Float.infinity, Diag.Unstable, 0, 0.)
  else
    let rel d d' = if d' > 0. then Float.abs (d' -. d) /. d' else 0. in
    let rec go d n last =
      if n >= max_iter then (d, Diag.Diverged, n, last)
      else
        let d' = value (Classes.Edf_gap (d /. hf *. (1. -. ratio))) in
        if Float.is_nan d' then (d', Diag.Non_finite, n + 1, Float.infinity)
        else if not (Float.is_finite d') then (d', Diag.Unstable, n + 1, Float.infinity)
        else if Float.abs (d' -. d) <= 1e-6 *. d' then (d', Diag.Converged, n + 1, rel d d')
        else go d' (n + 1) (rel d d')
    in
    go seed 0 Float.infinity

let check_delay ~what ~s_points ~scheduler t =
  let (v, status, iterations) = exhaustive_delay ~s_points ~scheduler t in
  let o = Scenario.delay_bound_checked ~s_points ~scheduler t in
  if not (bit_eq o.Diag.value v) then
    Alcotest.failf "%s: pruned %h, exhaustive %h" what o.Diag.value v;
  if o.Diag.diag.Diag.status <> status then
    Alcotest.failf "%s: status %s, exhaustive %s" what
      (Diag.status_to_string o.Diag.diag.Diag.status)
      (Diag.status_to_string status);
  if o.Diag.diag.Diag.iterations <> iterations then
    Alcotest.failf "%s: iterations %d, exhaustive %d" what o.Diag.diag.Diag.iterations
      iterations

let check_edf ~what ~s_points ?(max_iter = 60) ~ratio t =
  let (v, status, iterations, tolerance) = exhaustive_edf ~s_points ~max_iter ~ratio t in
  let o =
    Scenario.delay_bound_edf_checked ~s_points ~max_iter
      ~spec:{ Scenario.cross_over_through = ratio } t
  in
  let r = o.Diag.value in
  if not (bit_eq r.Scenario.bound v) then
    Alcotest.failf "%s: EDF pruned %h, exhaustive %h" what r.Scenario.bound v;
  if o.Diag.diag.Diag.status <> status then
    Alcotest.failf "%s: EDF status %s, exhaustive %s" what
      (Diag.status_to_string o.Diag.diag.Diag.status)
      (Diag.status_to_string status);
  if o.Diag.diag.Diag.iterations <> iterations || r.Scenario.iterations <> iterations then
    Alcotest.failf "%s: EDF iterations %d/%d, exhaustive %d" what
      o.Diag.diag.Diag.iterations r.Scenario.iterations iterations;
  if not (bit_eq o.Diag.diag.Diag.tolerance tolerance) then
    Alcotest.failf "%s: EDF tolerance %h, exhaustive %h" what o.Diag.diag.Diag.tolerance
      tolerance;
  o

(* A scenario, a two-class scheduler for the delay scan, one of the
   paper's EDF deadline ratios for the fixed point, and an s-grid size. *)
let scan_arb ~max_h =
  let gen =
    QCheck.Gen.(
      quad (scenario_gen ~max_h) sched_gen
        (oneofl [ 0.5; 2.; 10. ])
        (oneofl [ 2; 3; 16; 32 ]))
  in
  let print (sc, sched, ratio, s_points) =
    Fmt.str "%s ratio=%g s_points=%d"
      (print_case { sc; sched; s = Float.nan })
      ratio s_points
  in
  QCheck.make ~print gen

let prop_delay_matches_exhaustive =
  QCheck.Test.make ~name:"delay_bound_checked = exhaustive s-scan, bitwise"
    ~count:(Qc.count 100 ~cap:400) (scan_arb ~max_h:30)
    (fun (sc, scheduler, _, s_points) ->
      check_delay ~what:"delay" ~s_points ~scheduler sc;
      true)

let prop_edf_matches_exhaustive =
  QCheck.Test.make ~name:"delay_bound_edf_checked = exhaustive fixed point, bitwise"
    ~count:(Qc.count 20 ~cap:100) (scan_arb ~max_h:10)
    (fun (sc, _, ratio, s_points) ->
      ignore (check_edf ~what:"edf" ~s_points ~max_iter:12 ~ratio sc);
      true)

(* U -> 1, no stable s, a tiny epsilon, a NaN epsilon (Non_finite through
   the scan), and max_iter caps that stop the fixed point early. *)
let test_scan_edges () =
  let with_eps epsilon t = { t with Scenario.epsilon } in
  let near_one = Scenario.of_utilization ~h:5 ~u_through:0.4999 ~u_cross:0.4999 in
  let overloaded = Scenario.paper_defaults ~h:4 ~n_through:5000. ~n_cross:100. in
  let tiny = with_eps 1e-300 (Scenario.of_utilization ~h:6 ~u_through:0.2 ~u_cross:0.3) in
  let poisoned =
    with_eps Float.nan (Scenario.of_utilization ~h:3 ~u_through:0.2 ~u_cross:0.3)
  in
  let scenarios =
    [
      ("U->1", near_one);
      ("unstable", overloaded);
      ("eps=1e-300", tiny);
      ("eps=nan", poisoned);
    ]
  in
  List.iter
    (fun (name, t) ->
      List.iter
        (fun s_points ->
          List.iter
            (fun scheduler ->
              check_delay
                ~what:
                  (Fmt.str "%s s_points=%d %a" name s_points Scheduler.Delta.pp (Classes.delta_through_cross scheduler))
                ~s_points ~scheduler t)
            [ Classes.Bmux; Classes.Fifo; Classes.Sp_through_high; Classes.Edf_gap (-3.) ])
        [ 2; 3; 16; 32 ])
    scenarios;
  let status t =
    let o = Scenario.delay_bound_checked ~s_points:Scenario.s_points ~scheduler:Classes.Fifo t in
    o.Diag.diag.Diag.status
  in
  Alcotest.(check string) "unstable stays Unstable" "unstable"
    (Diag.status_to_string (status overloaded));
  Alcotest.(check string) "NaN stays Non_finite" "non-finite"
    (Diag.status_to_string (status poisoned));
  List.iter
    (fun (name, t, max_iter) ->
      ignore
        (check_edf ~what:(Fmt.str "%s max_iter=%d" name max_iter) ~s_points:Scenario.s_points ~max_iter
           ~ratio:10. t))
    [ ("U->1", near_one, 3); ("unstable", overloaded, 60); ("eps=nan", poisoned, 60) ]

(* The Fig. 2 cell H = 10, U = 50%, EDF ratio 10 at the figures'
   s-grid ([Scenario.s_points] = 16) sits in an exact 2-cycle: it stops Diverged at
   max_iter = 60 after three distinct iterates, so the memo answers the
   other 57 steps.  The outcome is the memo-free, prune-free oracle's,
   bit for bit. *)
let test_two_cycle_cell () =
  let sc = Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.35 in
  let hits = Telemetry.Counter.make "scenario.edf.memo_hits" in
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let h0 = Telemetry.Counter.value hits in
      let o =
        check_edf ~what:"fig2 H=10 U=50% ratio 10" ~s_points:Scenario.s_points ~max_iter:60 ~ratio:10. sc
      in
      Alcotest.(check string) "Diverged" "diverged"
        (Diag.status_to_string o.Diag.diag.Diag.status);
      Alcotest.(check int) "60 iterations" 60 o.Diag.diag.Diag.iterations;
      Alcotest.(check int) "memo hits" 57 (Telemetry.Counter.value hits - h0))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_floor_sound;
    Alcotest.test_case "the margin is needed" `Quick test_margin_is_needed;
    Alcotest.test_case "floor edge inputs" `Quick test_floor_edges;
    QCheck_alcotest.to_alcotest prop_delay_matches_exhaustive;
    QCheck_alcotest.to_alcotest prop_edf_matches_exhaustive;
    Alcotest.test_case "scan edge inputs" `Quick test_scan_edges;
    QCheck_alcotest.to_alcotest prop_interval_floor_sound;
    Alcotest.test_case "the interval floor's margin is needed" `Quick
      test_interval_margin_is_needed;
    QCheck_alcotest.to_alcotest prop_pruned_search_exact;
    Alcotest.test_case "pruned gamma grid edge inputs" `Quick test_pruned_grid_edges;
    Alcotest.test_case "the 2-cycle EDF cell" `Quick test_two_cycle_cell;
  ]
