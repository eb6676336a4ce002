(* The paper's numerical setup and the outer optimizations over s and gamma. *)

type t = {
  capacity : float;
  source : Envelope.Mmpp.t;
  n_through : float;
  n_cross : float;
  h : int;
  epsilon : float;
}

let paper_defaults ~h ~n_through ~n_cross =
  if h < 1 then invalid_arg "Scenario.paper_defaults: path length h must be >= 1";
  let check_count ~what n =
    if not (Float.is_finite n) || n < 0. then
      invalid_arg (Printf.sprintf "Scenario.paper_defaults: %s flow count %g must be finite and >= 0" what n)
  in
  check_count ~what:"through" n_through;
  check_count ~what:"cross" n_cross;
  {
    capacity = 100.;
    source = Envelope.Mmpp.paper_source;
    n_through;
    n_cross;
    h;
    epsilon = 1e-9;
  }

let of_utilization ~h ~u_through ~u_cross =
  let check_u ~what u =
    if Float.is_nan u || u < 0. || u >= 1. then
      invalid_arg
        (Printf.sprintf "Scenario.of_utilization: %s utilization %g must be in [0, 1)" what u)
  in
  check_u ~what:"through" u_through;
  check_u ~what:"cross" u_cross;
  if u_through +. u_cross >= 1. then
    invalid_arg
      (Printf.sprintf
         "Scenario.of_utilization: total utilization %g >= 1 — the path is unstable and \
          admits no finite bound"
         (u_through +. u_cross));
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  paper_defaults ~h
    ~n_through:(u_through *. 100. /. mean)
    ~n_cross:(u_cross *. 100. /. mean)

let of_loads ~h ~u_through ~u_cross =
  if h < 1 || Float.is_nan u_through || Float.is_nan u_cross || u_through < 0. || u_cross < 0.
  then
    Error
      (`Invalid
        (Printf.sprintf
           "invalid arguments: need H >= 1 and utilizations >= 0 (got H=%d, u0=%g, uc=%g)" h
           u_through u_cross))
  else if u_through >= 1. || u_cross >= 1. || u_through +. u_cross >= 1. then
    Error
      (`Unstable
        (Printf.sprintf
           "unstable scenario: total utilization %g >= 1 — the path admits no finite bound"
           (u_through +. u_cross)))
  else Ok (of_utilization ~h ~u_through ~u_cross)

let path_at t ~s ~delta =
  let through = Envelope.Mmpp.ebb t.source ~n:t.n_through ~s in
  let cross = Envelope.Mmpp.ebb t.source ~n:t.n_cross ~s in
  E2e.homogeneous ~h:t.h ~capacity:t.capacity ~cross ~delta ~through

(* Total effective bandwidth at [s], plus head room for gamma, below
   capacity: the path is stable at [s].  eb is increasing in s. *)
let stable_at t s =
  let eb = Envelope.Mmpp.effective_bandwidth t.source ~s in
  ((t.n_through +. t.n_cross) *. eb) < t.capacity *. 0.9999

let has_stable_s t = stable_at t 1e-6

let s_doubling t =
  if not (has_stable_s t) then None
  else begin
    let rec grow hi tries =
      if tries = 0 then hi else if stable_at t hi then grow (2. *. hi) (tries - 1) else hi
    in
    Some (grow 1e-6 60)
  end

(* Largest s keeping the path stable: bisect below the doubling bound *)
let s_stable_max t =
  Option.map
    (fun hi ->
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = sqrt (lo *. hi) in
          if stable_at t mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      bisect 1e-6 hi 60)
    (s_doubling t)

let s_bracket s_max = (s_max *. 1e-4, s_max *. 0.999)

let c_s_evals = Telemetry.Counter.make "scenario.s_grid.evals"
let c_s_pruned = Telemetry.Counter.make "scenario.s_grid.pruned"
let c_edf_iters = Telemetry.Counter.make "scenario.edf.iterations"
let c_edf_memo_hits = Telemetry.Counter.make "scenario.edf.memo_hits"

(* The points of the s-grid, the one resolution every bound defaults to *)
let s_points = 16

(* The points of the refinement around the s-grid's argmin *)
let refine_points = 12

(* Minimize [exact s] over the stable range of the effective-bandwidth
   parameter, [(0, s_max)] as [s_stable_max] gives it: a log grid, then
   a 12-point log grid one grid ratio either side of its first-index
   argmin, each pruned by [floor] when given.  Returns the minimum with
   a typed diagnostic: [Unstable] when no stable [s] exists (or every
   grid point is infeasible in gamma), [Non_finite] when a NaN leaks
   out of the inner optimization.  [iterations] counts the grid points
   (evaluated or pruned), so it does not depend on the pruning; the
   [scenario.s_grid.evals] / [.pruned] counters split it. *)
let minimize_below ?floor ~s_points ~s_max t exact =
  Telemetry.span "scenario.s_grid"
    ~attrs:[ ("h", Telemetry.Int t.h); ("s_points", Telemetry.Int s_points) ]
  @@ fun () ->
  match s_max with
  | None -> Diag.outcome Diag.Unstable Float.infinity
  | Some s_max ->
    let lo, hi = s_bracket s_max in
    let r =
      Search.minimize ?floor ~refine:(Search.Grid refine_points) ~points:s_points ~lo ~hi exact
    in
    let points = s_points + refine_points in
    let status =
      if r.Search.nan then Diag.Non_finite
      else if Float.is_finite r.Search.value then Diag.Converged
      else Diag.Unstable
    in
    Telemetry.Counter.add c_s_evals r.Search.evals;
    Telemetry.Counter.add c_s_pruned (points - r.Search.evals);
    Telemetry.event "scenario.s_grid.result"
      ~attrs:
        [
          ("evals", Telemetry.Int r.Search.evals);
          ("pruned", Telemetry.Int (points - r.Search.evals));
          ("status", Telemetry.Str (Diag.status_to_string status));
          ("best", Telemetry.Float r.Search.value);
        ];
    Diag.outcome ~iterations:points status r.Search.value

(* The delay s-grid below [s_max].  Every floor and every γ search runs
   through one batch, compiled for the first path and retargeted to
   each later one, so the grid allocates one batch and each search
   starts from the last one's argmin. *)
let delay_bound_below ~s_points ~s_max ~scheduler t =
  let delta = Scheduler.Classes.delta_through_cross scheduler in
  let batch = ref None in
  let at s =
    let p = path_at t ~s ~delta in
    match !batch with
    | Some b ->
      E2e.Batch.retarget b p;
      b
    | None ->
      let b = E2e.Batch.make p in
      batch := Some b;
      b
  in
  minimize_below ~s_points ~s_max t
    ~floor:(Search.Point (fun s -> E2e.Batch.delay_bound_floor (at s) ~epsilon:t.epsilon))
    (fun s -> E2e.Batch.delay_bound (at s) ~epsilon:t.epsilon)

let delay_bound_checked ?(s_points = s_points) ~scheduler t =
  delay_bound_below ~s_points ~s_max:(s_stable_max t) ~scheduler t

let backlog_bound_checked ?(s_points = s_points) ~scheduler t =
  let delta = Scheduler.Classes.delta_through_cross scheduler in
  minimize_below ~s_points ~s_max:(s_stable_max t) t (fun s ->
      E2e.backlog_bound ~epsilon:t.epsilon (path_at t ~s ~delta))

let delay_bound ?s_points ~scheduler t =
  (delay_bound_checked ?s_points ~scheduler t).Diag.value

type edf_spec = { cross_over_through : float }

type edf_result = {
  bound : float;
  d_through : float;
  d_cross : float;
  iterations : int;
}

let edf_tolerance = 1e-6

let delay_bound_edf_checked ?(s_points = s_points) ?(max_iter = 60) ~spec t =
  if spec.cross_over_through <= 0. || Float.is_nan spec.cross_over_through then
    invalid_arg "Scenario.delay_bound_edf_checked: non-positive deadline ratio";
  Telemetry.span "scenario.edf_fixed_point"
    ~attrs:
      [ ("h", Telemetry.Int t.h); ("ratio", Telemetry.Float spec.cross_over_through) ]
  @@ fun () ->
  let hf = float_of_int t.h in
  let result bound iterations =
    let d_through = bound /. hf in
    { bound; d_through; d_cross = spec.cross_over_through *. d_through; iterations }
  in
  (* one stability bisection for the seed and every iterate: the EDF
     gap does not move [s_stable_max] *)
  let s_max = s_stable_max t in
  let search ~scheduler = (delay_bound_below ~s_points ~s_max ~scheduler t).Diag.value in
  let bound_for d =
    search ~scheduler:(Scheduler.Kind.edf_gap ~d_through:(d /. hf) ~ratio:spec.cross_over_through)
  in
  let seed = search ~scheduler:Scheduler.Classes.Fifo in
  if Float.is_nan seed then
    Diag.outcome Diag.Non_finite
      { bound = Float.nan; d_through = Float.nan; d_cross = Float.nan; iterations = 0 }
  else if not (Float.is_finite seed) then
    (* no stable operating point even under FIFO: the fixed point has no
       finite seed and the scenario is unstable, not merely slow to settle *)
    Diag.outcome Diag.Unstable
      { bound = Float.infinity; d_through = Float.infinity; d_cross = Float.infinity; iterations = 0 }
  else begin
    let rel d d' = if d' > 0. then Float.abs (d' -. d) /. d' else 0. in
    (* F(d) = bound_for d is pure, so an iterate seen before
       repeats its answer: the memo holds every (d, F d) pair computed
       here, keyed by the bits of d, at most one per loop step.  A cell
       in an exact cycle (a 2-cycle until max_iter, say) then costs one
       evaluation per distinct iterate, not one per step; [iterations],
       the [scenario.edf.iter] events and the [scenario.edf.iterations]
       counter still count steps.  ROADMAP item 1's fixed-point solver
       replaces plain iteration, and this memo goes with it. *)
    let memo_d = Array.make (Int.max 0 max_iter) 0L
    and memo_f = Array.make (Int.max 0 max_iter) 0.
    and memo_n = ref 0 in
    let f d =
      let key = Int64.bits_of_float d in
      let i = ref 0 in
      while !i < !memo_n && not (Int64.equal memo_d.(!i) key) do
        incr i
      done;
      if !i < !memo_n then begin
        if !Telemetry.on then Telemetry.Counter.incr c_edf_memo_hits;
        memo_f.(!i)
      end
      else begin
        let v = bound_for d in
        memo_d.(!memo_n) <- key;
        memo_f.(!memo_n) <- v;
        incr memo_n;
        v
      end
    in
    (* (value, iterations, status, final relative change); [last] is the
       relative change of the latest iteration, what a Diverged outcome
       reports *)
    let rec iterate d n last =
      if n >= max_iter then (d, n, Diag.Diverged, last)
      else
        let d' = f d in
        if !Telemetry.on then Telemetry.Counter.incr c_edf_iters;
        Telemetry.event "scenario.edf.iter"
          ~attrs:[ ("n", Telemetry.Int (n + 1)); ("bound", Telemetry.Float d') ];
        if Float.is_nan d' then (d', n + 1, Diag.Non_finite, Float.infinity)
        else if not (Float.is_finite d') then (d', n + 1, Diag.Unstable, Float.infinity)
        else if Float.abs (d' -. d) <= edf_tolerance *. d' then
          (d', n + 1, Diag.Converged, rel d d')
        else iterate d' (n + 1) (rel d d')
    in
    let (bound, iterations, status, tolerance) = iterate seed 0 Float.infinity in
    Diag.outcome ~iterations ~tolerance status (result bound iterations)
  end

type metric = Delay | Backlog

let bound_checked ?s_points ?(metric = Delay) ~scheduler t =
  match ((scheduler : Scheduler.Kind.t), metric) with
  | Edf { cross_over_through }, Delay ->
    let o = delay_bound_edf_checked ?s_points ~spec:{ cross_over_through } t in
    { Diag.value = o.Diag.value.bound; diag = o.Diag.diag }
  | Edf _, Backlog ->
    (* the backlog bound reads ∆ only through ∆ = -∞ (E2e.backlog_bound),
       so every EDF gap gives FIFO's bound: no fixed point to solve *)
    backlog_bound_checked ?s_points ~scheduler:Scheduler.Classes.Fifo t
  | (Fifo | Bmux | Sp), _ ->
    let bound = match metric with Delay -> delay_bound_checked | Backlog -> backlog_bound_checked in
    bound ?s_points ~scheduler:(Scheduler.Kind.two_class ~d_through:Float.nan scheduler) t
    (* no deadline to anchor *)
