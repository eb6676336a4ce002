(* Section IV: stochastic end-to-end delay bounds for ∆-schedulers. *)

module Exp = Envelope.Exponential

let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
let c_gamma_evals = Telemetry.Counter.make "e2e.gamma.evals"

(* interval floors the pruned γ grid takes in place of evaluations *)
let c_gamma_floors = Telemetry.Counter.make "e2e.gamma.floors"

(* (candidate, node) pairs the Eq.-38 folds actually evaluate: below
   objective_evals x H by the candidates the slope sweep rules out *)
let c_node_steps = Telemetry.Counter.make "e2e.eq38.node_steps"

type node = {
  capacity : float;
  cross_rho : float;
  cross_m : float;
  delta : Scheduler.Delta.t;
}

type path = { nodes : node array; through : Envelope.Ebb.t }

let homogeneous ~h ~capacity ~cross ~delta ~through =
  if h <= 0 then invalid_arg "E2e.homogeneous: non-positive path length";
  if Float.abs (cross.Envelope.Ebb.alpha -. through.Envelope.Ebb.alpha)
     > 1e-12 *. through.Envelope.Ebb.alpha
  then invalid_arg "E2e.homogeneous: through and cross must share the EBB decay";
  {
    nodes =
      Array.make h
        { capacity; cross_rho = cross.Envelope.Ebb.rho; cross_m = cross.Envelope.Ebb.m; delta };
    through;
  }

let hop_count p = Array.length p.nodes

let gamma_max p =
  let rho = p.through.Envelope.Ebb.rho in
  let h = float_of_int (hop_count p) in
  Array.fold_left
    (fun acc nd ->
      let margin =
        match nd.delta with
        | Scheduler.Delta.Neg_inf -> (nd.capacity -. rho) /. (h +. 1.)
        | _ -> (nd.capacity -. nd.cross_rho -. rho) /. (h +. 1.)
      in
      Float.min acc margin)
    Float.infinity p.nodes

(* --------------------------------------------------------------- *)
(* Bounding function (Eq. 31 / 34, generalized to per-node constants) *)

let stochastic_nodes p =
  Array.to_list p.nodes
  |> List.filter (fun nd -> not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Neg_inf))

let total_bound p ~gamma =
  if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
  let alpha = p.through.Envelope.Ebb.alpha in
  (* Statistical sample-path envelope of the through traffic (union bound). *)
  let eps_g = Exp.geometric_sum (Envelope.Ebb.bounding p.through) ~gamma in
  (* Per-node service-curve bounds (Eq. 29); in the network convolution
     every node except the last stochastic one incurs a second union bound
     over time (the inner sum of Eq. 31). *)
  let stoch = stochastic_nodes p in
  let n = List.length stoch in
  let node_terms =
    List.mapi
      (fun i nd ->
        let eps_h = Exp.geometric_sum (Exp.v ~m:nd.cross_m ~a:alpha) ~gamma in
        if i < n - 1 then Exp.geometric_sum eps_h ~gamma else eps_h)
      stoch
  in
  Exp.combine (eps_g :: node_terms)

let sigma_for p ~gamma ~epsilon = Exp.invert (total_bound p ~gamma) ~epsilon

(* --------------------------------------------------------------- *)
(* The optimization problem of Eq. (38)                              *)

(* Smallest feasible theta for the (0-indexed) node [h], given X = x:
   (C -. h*gamma) (x +. theta) -. (rho_c +. gamma) (x +. min(delta,theta))_+
   >= sigma. *)
let theta_of_x p ~gamma ~sigma ~x h =
  let nd = p.nodes.(h) in
  let c_h = nd.capacity -. (float_of_int h *. gamma) in
  if c_h <= 0. then Float.infinity
  else
    match nd.delta with
    | Scheduler.Delta.Neg_inf ->
      (* cross traffic never precedes the through flow *)
      Float.max 0. ((sigma /. c_h) -. x)
    | Scheduler.Delta.Pos_inf ->
      let margin = c_h -. nd.cross_rho -. gamma in
      if margin <= 0. then Float.infinity else Float.max 0. ((sigma /. margin) -. x)
    | Scheduler.Delta.Fin d when d >= 0. ->
      let margin = c_h -. nd.cross_rho -. gamma in
      if margin *. x >= sigma then 0.
      else if margin > 0. && (sigma /. margin) -. x <= d then (sigma /. margin) -. x
      else
        (* beyond theta = d the constraint grows at the full rate c_h *)
        let theta2 = ((sigma +. ((nd.cross_rho +. gamma) *. (x +. d))) /. c_h) -. x in
        Float.max theta2 d
    | Scheduler.Delta.Fin d ->
      (* d < 0: min(delta, theta) = d for all theta >= 0 *)
      let cross_part = (nd.cross_rho +. gamma) *. Float.max 0. (x +. d) in
      Float.max 0. (((sigma +. cross_part) /. c_h) -. x)

(* No per-call telemetry here: at ~10^7 calls per figure sweep even a
   guarded counter increment is measurable.  Callers that iterate over
   candidate sets account for their evaluations in one [Counter.add]. *)
let objective p ~gamma ~sigma x =
  let acc = ref x in
  for h = 0 to hop_count p - 1 do
    acc := !acc +. theta_of_x p ~gamma ~sigma ~x h
  done;
  !acc

(* Kink abscissae of X -> theta_h(X), per node. *)
let x_candidates p ~gamma ~sigma =
  let cands = ref [ 0. ] in
  let push x = if Float.is_finite x && x >= 0. then cands := x :: !cands in
  Array.iteri
    (fun h nd ->
      let c_h = nd.capacity -. (float_of_int h *. gamma) in
      if c_h > 0. then begin
        let margin = c_h -. nd.cross_rho -. gamma in
        match nd.delta with
        | Scheduler.Delta.Neg_inf -> push (sigma /. c_h)
        | Scheduler.Delta.Pos_inf -> if margin > 0. then push (sigma /. margin)
        | Scheduler.Delta.Fin d when d >= 0. ->
          if margin > 0. then begin
            push (sigma /. margin);
            push ((sigma /. margin) -. d)
          end
        | Scheduler.Delta.Fin d ->
          push (-.d);
          push (sigma /. c_h);
          (* the root where theta_h reaches 0 (margin > 0) or, on an
             overloaded node, leaves it *)
          if margin > 0. || margin < 0. then
            push ((sigma +. ((nd.cross_rho +. gamma) *. d)) /. margin)
      end)
    p.nodes;
  List.sort_uniq Float.compare !cands

(* The rounding allowance of every certified floor: the floors compare
   two Eq.-38 evaluations at different (γ, σ), a few ulps apart at
   worst, so each is scaled down by this factor (DESIGN.md, "Certified
   s-grid"). *)
let floor_margin = 1. -. 1e-9

(* The γ range every search over this path probes: (0, gamma_max) pulled
   in at both ends, since sigma diverges as γ -> 0 and the node margins
   vanish as γ -> gamma_max.  One definition for every search, so the
   bracket [delay_bound_floor] certifies is the one [delay_bound]
   probes. *)
let gamma_bracket gmax = (gmax *. 1e-6, gmax *. 0.999)

(* The γ search's shape, (grid points, golden-section steps).
   [delay_points] is the grid [delay_bound_floor] certifies, so it is
   not a knob. *)
let delay_points = 40
let delay_golden = 40

(* --------------------------------------------------------------- *)
(* The compiled Eq.-38 evaluator                                     *)

(* Bit-exact local forms of the [Stdlib.Float] comparisons used in the
   Eq.-38 hot loops.  Without flambda, [Float.max]/[Float.min] probe
   [Float.sign_bit] — an external C call — whenever the fast [>]
   comparison fails (i.e. on every clamp-to-zero branch), and
   [Float.is_finite]/[Float.compare] are cross-module calls that box
   both floats.  Those costs land on the innermost expression of the
   objective fold, once per (candidate, node) pair.  The forms below
   compile to straight-line float compares; the sign-bit subtlety they
   handle is the (-0., +0.) pair, resolved by [is_neg_zero].

   - [fmax0 d]     = [Float.max 0. d]   for every float [d];
   - [fmax_nz x y] = [Float.max x y]    when [y] is non-NaN (the ∆
     values: [Delta.fin] rejects NaN);
   - [fmin1 x y]   = [Float.min x y]    when at most one operand is NaN;
     when both are, both return a NaN, maybe with other payload bits
     (a NaN objective arises from a NaN sigma, which filters every
     candidate but 0., or from an infinite cross rate);
   The candidate set ranks -0. and +0. equal, as [List.sort_uniq
   Float.compare] does, and keeps +0.  The two differ only when sigma
   = -0. (which [delay_given]'s [sigma < 0.] guard admits): sigma /.
   c_h = -0. passes the [x >= 0.] push filter.  The objective at either
   zero is the same float (each theta clamps through [fmax0] or a [>=]
   test that cannot tell them apart, and -0. +. +0. = +0.), so the
   minimum and the argmin — [optimal_thetas] seeds X with +0. and
   moves only on a strict < — are the reference's whichever zero it
   keeps.  The QCheck suite draws sigma = -0. to pin this. *)
let[@inline] is_neg_zero (x : float) = x = 0. && 1. /. x < 0.
[@@lint.allow "float-equal"]
let[@inline] fmax0 (d : float) = if d > 0. then d else if Float.is_nan d then d else 0.

let[@inline] fmax_nz (x : float) (y : float) =
  if Float.is_nan x then x
  else if y > x then y
  else if is_neg_zero x && not (is_neg_zero y) then y
  else x

let[@inline] fmin1 (x : float) (y : float) =
  if Float.is_nan x then x
  else if Float.is_nan y then y
  else if y > x then x
  else if is_neg_zero x && not (is_neg_zero y) then x
  else y

(* The zero-allocation Eq.-38 solver behind [delay_given],
   [delay_bound] and everything built on them.  [make] allocates the
   plain arrays for one hop count and [retarget] flattens a path into
   them, in place; [set] compiles the per-node constants (c_h,
   margin_h, clipped-∆ case tags) for one (gamma, sigma) and sorts the
   candidate abscissae, each with the objective's slope to its right,
   into reusable scratch buffers; [delay] folds only the candidates a
   sweep of those slopes cannot rule out.  No allocation and no variant
   matching in the inner loops.  Every float expression mirrors
   [Reference] operation for operation — same operands, same order —
   so all results are bit-identical to [Reference.delay_given]/
   [Reference.sigma_for]/[Reference.optimal_thetas]; the QCheck suite
   pins this bit for bit. *)
module Batch = struct
  (* What [sigma_for] reads of the path: every envelope in Eq. (31)/(34)
     shares the decay [alpha], so one exp and one log alpha serve them
     all, and what it derives from the combined rate's [w = (stoch + 1)
     /. alpha], summed as [Exponential.combine] sums it, is
     gamma-independent.  An all-float record, so [retarget] overwrites
     it without boxing. *)
  type consts = {
    mutable alpha : float;
    mutable m_thr : float;
    mutable log_a : float; (* log alpha *)
    mutable aw : float;    (* alpha *. w *)
    mutable log_w : float;
    mutable a_c : float;   (* 1. /. w *)
  }

  type t = {
    mutable path : path;
    h : int;
    (* gamma-independent per-node inputs, overwritten by [retarget] *)
    cap : float array;
    rho : float array;
    dv : float array;  (* Fin d; 0. for the infinite cases *)
    tag : int array;   (* 0 Neg_inf | 1 Pos_inf | 2 Fin d >= 0 | 3 Fin d < 0 *)
    k : consts;
    stoch_m : float array; (* cross_m of the stochastic nodes, in order, first [nstoch] *)
    mutable nstoch : int;
    (* per-(gamma, sigma) compiled state, overwritten by [set] *)
    mutable gamma : float;
    mutable sigma : float;
    c : float array;    (* c_h = capacity -. h *. gamma *)
    mg : float array;   (* margin = c_h -. cross_rho -. gamma *)
    r : float array;    (* cross_rho +. gamma *)
    s : float array;    (* sigma /. c_h (case 1) or sigma /. margin (cases 2, 3) *)
    case : int array;   (* see [set] *)
    mutable sweepable : bool; (* the domain of [delay]'s sweep, see [set] *)
    allow : allowance;
    (* [set]'s pushes, in three runs of [h + 1] slots and a sentinel,
       each sorted: abscissa and the slope jump there *)
    stage_x : float array;
    stage_j : float array;
    cand : float array; (* candidate abscissae, first [ncand], sorted, unique *)
    slope : float array; (* the objective's slope right of each candidate *)
    mutable ncand : int;
    (* the candidates a fold carries, first [live]: abscissa and
       objective sum *)
    ax : float array;
    acc : float array;
    ai : int array; (* the bottoms of [delay], first [bottoms]: indices into [cand] *)
    mutable bottoms : int;
    mutable live : int;
    slope_err : float;  (* 8 (H + 2) (3 H + 1) u, the slopes' rounding bound *)
  }

  (* The absolute rounding allowance of [delay] at the compiled point;
     an all-float record, so [set] writes it without boxing. *)
  and allowance = { mutable abs : float }

  (* Point the batch at [p], a path of the same hop count, as [make p]
     would, but in place: the per-node inputs and [consts] are
     overwritten and the compiled state is cleared. *)
  let retarget t p =
    if Array.length p.nodes <> t.h then invalid_arg "E2e.Batch.retarget: hop count differs";
    t.path <- p;
    let ns = ref 0 in
    for i = 0 to t.h - 1 do
      let nd = p.nodes.(i) in
      t.cap.(i) <- nd.capacity;
      t.rho.(i) <- nd.cross_rho;
      (match nd.delta with
      | Scheduler.Delta.Neg_inf ->
        t.tag.(i) <- 0;
        t.dv.(i) <- 0.
      | Scheduler.Delta.Pos_inf ->
        t.tag.(i) <- 1;
        t.dv.(i) <- 0.
      | Scheduler.Delta.Fin d when d >= 0. ->
        t.tag.(i) <- 2;
        t.dv.(i) <- d
      | Scheduler.Delta.Fin d ->
        t.tag.(i) <- 3;
        t.dv.(i) <- d);
      (* [stochastic_nodes]' predicate *)
      if not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Neg_inf) then begin
        t.stoch_m.(!ns) <- nd.cross_m;
        incr ns
      end
    done;
    t.nstoch <- !ns;
    let alpha = p.through.Envelope.Ebb.alpha in
    let inv_a = 1. /. alpha and w = ref 0. in
    for _ = 0 to !ns do
      w := !w +. inv_a
    done;
    let k = t.k in
    k.alpha <- alpha;
    k.m_thr <- p.through.Envelope.Ebb.m;
    k.log_a <- log alpha;
    k.aw <- alpha *. !w;
    k.log_w <- log !w;
    k.a_c <- 1. /. !w;
    t.gamma <- Float.nan;
    t.sigma <- Float.nan;
    t.sweepable <- false;
    t.ncand <- 0
  [@@zero_alloc_check]

  let make p =
    let h = hop_count p in
    let t =
      {
        path = p;
        h;
        cap = Array.make h 0.;
        rho = Array.make h 0.;
        dv = Array.make h 0.;
        tag = Array.make h 0;
        k =
          {
            alpha = Float.nan;
            m_thr = Float.nan;
            log_a = Float.nan;
            aw = Float.nan;
            log_w = Float.nan;
            a_c = Float.nan;
          };
        stoch_m = Array.make h 0.;
        nstoch = 0;
        gamma = Float.nan;
        sigma = Float.nan;
        c = Array.make h 0.;
        mg = Array.make h 0.;
        r = Array.make h 0.;
        s = Array.make h 0.;
        case = Array.make h 0;
        sweepable = false;
        allow = { abs = Float.nan };
        stage_x = Array.make (3 * (h + 2)) 0.;
        stage_j = Array.make (3 * (h + 2)) 0.;
        cand = Array.make ((3 * h) + 1) 0.;
        slope = Array.make ((3 * h) + 1) 0.;
        ncand = 0;
        bottoms = 0;
        ax = Array.make ((3 * h) + 1) 0.;
        acc = Array.make ((3 * h) + 1) 0.;
        ai = Array.make ((3 * h) + 1) 0;
        live = 0;
        slope_err = 4. *. float_of_int (h + 2) *. float_of_int ((3 * h) + 1) *. epsilon_float;
      }
    in
    retarget t p;
    t

  (* [sigma_for] with the shared-decay algebra folded out: the reference
     builds (stoch + 1) Exponential.t records through [geometric_sum] and
     [combine], but all of them carry the same [a = alpha], so [q] is
     computed once per call, [log alpha] and everything derived from
     the combined rate once per batch, and only the per-node terms
     [(log m_i +. log alpha) /. (alpha *. w)] remain.  Those depend on
     the node's [cross_m] alone (and on whether it is the last
     stochastic node), so each is cached against the previous node —
     homogeneous paths pay two.  Each remaining float op replicates the
     reference expression exactly.  Writes nothing, so one batch may
     serve [sigma_for] from several domains at once while none of them
     retargets it. *)
  let sigma_for t ~gamma ~epsilon =
    let k = t.k in
    if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
    if k.m_thr < 0. || Float.is_nan k.m_thr then
      invalid_arg "Exponential.v: negative prefactor";
    if k.alpha <= 0. || Float.is_nan k.alpha then
      invalid_arg "Exponential.v: non-positive rate";
    let q = exp (-.k.alpha *. gamma) in
    let omq = 1. -. q in
    let m_g = k.m_thr /. omq in
    let n = t.nstoch in
    if n = 0 then begin
      (* combine [eps_g] = eps_g *)
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_g /. epsilon) /. k.alpha)
    end
    else begin
      let aw = k.aw in
      let acc = ref 0. in
      acc := !acc +. ((log m_g +. k.log_a) /. aw);
      let last_m = ref Float.nan and last_term = ref 0. in
      for i = 0 to n - 1 do
        let cm = t.stoch_m.(i) in
        if cm < 0. || Float.is_nan cm then
          invalid_arg "Exponential.v: negative prefactor";
        (* IEEE [=] as the memo key is sound and bit-exact: a fresh NaN
           key always misses (NaN <> everything, and the seed is NaN),
           which Float.equal would not, and the one compare-equal
           bit-distinct pair, -0. and +0., gives m_i = -0. or +0. and
           log(-0.) = log(+0.) = -inf, so a hit returns exactly what the
           recompute would. *)
        let term =
          if i = n - 1 then (log (cm /. omq) +. k.log_a) /. aw
          else if (cm = !last_m) [@lint.allow "float-equal"] then !last_term
          else begin
            let v = (log (cm /. omq /. omq) +. k.log_a) /. aw in
            last_m := cm;
            last_term := v;
            v
          end
        in
        acc := !acc +. term
      done;
      let log_m = k.log_w +. !acc in
      let m_c = exp log_m in
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_c /. epsilon) /. k.a_c)
    end
  [@@zero_alloc_check]

  (* A candidate abscissa [x] for the run at offset [o], holding [n]
     pairs, where the objective's slope jumps by [j]; returns the run's
     new length.  Kept if finite and >= 0. — the filter of
     [x_candidates]; [x -. x = 0.] is [Float.is_finite] inlined (a
     cross-module call otherwise): NaN and the infinities fail it
     bit-exactly.  A repeat of the run's last entry, by IEEE [=] (x is
     finite, so [=] is Float.equal without its call), adds to its jump;
     an entry below it (a heterogeneous path) is inserted by a shift of
     the tail.  A kink left of 0. (-inf included) moves the slope at 0.
     itself, so its jump joins that of the candidate 0., the first
     slot.  Staging through the arrays keeps the floats unboxed. *)
  let[@inline] push t o n x j =
    let sx = t.stage_x and sj = t.stage_j and l = o + n - 1 in
    if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then
      if n > 0 && ((x = sx.(l)) [@lint.allow "float-equal"]) then begin
        sj.(l) <- sj.(l) +. j;
        n
      end
      else begin
        let k = ref (l + 1) in
        while !k > o && sx.(!k - 1) > x do
          sx.(!k) <- sx.(!k - 1);
          sj.(!k) <- sj.(!k - 1);
          decr k
        done;
        sx.(!k) <- x;
        sj.(!k) <- j;
        n + 1
      end
    else begin
      if x < 0. then sj.(0) <- sj.(0) +. j;
      n
    end

  (* Merge the three sorted runs of [set] — [n0], [n1] and [n2] pairs —
     into [cand], sorted and unique: the set [x_candidates] returns.
     [slope.(i)] is the running sum of the jumps up to [cand.(i)]: the
     objective's slope right of it.  A +inf sentinel, never a
     candidate, ends each run; the run with the first head is copied up
     to the next head of another (on a homogeneous path, each run grows
     with the node index).  Each candidate is checked for a bottom (see
     [delay]) once its slope is final, when the next one is written,
     and the last one at the end. *)
  let merge t n0 n1 n2 =
    let o1 = t.h + 2 in
    let o2 = 2 * o1 in
    let sx = t.stage_x and sj = t.stage_j and cand = t.cand and sl = t.slope in
    let ai = t.ai and e = t.slope_err in
    sx.(n0) <- Float.infinity;
    sx.(o1 + n1) <- Float.infinity;
    sx.(o2 + n2) <- Float.infinity;
    (* the candidate 0. heads run 0 *)
    cand.(0) <- 0.;
    sl.(0) <- sj.(0);
    let i0 = ref 1 and i1 = ref o1 and i2 = ref o2 and n = ref 1 and d = ref sj.(0) in
    (* [down]: the slope left of the last candidate written is a certain
       descent, or there is none *)
    let down = ref true and nb = ref 0 and left = ref (n0 + n1 + n2 - 1) in
    while !left > 0 do
      (* the run with the first head, copied up to the first head of the
         others, [lim] *)
      let a = sx.(!i0) and b = sx.(!i1) and c = sx.(!i2) in
      let k = if b < a then if c < b then 2 else 1 else if c < a then 2 else 0 in
      let lim =
        match k with
        | 0 -> if c < b then c else b
        | 1 -> if c < a then c else a
        | _ -> if b < a then b else a
      in
      let p = ref (match k with 0 -> !i0 | 1 -> !i1 | _ -> !i2) and stop = ref false in
      (* [p] stays within its run or on its sentinel and [n <= 3H + 1],
         the arrays' lengths: the unsafe accesses drop bounds checks
         only *)
      while not !stop do
        let x = Array.unsafe_get sx !p and dp = !d in
        d := dp +. Array.unsafe_get sj !p;
        if x > Array.unsafe_get cand (!n - 1) then begin
          let up = dp +. e >= 0. in
          if !down && up then begin
            ai.(!nb) <- !n - 1;
            incr nb
          end;
          down := not up;
          Array.unsafe_set cand !n x;
          incr n
        end;
        Array.unsafe_set sl (!n - 1) !d;
        incr p;
        decr left;
        stop := !left = 0 || Array.unsafe_get sx !p > lim
      done;
      match k with 0 -> i0 := !p | 1 -> i1 := !p | _ -> i2 := !p
    done;
    if !down then begin
      ai.(!nb) <- !n - 1;
      incr nb
    end;
    t.ncand <- !n;
    t.bottoms <- !nb
  [@@zero_alloc_check]

  (* case tags compiled by [set]:
     0 — theta = +inf for every x (c_h <= 0, or BMUX with margin <= 0)
     1 — strict priority (Neg_inf)
     2 — BMUX, margin > 0
     3 — Fin d >= 0, margin > 0
     4 — Fin d >= 0, margin <= 0
     5 — Fin d < 0
     Only the division a case reads is taken: [s] is sigma /. c_h for
     case 1 and sigma /. margin for cases 2 and 3.

     Each theta_h is piecewise linear in X, with slopes in {-1, q - 1,
     0} (q = r_h /. c_h), and the kinks are its candidates.  [set]
     records the slope of X + Σ theta_h left of every candidate in the
     first slot and each kink's jump beside it, in three runs: run 0
     takes each node's first push (s, s - ∆ or -∆), run 1 its second (s
     or sigma /. c_h) and run 2 the third ((sigma + r ∆) / margin).  It
     also decides whether [delay]'s sweep applies ([sweepable]: sigma
     >= 2^-1000, γ > 0., every constant finite, and every node with c_h
     > 0., a cross rate >= 0. and, unless it is strict priority, a
     positive margin: inside every γ bracket) and the absolute rounding
     allowance of its ∆ >= 0 nodes (DESIGN.md §7, "The slope sweep"). *)
  let set t ~gamma ~sigma =
    t.gamma <- gamma;
    t.sigma <- sigma;
    (* candidate set: 0. first, then per node the same pushes, filters
       and float expressions as [x_candidates] *)
    t.stage_x.(0) <- 0.;
    t.stage_j.(0) <- 0.;
    let o1 = t.h + 2 in
    let o2 = 2 * o1 in
    let n0 = ref 1 and n1 = ref 0 and n2 = ref 0 in
    (* [z -. z] is 0. for finite [z] and NaN otherwise, so [fin] stays
       0. when sigma and every node constant are finite, and turns NaN
       when one is not (or when their sum overflows: a needless but
       exact fallback in [delay]) *)
    let fin = ref (sigma -. sigma) in
    (* the slope left of every kink; Σ s over the ∆ >= 0 nodes; the
       smallest divisor *)
    let base = ref 1. and defect = ref 0. and dmin = ref Float.infinity in
    for i = 0 to t.h - 1 do
      let c_h = t.cap.(i) -. (float_of_int i *. gamma) in
      let margin = c_h -. t.rho.(i) -. gamma in
      let r = t.rho.(i) +. gamma and dv = t.dv.(i) in
      t.c.(i) <- c_h;
      t.mg.(i) <- margin;
      t.r.(i) <- r;
      let z = c_h +. margin +. (r +. dv) in
      fin := !fin +. (z -. z);
      if c_h < !dmin then dmin := c_h;
      if t.tag.(i) <> 0 && margin < !dmin then dmin := margin;
      (* a negative cross rate leaves the sweep's domain too *)
      if t.rho.(i) < 0. then dmin := Float.nan;
      if c_h <= 0. then t.case.(i) <- 0
      else
        match t.tag.(i) with
        | (0 | 1) as tag ->
          (* slope -1 up to s, then 0. *)
          let v = if tag = 0 then c_h else margin in
          if v > 0. then begin
            t.case.(i) <- tag + 1;
            let s = sigma /. v in
            t.s.(i) <- s;
            base := !base -. 1.;
            n0 := push t 0 !n0 s 1.
          end
          else t.case.(i) <- 0
        | 2 ->
          if margin > 0. then begin
            t.case.(i) <- 3;
            let s = sigma /. margin and q = r /. c_h in
            t.s.(i) <- s;
            (* slope q - 1, then -1 from s - ∆ (a concave kink when ∆ >
               0), then 0. from s; at ∆ = 0 the two kinks are one *)
            base := !base +. (q -. 1.);
            if (dv = 0.) [@lint.allow "float-equal"] then n0 := push t 0 !n0 s (1. -. q)
            else begin
              n0 := push t 0 !n0 (s -. dv) (-.q);
              n1 := push t o1 !n1 s 1.
            end;
            defect := !defect +. s
          end
          else t.case.(i) <- 4
        | _ ->
          t.case.(i) <- 5;
          let s1 = sigma /. c_h and q = r /. c_h in
          let root = (sigma +. (r *. dv)) /. margin in
          base := !base -. 1.;
          (* slope -1 up to sigma /. c_h, or, when that lies past -∆
             ([late]), up to -∆, then q - 1 up to [root], then 0. *)
          let late = s1 > -.dv in
          n0 := push t 0 !n0 (-.dv) (if late then q else 0.);
          n1 := push t o1 !n1 s1 (if late then 0. else 1.);
          if margin > 0. then n2 := push t o2 !n2 root (if late then 1. -. q else 0.)
          else if margin < 0. then
            (* overloaded, so off the sweep's domain: theta_h leaves 0.
               at [root] and climbs at slope q - 1 *)
            n2 := push t o2 !n2 root (q -. 1.)
    done;
    t.stage_j.(0) <- t.stage_j.(0) +. !base;
    t.sweepable <- sigma >= 0x1p-1000 && gamma > 0. && !dmin > 0. && not (Float.is_nan !fin);
    t.allow.abs <- 4. *. epsilon_float *. !defect;
    merge t !n0 !n1 !n2
  [@@zero_alloc_check]

  (* Fold the candidates [ax.(lo .. live - 1)] through the nodes in
     index order, each objective sum [acc.(a)] starting at its
     abscissa.  Each node's case tag and constants are loaded once per
     node and shared by its whole row; each step adds that node's theta
     ([theta_of_x]'s expression for the case, with the invariant
     subterms precomputed by [set]).  So every sum is the reference's
     candidate-major [objective], bit for bit. *)
  let fold t lo =
    let ax = t.ax and av = t.acc and m = t.live and sg = t.sigma in
    (* [lo <= a < m = live <= 3H+1 = length ax = length acc] throughout
       — the unsafe accesses drop bounds checks only *)
    for a = lo to m - 1 do
      Array.unsafe_set av a (Array.unsafe_get ax a)
    done;
    for ii = 0 to t.h - 1 do
      let cs = t.case.(ii)
      and s = t.s.(ii)
      and mg = t.mg.(ii)
      and dv = t.dv.(ii)
      and r = t.r.(ii)
      and c = t.c.(ii) in
      for a = lo to m - 1 do
        let x = Array.unsafe_get ax a in
        let th =
          match cs with
          | 0 -> Float.infinity
          | 1 | 2 -> fmax0 (s -. x)
          | 3 ->
            if mg *. x >= sg then 0.
            else if s -. x <= dv then s -. x
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          | 4 ->
            if mg *. x >= sg then 0.
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          | _ -> fmax0 (((sg +. (r *. fmax0 (x +. dv))) /. c) -. x)
        in
        Array.unsafe_set av a (Array.unsafe_get av a +. th)
      done
    done
  [@@zero_alloc_check]

  (* The least of the [live] folded objectives, by the [fmin1] fold in
     fold order, and the fold's work counted. *)
  let[@inline] least t =
    if !Telemetry.on then begin
      Telemetry.Counter.add c_objective_evals t.ncand;
      Telemetry.Counter.add c_node_steps (t.live * t.h)
    end;
    let best = ref Float.infinity in
    for a = 0 to t.live - 1 do
      best := fmin1 !best t.acc.(a)
    done;
    !best
  [@@zero_alloc_check]

  (* The objective at every candidate, into [acc] in candidate order,
     and its minimum in that order, so the signed zero and the NaN it
     returns are the reference's. *)
  let fold_all t =
    for j = 0 to t.ncand - 1 do
      t.ax.(j) <- t.cand.(j)
    done;
    t.live <- t.ncand;
    fold t 0;
    least t
  [@@zero_alloc_check]

  (* The Eq.-38 minimum by one sweep of the slopes [set] recorded
     (DESIGN.md §7, "The slope sweep", has the proof).  [slope_err]
     bounds the slopes' rounding, so a slope below -[slope_err] is a
     certain descent.  The bottoms — the first candidate, or one past a
     certain descent, unless the slope right of it is one too — fold in
     full: one per convex piece of the objective, so one on every path
     without a ∆ > 0 node.  From each bottom a walk goes right, over the
     slopes that are not certain descents, and one goes left, over the
     certain descent that ends at it, summing the certified rise: (slope
     -/+ slope_err) x Δx, less its own rounding, a lower bound on how
     far the objective has climbed.  Every candidate a walk passes folds
     in full (flat stretches included); a walk stops at the first
     candidate whose rise clears the bottom's allowance, 2 rel F + 2 abs
     with F the bottom's folded objective (the right walk also clears
     what later flat stretches could take back), and that candidate and
     every one beyond it on the walk's side have rounded objectives above
     F.  The minimum over the folds is the full fold's bit for bit: each
     sum is formed as the reference forms it, and on this domain every
     one is +0. or positive, so neither order nor repeats can move a
     minimum.  Off the domain ([sweepable]), the full fold. *)
  let delay t =
    if not t.sweepable then fold_all t
    else begin
      let n = t.ncand and cand = t.cand and sl = t.slope and e = t.slope_err in
      let ax = t.ax and acc = t.acc and ai = t.ai and bottoms = t.bottoms in
      for b = 0 to bottoms - 1 do
        ax.(b) <- cand.(ai.(b))
      done;
      let m = ref bottoms in
      t.live <- bottoms;
      fold t 0;
      let cn = float_of_int (n + 4) *. epsilon_float and last = cand.(n - 1) in
      (* 2 rel, rel = 32 (H + 2) u the relative allowance, and twice the
         underflow allowance 8 (H + 1) min_float *)
      let rel2 = 32. *. float_of_int (t.h + 2) *. epsilon_float
      and tiny = float_of_int (16 * (t.h + 1)) *. Float.min_float in
      for b = 0 to bottoms - 1 do
        let w = (rel2 *. acc.(b)) +. (2. *. t.allow.abs) +. tiny in
        let j = ref (ai.(b) + 1) and rise = ref 0. and mag = ref 0. and go = ref true in
        while !go && !j < n && sl.(!j - 1) +. e >= 0. do
          let x = cand.(!j) in
          let p = (sl.(!j - 1) -. e) *. (x -. cand.(!j - 1)) in
          rise := !rise +. p;
          mag := !mag +. Float.abs p;
          if !rise -. (cn *. !mag) > w +. (2. *. e *. (last -. x)) then go := false
          else begin
            ax.(!m) <- x;
            incr m;
            incr j
          end
        done;
        let j = ref (ai.(b) - 1) and rise = ref 0. and go = ref true in
        while !go && !j >= 0 && sl.(!j) +. e < 0. do
          let x = cand.(!j) in
          rise := !rise +. ((-.sl.(!j) -. e) *. (cand.(!j + 1) -. x));
          if !rise -. (cn *. !rise) > w then go := false
          else begin
            ax.(!m) <- x;
            incr m;
            decr j
          end
        done
      done;
      t.live <- !m;
      if !m > bottoms then fold t bottoms;
      least t
    end
  [@@zero_alloc_check]

  (* The minimizing (thetas, X) over the compiled point.  The full fold
     leaves the objective at every candidate in [acc]; the strict-<
     scan below, seeded with X = +0. and its objective, is
     [Reference]'s fold over the same values in the same order.  +0. is
     always the first candidate. *)
  let optimal_thetas t =
    ignore (fold_all t);
    let bx = ref 0. and bv = ref t.acc.(0) in
    for j = 0 to t.ncand - 1 do
      if t.acc.(j) < !bv then begin
        bx := t.cand.(j);
        bv := t.acc.(j)
      end
    done;
    let x = !bx in
    (Array.init t.h (fun i -> theta_of_x t.path ~gamma:t.gamma ~sigma:t.sigma ~x i), x)

  let delay_at_gamma t ~gamma ~epsilon =
    let sigma = sigma_for t ~gamma ~epsilon in
    set t ~gamma ~sigma;
    delay t
  [@@zero_alloc_check]

  (* A lower bound on [delay_at_gamma t ~gamma ~epsilon] at every γ in
     [a, b] (0 < a <= b), from one Eq.-38 evaluation.  At fixed X each
     θ_h is the smallest θ >= 0 with c_h (X + θ) - r_h (X + min(∆, θ))_+
     >= σ, so it falls as c_h (= C - hγ) or the margin c_h - r_h grows
     and rises with r_h (= ρ_c + γ) and with σ, in every ∆ case.  c_h
     and the margin shrink, r_h grows and σ shrinks as γ grows, so
     compiling the nodes at γ = a and taking σ at γ = b makes every
     θ_h(X), hence the X-minimum, no larger than at any γ in [a, b].
     [floor_margin] absorbs the rounding of the two evaluations.  When σ
     is non-finite at either end a γ inside could yield NaN, and a NaN
     evaluation bounds nothing, so both give [neg_infinity]: the floor
     is never NaN.  Overwrites the compiled state, like [set]. *)
  let interval_floor t ~epsilon ~a ~b =
    let sigma_a = sigma_for t ~gamma:a ~epsilon and sigma_b = sigma_for t ~gamma:b ~epsilon in
    if not (Float.is_finite sigma_a && Float.is_finite sigma_b) then Float.neg_infinity
    else begin
      set t ~gamma:a ~sigma:sigma_b;
      let v = delay t in
      if Float.is_nan v then Float.neg_infinity else v *. floor_margin
    end
  [@@zero_alloc_check]

  (* One γ row into the caller's buffer.  All hot-loop state lives in
     the compiled batch, so nothing here allocates (enforced by the
     zero_alloc analyzer): a worker can stream rows of any length
     without touching the GC. *)
  let run_gammas t ~epsilon ~gammas ~out =
    if Array.length out < Array.length gammas then
      invalid_arg "E2e.Batch.run_gammas: output buffer shorter than the grid";
    for i = 0 to Array.length gammas - 1 do
      out.(i) <- delay_at_gamma t ~gamma:gammas.(i) ~epsilon
    done
  [@@zero_alloc_check]

  (* One interval floor of the γ search, counted *)
  let search_floor t ~epsilon a b =
    if !Telemetry.on then Telemetry.Counter.incr c_gamma_floors;
    interval_floor t ~epsilon ~a ~b

  let delay_bound t ~epsilon =
    if epsilon <= 0. || epsilon >= 1. then invalid_arg "E2e.delay_bound: epsilon out of range";
    let gmax = gamma_max t.path in
    if gmax <= 0. then Float.infinity
    else
      Telemetry.span "e2e.gamma_search"
        ~attrs:[ ("h", Telemetry.Int t.h); ("points", Telemetry.Int delay_points) ]
      @@ fun () ->
      let lo, hi = gamma_bracket gmax in
      let r =
        Search.minimize ~floor:(Search.Interval (search_floor t ~epsilon))
          ~refine:(Search.Golden delay_golden) ~points:delay_points ~lo ~hi (fun gamma ->
            delay_at_gamma t ~gamma ~epsilon)
      in
      Telemetry.Counter.add c_gamma_evals r.Search.evals;
      r.Search.value

  (* A lower bound on [delay_bound t ~epsilon]: every value [delay_bound]
     returns is the Eq.-38 minimum at some probe γ in [lo, top] — the
     bracket, stretched to the top γ-grid point when rounding lands it
     past [hi] — so the interval floor over [lo, top] bounds it.  An
     overloaded path ([gamma_max <= 0]) gets [infinity], as [delay_bound]
     returns. *)
  let delay_bound_floor t ~epsilon =
    if epsilon <= 0. || epsilon >= 1. then
      invalid_arg "E2e.delay_bound_floor: epsilon out of range";
    let gmax = gamma_max t.path in
    if gmax <= 0. then Float.infinity
    else begin
      let lo, hi = gamma_bracket gmax in
      let ratio = Search.grid_ratio ~points:delay_points ~lo ~hi in
      let top = Float.max hi (Search.last_point ~lo ~ratio ~points:delay_points) in
      interval_floor t ~epsilon ~a:lo ~b:top
    end
end

(* The list-based solver, retained verbatim: the oracle for the QCheck
   bit-for-bit equivalence properties and the baseline side of the
   ns/op benchmark; and the Eq. (30) network service curve as an
   explicit min-plus object, the cross-check of the Eq.-38 machinery. *)
module Reference = struct
  let delay_given p ~gamma ~sigma =
    if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
    let cands = x_candidates p ~gamma ~sigma in
    if !Telemetry.on then
      Telemetry.Counter.add c_objective_evals (List.length cands);
    (* The objective is piecewise linear with kinks exactly at the candidate
       abscissae, so its minimum over X >= 0 is attained at one of them. *)
    List.fold_left
      (fun acc x -> Float.min acc (objective p ~gamma ~sigma x))
      Float.infinity cands

  let optimal_thetas p ~gamma ~sigma =
    let cands = x_candidates p ~gamma ~sigma in
    if !Telemetry.on then
      Telemetry.Counter.add c_objective_evals (List.length cands + 1);
    let best =
      List.fold_left
        (fun (bx, bv) x ->
          let v = objective p ~gamma ~sigma x in
          if v < bv then (x, v) else (bx, bv))
        (0., objective p ~gamma ~sigma 0.)
        cands
    in
    let x = fst best in
    (Array.init (hop_count p) (fun h -> theta_of_x p ~gamma ~sigma ~x h), x)

  let sigma_for = sigma_for
  let x_candidates = x_candidates

  module Curve = Minplus.Curve

  (* S~^h_{(h-1)gamma}(t') = (C -. h' gamma)(t' +. theta_h)
                             -. (rho_c +. gamma) [t' +. ∆(theta_h)]_+
     for t' >= 0, as a curve (0-indexed h). *)
  let tilde_curve p ~gamma ~theta h =
    let nd = p.nodes.(h) in
    let c_h = nd.capacity -. (float_of_int h *. gamma) in
    let base = Curve.v [ (0., c_h *. theta, c_h) ] in
    match Scheduler.Delta.clip_fin nd.delta theta with
    | None -> base
    | Some clipped ->
      let r = nd.cross_rho +. gamma in
      let cross =
        if clipped >= 0. then Curve.v [ (0., r *. clipped, r) ]
        else Curve.v [ (0., 0., 0.); (-.clipped, 0., r) ]
      in
      Curve.sub_clip base cross

  let network_service_curve p ~gamma ~thetas =
    if Array.length thetas <> hop_count p then
      invalid_arg "E2e.Reference.network_service_curve: arity mismatch";
    Array.iter
      (fun th -> if th < 0. then invalid_arg "E2e.Reference.network_service_curve: negative theta")
      thetas;
    let total = Array.fold_left ( +. ) 0. thetas in
    let shifted h =
      Curve.hshift total (tilde_curve p ~gamma ~theta:thetas.(h) h)
    in
    let n = hop_count p in
    let merged = ref (shifted 0) in
    for h = 1 to n - 1 do
      merged := Curve.min !merged (shifted h)
    done;
    Curve.gate total !merged

  let through_envelope_curve p ~gamma ~sigma =
    Curve.affine ~rate:(p.through.Envelope.Ebb.rho +. gamma) ~burst:sigma

  let delay_via_curve p ~gamma ~sigma ~thetas =
    let service = network_service_curve p ~gamma ~thetas in
    Minplus.Deviation.horizontal
      ~arrival:(through_envelope_curve p ~gamma ~sigma)
      ~service
end

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
  let b = Batch.make p in
  Batch.set b ~gamma ~sigma;
  Batch.delay b

(* The backlog bound is sigma at the top of the γ bracket.  At θ = 0
   every node of the Eq.-30 curve serves from time 0 at rate at least
   C - Hγ - ρ_c > ρ + γ (γ < gamma_max, Eq. 32), so the vertical deviation of
   sigma + (ρ+γ)t is sigma, reached at 0⁺; S(0) = 0 forces at least
   sigma for every θ.  Each geometric sum of Eq. (31)/(34) falls as γ
   grows, so sigma does too. *)
let backlog_bound ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then invalid_arg "E2e.backlog_bound: epsilon out of range";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity else sigma_for p ~gamma:(snd (gamma_bracket gmax)) ~epsilon

let delay_bound ~epsilon p = Batch.delay_bound (Batch.make p) ~epsilon
let delay_bound_floor ~epsilon p = Batch.delay_bound_floor (Batch.make p) ~epsilon

(* --------------------------------------------------------------- *)
(* Closed forms and the paper's explicit K-procedure                 *)

let is_homogeneous p =
  let nd0 = p.nodes.(0) in
  Array.for_all
    (fun nd ->
      Float.equal nd.capacity nd0.capacity
      && Float.equal nd.cross_rho nd0.cross_rho
      && Scheduler.Delta.equal nd.delta nd0.delta)
    p.nodes

let require_homogeneous p name =
  if not (is_homogeneous p) then invalid_arg (name ^ ": path is not homogeneous");
  p.nodes.(0)

let bmux_closed_form p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.bmux_closed_form" in
  if not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Pos_inf) then
    invalid_arg "E2e.bmux_closed_form: not a BMUX path";
  let h = float_of_int (hop_count p) in
  let denom = nd.capacity -. nd.cross_rho -. (h *. gamma) in
  if denom <= 0. then Float.infinity else sigma /. denom

(* Smallest K in 0..H satisfying Eq. (40),
   sum_{h > K} (C -. rho_c -. h gamma) /. (C -. (h-1) gamma) < 1,
   and the caller's extra feasibility predicate.  O(H^2): [suffix_sum]
   re-walks the tail for every candidate K. *)
let smallest_k ~extra_ok ~h ~c ~rho_c ~gamma =
  let term k =
    (c -. rho_c -. (float_of_int k *. gamma))
    /. (c -. (float_of_int (k - 1) *. gamma))
  in
  let rec suffix_sum k = if k > h then 0. else term k +. suffix_sum (k + 1) in
  let rec find k =
    if k > h then h
    else if suffix_sum (k + 1) < 1. && extra_ok k then k
    else find (k + 1)
  in
  find 0

let fifo_closed_form p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.fifo_closed_form" in
  if not (Scheduler.Delta.equal nd.delta (Scheduler.Delta.Fin 0.)) then
    invalid_arg "E2e.fifo_closed_form: not a FIFO path";
  let h = hop_count p in
  let c = nd.capacity and rho_c = nd.cross_rho in
  let k = smallest_k ~extra_ok:(fun _ -> true) ~h ~c ~rho_c ~gamma in
  if k = 0 then begin
    (* At K = 0 the paper sets X = 0 (Eq. 41); each node's constraint then
       reads (C - (h-1) gamma) theta_h >= sigma. *)
    let acc = ref 0. in
    for j = 1 to h do
      acc := !acc +. (sigma /. (c -. (float_of_int (j - 1) *. gamma)))
    done;
    !acc
  end
  else begin
    let denom = c -. rho_c -. (float_of_int k *. gamma) in
    if denom <= 0. then Float.infinity
    else begin
      let x = sigma /. denom in
      let extra = ref 0. in
      for j = k + 1 to h do
        extra :=
          !extra
          +. (float_of_int (j - k) *. gamma /. (c -. (float_of_int (j - 1) *. gamma)))
      done;
      x *. (1. +. !extra)
    end
  end

let k_procedure p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.k_procedure" in
  let h = hop_count p in
  let c = nd.capacity and rho_c = nd.cross_rho in
  match nd.delta with
  | Scheduler.Delta.Pos_inf -> bmux_closed_form p ~gamma ~sigma
  | Scheduler.Delta.Neg_inf ->
    (* no cross precedence: theta = 0, X = sigma / (C -. (H-1) gamma) *)
    let denom = c -. (float_of_int (h - 1) *. gamma) in
    if denom <= 0. then Float.infinity else sigma /. denom
  | Scheduler.Delta.Fin d when d >= 0. ->
    let x_of k =
      if k = 0 then 0. else sigma /. (c -. rho_c -. (float_of_int k *. gamma))
    in
    let extra_ok k =
      let x = x_of k in
      let ok = ref true in
      for j = k to h - 1 do
        (* nodes with 1-indexed position j+1 > K must have theta > delta *)
        if theta_of_x p ~gamma ~sigma ~x j <= d then ok := false
      done;
      !ok
    in
    let k = smallest_k ~extra_ok ~h ~c ~rho_c ~gamma in
    let x = x_of k in
    if !Telemetry.on then Telemetry.Counter.incr c_objective_evals;
    objective p ~gamma ~sigma x
  | Scheduler.Delta.Fin _ when Float.equal sigma Float.infinity ->
    (* d < 0 and Eq. (38) infeasible: Eq. (42)'s X and the theta it
       gives would both be +inf, and their difference NaN *)
    Float.infinity
  | Scheduler.Delta.Fin d ->
    (* d < 0, Eq. (42) *)
    let x_of k =
      if k = 0 then -.d
      else
        Float.max
          (sigma /. (c -. (float_of_int (k - 1) *. gamma)))
          ((sigma +. ((rho_c +. gamma) *. d)) /. (c -. rho_c -. (float_of_int k *. gamma)))
    in
    let k = smallest_k ~extra_ok:(fun _ -> true) ~h ~c ~rho_c ~gamma in
    let x = x_of k in
    if !Telemetry.on then Telemetry.Counter.incr c_objective_evals;
    objective p ~gamma ~sigma x
