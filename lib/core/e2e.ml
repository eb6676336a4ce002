(* Section IV: stochastic end-to-end delay bounds for ∆-schedulers. *)

module Exp = Envelope.Exponential

let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
let c_gamma_evals = Telemetry.Counter.make "e2e.gamma.evals"

(* interval floors the pruned γ grid takes in place of evaluations *)
let c_gamma_floors = Telemetry.Counter.make "e2e.gamma.floors"

(* (candidate, node) pairs the Eq.-38 folds actually evaluate: below
   objective_evals x H by what branch-and-bound drops *)
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
          if margin > 0. then push ((sigma +. ((nd.cross_rho +. gamma) *. d)) /. margin)
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
   - [fgt a b] is [a > b], except that -0. orders strictly before +0.;
     [fne a b] is [a <> b], except that -0. and +0. differ.  Both are
     for non-NaN operands (the candidate buffers: pushes are filtered
     finite).  They are {e not} [Float.compare], which ranks the two
     zeros equal.  The difference shows only when sigma = -0. (which
     [delay_given]'s [sigma < 0.] guard admits): sigma /. c_h = -0.
     passes the [x >= 0.] push filter, and the sort keeps both zeros as
     candidates where [List.sort_uniq Float.compare] keeps one.  The
     objective at either zero is the same float (each theta clamps
     through [fmax0] or a [>=] test that cannot tell them apart), so
     the extra candidate changes neither the minimum nor the argmin —
     [optimal_thetas] seeds X with +0. and moves only on a strict <;
     it costs one more evaluation.  The QCheck suite draws sigma = -0.
     to pin this. *)
let[@inline] is_neg_zero (x : float) = x = 0. && 1. /. x < 0.
[@@lint.allow "float-equal"]
let[@inline] fmax0 (d : float) = if d > 0. then d else if d <> d then d else 0.

let[@inline] fmax_nz (x : float) (y : float) =
  if x <> x then x
  else if y > x then y
  else if is_neg_zero x && not (is_neg_zero y) then y
  else x

let[@inline] fmin1 (x : float) (y : float) =
  if x <> x then x
  else if y <> y then y
  else if y > x then x
  else if is_neg_zero x && not (is_neg_zero y) then x
  else y

let[@inline] fgt (a : float) (b : float) =
  a > b || (a = 0. && b = 0. && is_neg_zero b && not (is_neg_zero a))
[@@lint.allow "float-equal"]

let[@inline] fne (a : float) (b : float) =
  a <> b || (a = 0. && is_neg_zero a <> is_neg_zero b)
[@@lint.allow "float-equal"]

(* The zero-allocation Eq.-38 solver behind [delay_given],
   [delay_bound] and everything built on them.  [make] allocates the
   plain arrays for one hop count and [retarget] flattens a path into
   them, in place; [set] compiles the per-node constants (c_h,
   margin_h, clipped-∆ case tags) for one (gamma, sigma) and appends
   the candidate abscissae, in push order, to a reusable scratch
   buffer; [delay] takes the objective's minimum over them by
   branch-and-bound, dropping a candidate as soon as its partial sum
   reaches the best complete one.  Only the full fold sorts and
   dedupes the candidates first.  No allocation and no variant
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
    mutable finite : bool; (* sigma and every c, mg, r, dv finite *)
    cand : float array; (* candidate abscissae, first [ncand]: push order
                           after [set], sorted and unique after [fold_all] *)
    mutable ncand : int;
    (* the candidates a fold carries, first [live]: abscissa, partial
       objective sum, index into [cand] *)
    ax : float array;
    acc : float array;
    ai : int array;
    mutable live : int;
    bound : float array; (* one slot: the pruning bound of [sweep] *)
    mutable warm : int;  (* the last pruned fold's argmin; max_int when fresh *)
    slack : float;       (* 1 + 4 H epsilon_float, see [delay] *)
  }

  (* Point the batch at [p], a path of the same hop count, as [make p]
     would, but in place: the per-node inputs and [consts] are
     overwritten, the compiled state is cleared, and only the warm
     index carries over — the next search on a neighbouring path starts
     from the last one's argmin.  A candidate index names the same
     (node, kind) push on every path whose nodes filter alike, so the
     warm start mostly still hits. *)
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
    t.finite <- false;
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
        finite = false;
        cand = Array.make ((3 * h) + 1) 0.;
        ncand = 0;
        ax = Array.make ((3 * h) + 1) 0.;
        acc = Array.make ((3 * h) + 1) 0.;
        ai = Array.make ((3 * h) + 1) 0;
        live = 0;
        bound = [| Float.nan |];
        warm = max_int;
        slack = 1. +. (4. *. float_of_int h *. epsilon_float);
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
    if k.m_thr < 0. || k.m_thr <> k.m_thr then
      invalid_arg "Exponential.v: negative prefactor";
    if k.alpha <= 0. || k.alpha <> k.alpha then
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
        if cm < 0. || cm <> cm then
          invalid_arg "Exponential.v: negative prefactor";
        (* [=] as the memo key is sound and bit-exact: a fresh NaN key
           always misses (NaN <> everything, and the seed is NaN), and
           the one compare-equal bit-distinct pair, -0. and +0., gives
           m_i = -0. or +0. and log(-0.) = log(+0.) = -inf, so a hit
           returns exactly what the recompute would. *)
        let term =
          if i = n - 1 then (log (cm /. omq) +. k.log_a) /. aw
          else if cm = !last_m then !last_term
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

  (* Move the value staged at [cand.(ncand)] into the sorted unique
     prefix [cand.(0 .. ncand - 1)] unless it is already there.  The
     last entry is checked first: [set] pushes each node's candidates
     in ascending order, and on homogeneous paths every kind of
     candidate grows with the node index, so most push-order entries
     append or repeat the last one.  Anything else is placed by a binary search
     for the first entry not below it in the [fgt] order and a one-slot
     shift of the tail.  The prefix equals List.sort_uniq Float.compare
     on the same multiset, up to the signed zeros (see [fgt]).  Staging
     through the array keeps the float unboxed: a float argument to a
     call that is not inlined is boxed. *)
  let insert_staged t =
    let cand = t.cand and n = t.ncand in
    (* [0 < n]: cand.(0) = 0. is placed before any push *)
    let x = cand.(n) and last = cand.(n - 1) in
    if fgt x last then t.ncand <- n + 1
    else if fne x last then begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if fgt x cand.(mid) then lo := mid + 1 else hi := mid
      done;
      let k = !lo in
      if fne cand.(k) x then begin
        for j = n downto k + 1 do
          cand.(j) <- cand.(j - 1)
        done;
        cand.(k) <- x;
        t.ncand <- n + 1
      end
    end
  [@@zero_alloc_check]

  (* Sort and dedupe the push-order candidates in place, into the
     sorted unique set [x_candidates] returns (up to the signed zeros):
     each entry is staged just past the prefix built so far, which
     never reaches an entry not yet read.  A set already sorted costs
     one compare per entry. *)
  let sort_candidates t =
    let n = t.ncand in
    if n > 1 then begin
      t.ncand <- 1;
      for j = 1 to n - 1 do
        t.cand.(t.ncand) <- t.cand.(j);
        insert_staged t
      done
    end
  [@@zero_alloc_check]

  (* A candidate abscissa, kept if finite and >= 0. — the filter of
     [x_candidates] — and appended unless it repeats the last entry.
     [x -. x = 0.] is [Float.is_finite] inlined (a cross-module call
     otherwise): NaN and the infinities fail it bit-exactly.  The
     pruned [delay] takes a minimum over positive floats, which neither
     the order nor a repeat can move, so the set stays unsorted until a
     full fold needs the reference's order. *)
  let[@inline] push t x =
    if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then begin
      let n = t.ncand in
      if fne x t.cand.(n - 1) then begin
        t.cand.(n) <- x;
        t.ncand <- n + 1
      end
    end

  (* case tags compiled by [set]:
     0 — theta = +inf for every x (c_h <= 0, or BMUX with margin <= 0)
     1 — strict priority (Neg_inf)
     2 — BMUX, margin > 0
     3 — Fin d >= 0, margin > 0
     4 — Fin d >= 0, margin <= 0
     5 — Fin d < 0
     Only the division a case reads is taken: [s] is sigma /. c_h for
     case 1 and sigma /. margin for cases 2 and 3. *)
  let set t ~gamma ~sigma =
    t.gamma <- gamma;
    t.sigma <- sigma;
    (* candidate set: 0. first, then per node in index order — the
       same pushes, filters and float expressions as [x_candidates],
       left in push order *)
    t.cand.(0) <- 0.;
    t.ncand <- 1;
    (* [z -. z] is 0. for finite [z] and NaN otherwise, so [fin] stays
       0. when sigma and every node constant are finite, and turns NaN
       when one is not (or when their sum overflows: a needless but
       exact fallback in [delay]) *)
    let fin = ref (sigma -. sigma) and negd = ref Float.nan in
    for i = 0 to t.h - 1 do
      let c_h = t.cap.(i) -. (float_of_int i *. gamma) in
      let margin = c_h -. t.rho.(i) -. gamma in
      let r = t.rho.(i) +. gamma and dv = t.dv.(i) in
      t.c.(i) <- c_h;
      t.mg.(i) <- margin;
      t.r.(i) <- r;
      let z = c_h +. margin +. (r +. dv) in
      fin := !fin +. (z -. z);
      if c_h <= 0. then t.case.(i) <- 0
      else
        match t.tag.(i) with
        | 0 ->
          t.case.(i) <- 1;
          let s = sigma /. c_h in
          t.s.(i) <- s;
          push t s
        | 1 ->
          if margin > 0. then begin
            t.case.(i) <- 2;
            let s = sigma /. margin in
            t.s.(i) <- s;
            push t s
          end
          else t.case.(i) <- 0
        | 2 ->
          if margin > 0. then begin
            t.case.(i) <- 3;
            let s = sigma /. margin in
            t.s.(i) <- s;
            push t (s -. dv);
            push t s
          end
          else t.case.(i) <- 4
        | _ ->
          t.case.(i) <- 5;
          (* -.d is the same at every node of a homogeneous path: a
             repeat of the last node's is already in the set *)
          if Float.compare (-.dv) !negd <> 0 then begin
            negd := -.dv;
            push t (-.dv)
          end;
          push t (sigma /. c_h);
          if margin > 0. then push t ((sigma +. (r *. dv)) /. margin)
    done;
    t.finite <- not (!fin <> !fin)
  [@@zero_alloc_check]

  (* Fold the [live] staged candidates — abscissa [ax.(a)], partial sum
     [acc.(a)], candidate index [ai.(a)] — through the nodes, in index
     order or, when [rev], in reverse.  Each node's case tag and
     constants are loaded once per node and shared by its whole row;
     each step adds that node's theta ([theta_of_x]'s expression for
     the case, with the invariant subterms precomputed by [set]) and
     keeps the candidate, in order, only while its partial sum is not
     >= [bound.(0)].  A NaN bound keeps every candidate.  Returns the
     (candidate, node) pairs folded. *)
  let sweep t rev =
    let ax = t.ax and av = t.acc and ai = t.ai in
    let sg = t.sigma and lim = t.bound.(0) in
    let steps = ref 0 and i = ref 0 in
    while !i < t.h && t.live > 0 do
      let ii = if rev then t.h - 1 - !i else !i and m = t.live in
      let cs = t.case.(ii)
      and s = t.s.(ii)
      and mg = t.mg.(ii)
      and dv = t.dv.(ii)
      and r = t.r.(ii)
      and c = t.c.(ii) in
      let k = ref 0 in
      (* [k <= a < m = live <= 3H+1 = length ax = length acc = length
         ai] throughout — the unsafe accesses drop bounds checks only *)
      for a = 0 to m - 1 do
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
        let v = Array.unsafe_get av a +. th in
        if not (v >= lim) then begin
          let kk = !k in
          Array.unsafe_set ax kk x;
          Array.unsafe_set av kk v;
          Array.unsafe_set ai kk (Array.unsafe_get ai a);
          k := kk + 1
        end
      done;
      t.live <- !k;
      steps := !steps + m;
      incr i
    done;
    !steps
  [@@zero_alloc_check]

  let[@inline] count_fold ~evals ~steps =
    if !Telemetry.on then begin
      Telemetry.Counter.add c_objective_evals evals;
      Telemetry.Counter.add c_node_steps steps
    end

  (* The objective at every candidate, into [acc] (in candidate order:
     nothing is dropped under a NaN bound), and its minimum by the
     [fmin1] fold in candidate order.  The candidates are sorted and
     deduplicated first, so that order, and with it the signed zero and
     the NaN the fold returns, is the reference's.  Each accumulator
     starts at its candidate and receives the thetas in node order, so
     every sum, and hence the minimum, is bit-identical to the
     reference's candidate-major [objective] (QCheck-pinned). *)
  let fold_all t =
    sort_candidates t;
    let n = t.ncand in
    for j = 0 to n - 1 do
      let x = t.cand.(j) in
      t.ax.(j) <- x;
      t.acc.(j) <- x;
      t.ai.(j) <- j
    done;
    t.live <- n;
    t.bound.(0) <- Float.nan;
    let steps = sweep t false in
    count_fold ~evals:n ~steps;
    let best = ref Float.infinity in
    for j = 0 to n - 1 do
      best := fmin1 !best t.acc.(j)
    done;
    !best
  [@@zero_alloc_check]

  (* The Eq.-38 minimum by branch-and-bound, in three node-major
     passes.  (1) The warm candidate — the last call's argmin, or the
     next-to-last pushed one on a fresh batch (the second-largest on
     the paper's paths, where the minimum mostly sits) — folds in full;
     its objective is the bound [best].
     (2) Every other candidate with X < [best] folds in reverse node
     order, where the largest thetas (the slowest nodes, on the paper's
     paths) come first, and is dropped once its partial sum reaches
     [best *. slack].  (3) The survivors fold again from X in node
     order, dropped once their partial sum reaches [best]; what is left
     holds the minimum.  Each pass folds only the candidates the one
     before kept.

     Exactness.  With sigma and every compiled constant finite
     ([t.finite]), every theta is >= 0. or +inf, never NaN.  A rounded
     addition of a non-negative term never lowers the sum, so a
     candidate dropped in pass 3 has objective >= [best] and cannot
     undercut the minimum.  Pass 2 sums a subset of the same thetas in
     another order.  A rounded sum of non-negatives is within a factor
     (1 +- u), u = 2^-53, of the exact one (exactly so when it is
     subnormal), so the node-order objective is at least the reverse
     partial sum times ((1 - u) / (1 + u))^H, and [slack] = 1 + 4 H
     epsilon_float (that is, 1 + 8 H u) more than covers this and the
     rounding of [best *. slack]: a candidate dropped in pass 2 also
     has objective >= [best] (overflow only strengthens this).  Pass 2
     keeps everything when [best] is subnormal, where the product's
     rounding is not relative, or [best *. slack] overflows.  Each
     candidate left after pass 3 has its sum formed in node order, as
     in the reference, and equal positive floats have equal bits, so
     the minimum's bits are the full fold's, whatever the order of the
     candidates and however often one repeats.  Two cases take the full
     fold, which orders signed zeros and propagates NaN exactly as
     [fmin1] does: a non-finite constant (a NaN sigma, or an infinite
     cross rate, where a theta can be NaN at some candidates only), and
     an objective that is not > 0. (sigma = +-0.). *)
  let delay t =
    if not t.finite then fold_all t
    else begin
      let n = t.ncand in
      let w = if t.warm < n then t.warm else Int.max 0 (n - 2) in
      let xw = t.cand.(w) in
      t.ax.(0) <- xw;
      t.acc.(0) <- xw;
      t.ai.(0) <- w;
      t.live <- 1;
      t.bound.(0) <- Float.infinity;
      let steps = sweep t false in
      (* an infinite warm objective is dropped at the infinite bound *)
      let best = if t.live = 1 then t.acc.(0) else Float.infinity in
      if not (best > 0.) then begin
        count_fold ~evals:0 ~steps;
        fold_all t
      end
      else begin
        let m = ref 0 in
        for j = 0 to n - 1 do
          let x = t.cand.(j) in
          if j <> w && x < best then begin
            t.ax.(!m) <- x;
            t.acc.(!m) <- x;
            t.ai.(!m) <- j;
            incr m
          end
        done;
        t.live <- !m;
        let lim = best *. t.slack in
        t.bound.(0) <-
          (if best >= Float.min_float && lim < Float.infinity then lim else Float.nan);
        let steps = steps + sweep t true in
        for a = 0 to t.live - 1 do
          t.acc.(a) <- t.ax.(a)
        done;
        t.bound.(0) <- best;
        let steps = steps + sweep t false in
        let b = ref best and arg = ref w and pos = ref true in
        for a = 0 to t.live - 1 do
          let v = t.acc.(a) in
          if not (v > 0.) then pos := false;
          if v < !b then begin
            b := v;
            arg := t.ai.(a)
          end
        done;
        if !pos then begin
          t.warm <- !arg;
          count_fold ~evals:n ~steps;
          !b
        end
        else begin
          count_fold ~evals:0 ~steps;
          fold_all t
        end
      end
    end
  [@@zero_alloc_check]

  (* The minimizing (thetas, X) over the compiled point.  The full fold
     leaves the objective at every candidate in [acc]; the strict-<
     scan below, seeded with X = +0. and its objective, is
     [Reference]'s fold over the same values in the same order.  +0. is
     always a candidate: it sits first, or second behind -0. (see
     [fgt]). *)
  let optimal_thetas t =
    ignore (fold_all t);
    let bx = ref 0. and bv = ref t.acc.(if is_neg_zero t.cand.(0) then 1 else 0) in
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

let delay_at_gamma p ~gamma ~epsilon = Batch.delay_at_gamma (Batch.make p) ~gamma ~epsilon

let optimal_thetas p ~gamma ~sigma =
  let b = Batch.make p in
  Batch.set b ~gamma ~sigma;
  Batch.optimal_thetas b

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
