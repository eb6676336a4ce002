(* Section IV: stochastic end-to-end delay bounds for ∆-schedulers. *)

module Exp = Envelope.Exponential

let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
let c_gamma_evals = Telemetry.Counter.make "e2e.gamma.evals"

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

(* --------------------------------------------------------------- *)
(* Compiled per-path solver kernel for Eq. (38)                      *)

(* Bit-exact local forms of the [Stdlib.Float] comparisons used in the
   Eq.-38 hot loops.  Without flambda, [Float.max]/[Float.min] probe
   [Float.sign_bit] — an external C call — whenever the fast [>]
   comparison fails (i.e. on every clamp-to-zero branch), and
   [Float.is_finite]/[Float.compare] are cross-module calls that box
   both floats.  Those costs land on the innermost expression of the
   objective fold, once per (candidate, node) pair.  The forms below
   compile to straight-line float compares and return the stdlib result
   bit for bit on their stated domains; the sign-bit subtlety they must
   preserve is the (-0., +0.) pair, resolved by [is_neg_zero].

   - [fmax0 d]     = [Float.max 0. d]   for every float [d];
   - [fmax_nz x y] = [Float.max x y]    when [y] is non-NaN (the ∆
     values: [Delta.fin] rejects NaN);
   - [fmin1 x y]   = [Float.min x y]    when at most one operand is NaN
     (the delay folds never hold two: a NaN objective only arises from
     a NaN sigma, which filters every candidate but 0.);
   - [fgt a b]     = [Float.compare a b > 0], and
     [fne a b]     = [Float.compare a b <> 0], both for non-NaN
     operands (the candidate buffers: pushes are filtered finite). *)
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

(* The zero-allocation core behind [delay_given] / [delay_bound]:
   [make] flattens the path into plain arrays once, [set] compiles the
   per-node constants (c_h, margin_h, clipped-∆ case tags) for one
   (gamma, sigma) and writes the candidate abscissae into a reusable
   scratch buffer sorted in place, and the theta/objective evaluations
   dispatch on int case tags with no allocation, no variant matching
   and no list sorting in the inner loop.  Every float expression
   mirrors the list-based reference operation for operation — same
   operands, same order — so all results are bit-identical to
   [Reference.delay_given]/[Reference.sigma_for]; the QCheck suite pins
   this bit-for-bit. *)
module Kernel = struct
  type t = {
    h : int;
    (* gamma-independent per-node inputs *)
    cap : float array;
    rho : float array;
    dv : float array;  (* Fin d; 0. for the infinite cases *)
    tag : int array;   (* 0 Neg_inf | 1 Pos_inf | 2 Fin d >= 0 | 3 Fin d < 0 *)
    (* sigma_for precompute: every envelope in Eq. (31)/(34) shares the
       decay [alpha], so one exp and one log alpha serve them all *)
    alpha : float;
    m_thr : float;
    inv_a : float;     (* 1. /. alpha *)
    log_a : float;     (* log alpha *)
    stoch_m : float array; (* cross_m of the stochastic nodes, in order *)
    (* per-(gamma, sigma) compiled state, overwritten by [set] *)
    mutable sigma : float;
    c : float array;    (* c_h = capacity -. h *. gamma *)
    mg : float array;   (* margin = c_h -. cross_rho -. gamma *)
    r : float array;    (* cross_rho +. gamma *)
    s_c : float array;  (* sigma /. c_h *)
    s_m : float array;  (* sigma /. margin *)
    case : int array;   (* see [theta_at] *)
    cand : float array; (* sorted unique candidate abscissae, first [ncand] *)
    mutable ncand : int;
  }

  let make p =
    let h = hop_count p in
    let cap = Array.make h 0. and rho = Array.make h 0. and dv = Array.make h 0. in
    let tag = Array.make h 0 in
    for i = 0 to h - 1 do
      let nd = p.nodes.(i) in
      cap.(i) <- nd.capacity;
      rho.(i) <- nd.cross_rho;
      match nd.delta with
      | Scheduler.Delta.Neg_inf -> tag.(i) <- 0
      | Scheduler.Delta.Pos_inf -> tag.(i) <- 1
      | Scheduler.Delta.Fin d when d >= 0. ->
        tag.(i) <- 2;
        dv.(i) <- d
      | Scheduler.Delta.Fin d ->
        tag.(i) <- 3;
        dv.(i) <- d
    done;
    let alpha = p.through.Envelope.Ebb.alpha in
    let stoch_m =
      let buf = ref [] in
      for i = h - 1 downto 0 do
        let nd = p.nodes.(i) in
        if not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Neg_inf) then
          buf := nd.cross_m :: !buf
      done;
      Array.of_list !buf
    in
    {
      h;
      cap;
      rho;
      dv;
      tag;
      alpha;
      m_thr = p.through.Envelope.Ebb.m;
      inv_a = 1. /. alpha;
      log_a = log alpha;
      stoch_m;
      sigma = Float.nan;
      c = Array.make h 0.;
      mg = Array.make h 0.;
      r = Array.make h 0.;
      s_c = Array.make h 0.;
      s_m = Array.make h 0.;
      case = Array.make h 0;
      cand = Array.make ((3 * h) + 1) 0.;
      ncand = 0;
    }

  (* [sigma_for] with the shared-decay algebra folded out: the reference
     builds (stoch + 1) Exponential.t records through [geometric_sum] and
     [combine], but all of them carry the same [a = alpha], so [q], [log
     alpha] and [alpha *. w] are computed once and only the per-node [log
     m_i] remain (cached against the previous node — homogeneous paths
     pay a single log).  Each remaining float op replicates the reference
     expression exactly; reads only immutable fields, so one kernel may
     serve [sigma_for] from several domains concurrently. *)
  let sigma_for t ~gamma ~epsilon =
    if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
    if t.m_thr < 0. || t.m_thr <> t.m_thr then
      invalid_arg "Exponential.v: negative prefactor";
    if t.alpha <= 0. || t.alpha <> t.alpha then
      invalid_arg "Exponential.v: non-positive rate";
    let q = exp (-.t.alpha *. gamma) in
    let omq = 1. -. q in
    let m_g = t.m_thr /. omq in
    let n = Array.length t.stoch_m in
    if n = 0 then begin
      (* combine [eps_g] = eps_g *)
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_g /. epsilon) /. t.alpha)
    end
    else begin
      let w = ref 0. in
      for _ = 0 to n do
        w := !w +. t.inv_a
      done;
      let w = !w in
      let aw = t.alpha *. w in
      let acc = ref 0. in
      acc := !acc +. ((log m_g +. t.log_a) /. aw);
      let last_m = ref Float.nan and last_log = ref 0. in
      for i = 0 to n - 1 do
        let cm = t.stoch_m.(i) in
        if cm < 0. || cm <> cm then
          invalid_arg "Exponential.v: negative prefactor";
        let mi = if i < n - 1 then cm /. omq /. omq else cm /. omq in
        (* [=] as the log-memo key is sound and bit-exact: a fresh NaN
           key always misses (NaN <> everything, and the seed is NaN),
           and the one compare-equal bit-distinct pair, -0. and +0.,
           has log(-0.) = log(+0.) = -inf, so a hit returns exactly
           what the recompute would. *)
        let lm =
          if mi = !last_m then !last_log
          else begin
            let l = log mi in
            last_m := mi;
            last_log := l;
            l
          end
        in
        acc := !acc +. ((lm +. t.log_a) /. aw)
      done;
      let log_m = log w +. !acc in
      let m_c = exp log_m in
      let a_c = 1. /. w in
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_c /. epsilon) /. a_c)
    end
  [@@zero_alloc_check]

  (* case tags compiled by [set]:
     0 — theta = +inf for every x (c_h <= 0, or BMUX with margin <= 0)
     1 — strict priority (Neg_inf)
     2 — BMUX, margin > 0
     3 — Fin d >= 0, margin > 0
     4 — Fin d >= 0, margin <= 0
     5 — Fin d < 0 *)
  let set t ~gamma ~sigma =
    t.sigma <- sigma;
    (* candidate multiset: 0. first, then per node in index order — the
       same pushes, filters and float expressions as [x_candidates] *)
    t.cand.(0) <- 0.;
    t.ncand <- 1;
    for i = 0 to t.h - 1 do
      let c_h = t.cap.(i) -. (float_of_int i *. gamma) in
      let margin = c_h -. t.rho.(i) -. gamma in
      t.c.(i) <- c_h;
      t.mg.(i) <- margin;
      t.r.(i) <- t.rho.(i) +. gamma;
      t.s_c.(i) <- sigma /. c_h;
      t.s_m.(i) <- sigma /. margin;
      let push x =
        (* [x -. x = 0.] is [Float.is_finite] inlined (a cross-module
           call otherwise): NaN and the infinities fail it bit-exactly. *)
        if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then begin
          t.cand.(t.ncand) <- x;
          t.ncand <- t.ncand + 1
        end
      in
      if c_h <= 0. then t.case.(i) <- 0
      else
        match t.tag.(i) with
        | 0 ->
          t.case.(i) <- 1;
          push t.s_c.(i)
        | 1 ->
          if margin > 0. then begin
            t.case.(i) <- 2;
            push t.s_m.(i)
          end
          else t.case.(i) <- 0
        | 2 ->
          if margin > 0. then begin
            t.case.(i) <- 3;
            push t.s_m.(i);
            push (t.s_m.(i) -. t.dv.(i))
          end
          else t.case.(i) <- 4
        | _ ->
          t.case.(i) <- 5;
          push (-.t.dv.(i));
          push t.s_c.(i);
          if margin > 0. then push ((sigma +. (t.r.(i) *. t.dv.(i))) /. margin)
    done;
    (* in-place insertion sort + adjacent dedup: the candidate sets are
       tiny (<= 3H + 1), and the result equals List.sort_uniq
       Float.compare on the same multiset *)
    for i = 1 to t.ncand - 1 do
      let x = t.cand.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && fgt t.cand.(!j) x do
        t.cand.(!j + 1) <- t.cand.(!j);
        decr j
      done;
      t.cand.(!j + 1) <- x
    done;
    if t.ncand > 1 then begin
      let w = ref 1 in
      for i = 1 to t.ncand - 1 do
        if fne t.cand.(i) t.cand.(!w - 1) then begin
          t.cand.(!w) <- t.cand.(i);
          incr w
        end
      done;
      t.ncand <- !w
    end
  [@@zero_alloc_check]

  let candidate_count t = t.ncand

  (* [theta_of_x] over the compiled constants: int-tag dispatch, no
     allocation.  The guards and both sides of every comparison are the
     reference expressions with the invariant subterms precomputed. *)
  let[@inline] theta_at t x i =
    match t.case.(i) with
    | 0 -> Float.infinity
    | 1 -> fmax0 (t.s_c.(i) -. x)
    | 2 -> fmax0 (t.s_m.(i) -. x)
    | 3 ->
      if t.mg.(i) *. x >= t.sigma then 0.
      else if t.s_m.(i) -. x <= t.dv.(i) then t.s_m.(i) -. x
      else begin
        let theta2 = ((t.sigma +. (t.r.(i) *. (x +. t.dv.(i)))) /. t.c.(i)) -. x in
        fmax_nz theta2 t.dv.(i)
      end
    | 4 ->
      if t.mg.(i) *. x >= t.sigma then 0.
      else begin
        let theta2 = ((t.sigma +. (t.r.(i) *. (x +. t.dv.(i)))) /. t.c.(i)) -. x in
        fmax_nz theta2 t.dv.(i)
      end
    | _ ->
      fmax0 (((t.sigma +. (t.r.(i) *. fmax0 (x +. t.dv.(i)))) /. t.c.(i)) -. x)
  [@@zero_alloc_check]

  let objective_at t x =
    let acc = ref x in
    for i = 0 to t.h - 1 do
      acc := !acc +. theta_at t x i
    done;
    !acc
  [@@zero_alloc_check]

  let delay t =
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals t.ncand;
    let best = ref Float.infinity in
    for i = 0 to t.ncand - 1 do
      best := fmin1 !best (objective_at t t.cand.(i))
    done;
    !best
  [@@zero_alloc_check]

  let optimal_thetas t =
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals (t.ncand + 1);
    let bx = ref 0. and bv = ref (objective_at t 0.) in
    for i = 0 to t.ncand - 1 do
      let x = t.cand.(i) in
      let v = objective_at t x in
      if v < !bv then begin
        bx := x;
        bv := v
      end
    done;
    let x = !bx in
    (Array.init t.h (fun i -> theta_at t x i), x)

  let delay_at_gamma t ~gamma ~epsilon =
    let sigma = sigma_for t ~gamma ~epsilon in
    set t ~gamma ~sigma;
    delay t
  [@@zero_alloc_check]
end

(* --------------------------------------------------------------- *)
(* Structure-of-arrays panel evaluation over a compiled kernel        *)

(* [Batch] evaluates whole γ×s panels of Eq.-38 delays over the flat
   arrays of one compiled {!Kernel}.  Three things make a panel cheaper
   than a loop of [Kernel.set]/[Kernel.delay] calls:

   - [Kernel.set] is split into a γ-dependent row compile ([set_row]:
     c_h, margin, r and the case tags — none of which read sigma) and a
     σ-dependent point compile ([set_sigma]: the sigma ratios and the
     candidate multiset), so a row of σ values shares one γ compile;
   - the candidate sort warm-starts from the previous point's sorted
     permutation: the candidates are smooth functions of (γ, σ), so
     adjacent grid points present an almost-sorted buffer and the
     insertion sort runs in near-linear time instead of quadratic;
   - the delay fold sweeps node-major over per-candidate accumulators
     instead of candidate-major over [Kernel.objective_at], so each
     node's case tag is dispatched once per point rather than once per
     (candidate, node) pair (see [delay]).

   None of this changes a single output bit.  [set_row]+[set_sigma]
   evaluate exactly the float expressions of [Kernel.set] in the same
   order, the sorted-unique candidate array is a pure function of the
   candidate multiset (any Float.compare sort of the same multiset,
   deduped by compare-equality, yields the same floats in the same
   slots), and the interchanged fold adds the same thetas to the same
   starting values in the same (node) order per candidate.  The QCheck
   suite pins [Batch] ≡ [Kernel] ≡ [Reference] bitwise on random
   panels. *)
module Batch = struct
  type t = {
    k : Kernel.t;
    raw : float array;   (* candidate multiset in push order *)
    perm : int array;    (* sorted position -> push position, last point *)
    mutable nperm : int; (* valid [perm] arity; -1 before the first point *)
    acc : float array;   (* per-candidate objective accumulators *)
  }

  let make p =
    let k = Kernel.make p in
    let cap = (3 * hop_count p) + 1 in
    {
      k;
      raw = Array.make cap 0.;
      perm = Array.make cap 0;
      nperm = -1;
      acc = Array.make cap 0.;
    }

  let kernel t = t.k

  (* The γ-dependent half of [Kernel.set]: per-node constants and case
     tags.  Same expressions, same order; nothing here reads sigma. *)
  let set_row t ~gamma =
    let k = t.k in
    for i = 0 to k.Kernel.h - 1 do
      let c_h = k.Kernel.cap.(i) -. (float_of_int i *. gamma) in
      let margin = c_h -. k.Kernel.rho.(i) -. gamma in
      k.Kernel.c.(i) <- c_h;
      k.Kernel.mg.(i) <- margin;
      k.Kernel.r.(i) <- k.Kernel.rho.(i) +. gamma;
      if c_h <= 0. then k.Kernel.case.(i) <- 0
      else
        match k.Kernel.tag.(i) with
        | 0 -> k.Kernel.case.(i) <- 1
        | 1 -> k.Kernel.case.(i) <- (if margin > 0. then 2 else 0)
        | 2 -> k.Kernel.case.(i) <- (if margin > 0. then 3 else 4)
        | _ -> k.Kernel.case.(i) <- 5
    done
  [@@zero_alloc_check]

  (* The σ-dependent half: per-node sigma ratios and the candidate
     multiset — the same pushes, filters and float expressions as
     [Kernel.set], keyed off the case tags [set_row] compiled — then
     the warm-started insertion sort.  Seeding the buffer through the
     previous point's sorted permutation leaves it almost sorted for
     adjacent grid points; the sort itself stays exact, so the sorted
     array equals [List.sort_uniq Float.compare] on the same multiset
     no matter how stale the permutation is. *)
  let set_sigma t ~sigma =
    let k = t.k in
    k.Kernel.sigma <- sigma;
    t.raw.(0) <- 0.;
    let n = ref 1 in
    for i = 0 to k.Kernel.h - 1 do
      let s_c = sigma /. k.Kernel.c.(i) in
      let s_m = sigma /. k.Kernel.mg.(i) in
      k.Kernel.s_c.(i) <- s_c;
      k.Kernel.s_m.(i) <- s_m;
      let push x =
        if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then begin
          t.raw.(!n) <- x;
          incr n
        end
      in
      match k.Kernel.case.(i) with
      | 1 -> push s_c
      | 2 -> push s_m
      | 3 ->
        push s_m;
        push (s_m -. k.Kernel.dv.(i))
      | 5 ->
        push (-.k.Kernel.dv.(i));
        push s_c;
        if k.Kernel.mg.(i) > 0. then
          push ((sigma +. (k.Kernel.r.(i) *. k.Kernel.dv.(i))) /. k.Kernel.mg.(i))
      | _ -> ()
    done;
    let n = !n in
    let cand = k.Kernel.cand in
    if t.nperm = n then
      for j = 0 to n - 1 do
        cand.(j) <- t.raw.(t.perm.(j))
      done
    else
      for j = 0 to n - 1 do
        cand.(j) <- t.raw.(j);
        t.perm.(j) <- j
      done;
    for i = 1 to n - 1 do
      let x = cand.(i) in
      let px = t.perm.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && fgt cand.(!j) x do
        cand.(!j + 1) <- cand.(!j);
        t.perm.(!j + 1) <- t.perm.(!j);
        decr j
      done;
      cand.(!j + 1) <- x;
      t.perm.(!j + 1) <- px
    done;
    t.nperm <- n;
    (* adjacent dedup, exactly as [Kernel.set]; [perm] keeps the
       pre-dedup arity — the next point rebuilds from [raw] anyway *)
    k.Kernel.ncand <- n;
    if n > 1 then begin
      let w = ref 1 in
      for i = 1 to n - 1 do
        if fne cand.(i) cand.(!w - 1) then begin
          cand.(!w) <- cand.(i);
          incr w
        end
      done;
      k.Kernel.ncand <- !w
    end
  [@@zero_alloc_check]

  (* [Kernel.delay] with the candidate/node loops interchanged:
     [Kernel.objective_at] re-dispatches the case tag and reloads the
     per-node constants for every (candidate, node) pair; sweeping
     node-major instead dispatches once per node, keeps that node's
     constants in registers across the whole candidate row, and adds its
     theta into a per-candidate accumulator.  Each accumulator still
     starts at its candidate and receives the thetas in node order — the
     theta expressions below are [Kernel.theta_at]'s, operation for
     operation — so every partial sum, and hence the final [Float.min]
     fold in candidate order, is bit-identical to [Kernel.delay]
     (QCheck-pinned). *)
  let delay t =
    let k = t.k in
    let n = k.Kernel.ncand in
    let cand = k.Kernel.cand and acc = t.acc in
    (* [j < n = ncand <= 3H+1 = length cand = length acc] throughout —
       the unsafe accesses below drop the per-pair bounds checks only. *)
    for j = 0 to n - 1 do
      Array.unsafe_set acc j (Array.unsafe_get cand j)
    done;
    for i = 0 to k.Kernel.h - 1 do
      match k.Kernel.case.(i) with
      | 0 ->
        for j = 0 to n - 1 do
          Array.unsafe_set acc j (Array.unsafe_get acc j +. Float.infinity)
        done
      | 1 ->
        let s = k.Kernel.s_c.(i) in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. fmax0 (s -. Array.unsafe_get cand j))
        done
      | 2 ->
        let s = k.Kernel.s_m.(i) in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. fmax0 (s -. Array.unsafe_get cand j))
        done
      | 3 ->
        let mg = k.Kernel.mg.(i)
        and sg = k.Kernel.sigma
        and s_m = k.Kernel.s_m.(i)
        and dv = k.Kernel.dv.(i)
        and r = k.Kernel.r.(i)
        and c = k.Kernel.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          let th =
            if mg *. x >= sg then 0.
            else if s_m -. x <= dv then s_m -. x
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          in
          Array.unsafe_set acc j (Array.unsafe_get acc j +. th)
        done
      | 4 ->
        let mg = k.Kernel.mg.(i)
        and sg = k.Kernel.sigma
        and dv = k.Kernel.dv.(i)
        and r = k.Kernel.r.(i)
        and c = k.Kernel.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          let th =
            if mg *. x >= sg then 0.
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          in
          Array.unsafe_set acc j (Array.unsafe_get acc j +. th)
        done
      | _ ->
        let sg = k.Kernel.sigma
        and dv = k.Kernel.dv.(i)
        and r = k.Kernel.r.(i)
        and c = k.Kernel.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          Array.unsafe_set acc j
            (Array.unsafe_get acc j
            +. fmax0 (((sg +. (r *. fmax0 (x +. dv))) /. c) -. x))
        done
    done;
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals n;
    let best = ref Float.infinity in
    for j = 0 to n - 1 do
      best := fmin1 !best (Array.unsafe_get acc j)
    done;
    !best
  [@@zero_alloc_check]

  (* Diagonal points — gamma AND sigma both change — compile through
     [Kernel.set]: the split row/σ compile walks the nodes twice and
     maintains the warm-start permutation, which only pays off when the
     γ half is reused across a row ([run_panel]).  On a diagonal the
     fused single-pass compile is strictly cheaper, and the candidate
     buffer it leaves behind is the same sorted array either way. *)
  let delay_given_at t ~gamma ~sigma =
    Kernel.set t.k ~gamma ~sigma;
    t.nperm <- -1;
    delay t
  [@@zero_alloc_check]

  let delay_at_gamma t ~gamma ~epsilon =
    let sigma = Kernel.sigma_for t.k ~gamma ~epsilon in
    Kernel.set t.k ~gamma ~sigma;
    t.nperm <- -1;
    delay t
  [@@zero_alloc_check]

  (* The panel drivers.  All hot-loop state lives in the compiled batch
     and the caller's output buffer: nothing below allocates (enforced
     by the zero_alloc analyzer), so a worker can stream panels of any
     size without touching the GC. *)

  let run_gammas t ~epsilon ~gammas ~out =
    if Array.length out < Array.length gammas then
      invalid_arg "E2e.Batch.run_gammas: output buffer shorter than the grid";
    for i = 0 to Array.length gammas - 1 do
      out.(i) <- delay_at_gamma t ~gamma:gammas.(i) ~epsilon
    done
  [@@zero_alloc_check]

  let run_points t ~gammas ~sigmas ~out =
    let n = Array.length gammas in
    if Array.length sigmas <> n then
      invalid_arg "E2e.Batch.run_points: gamma/sigma arity mismatch";
    if Array.length out < n then
      invalid_arg "E2e.Batch.run_points: output buffer shorter than the points";
    for i = 0 to n - 1 do
      out.(i) <- delay_given_at t ~gamma:gammas.(i) ~sigma:sigmas.(i)
    done
  [@@zero_alloc_check]

  let run_panel t ~gammas ~sigmas ~out =
    let ng = Array.length gammas and ns = Array.length sigmas in
    if Array.length out < ng * ns then
      invalid_arg "E2e.Batch.run_panel: output buffer shorter than the panel";
    for i = 0 to ng - 1 do
      set_row t ~gamma:gammas.(i);
      let row = i * ns in
      for j = 0 to ns - 1 do
        set_sigma t ~sigma:sigmas.(j);
        out.(row + j) <- delay t
      done
    done
  [@@zero_alloc_check]
end

(* The pre-kernel list-based solver, retained verbatim: the oracle for
   the QCheck bit-for-bit equivalence properties and the baseline side
   of the ns/op benchmark. *)
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

  (* O(H^2): [suffix_sum] re-walks the tail for every candidate K. *)
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
end

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
  let k = Kernel.make p in
  Kernel.set k ~gamma ~sigma;
  Kernel.delay k

let delay_at_gamma p ~gamma ~epsilon =
  let k = Kernel.make p in
  Kernel.delay_at_gamma k ~gamma ~epsilon

let optimal_thetas p ~gamma ~sigma =
  let k = Kernel.make p in
  Kernel.set k ~gamma ~sigma;
  Kernel.optimal_thetas k

(* Estimated cost of one [delay_at_gamma] in abstract work units
   (~Eq.-38 node-steps): ~3H+1 candidates x H nodes, plus the
   transcendentals of [sigma_for].  Feeds the [?work] cutoff hints of
   the parallel grid scans here and in Scenario/Additive/Scaling. *)
let eval_cost p =
  let h = hop_count p in
  (3 * h * h) + (8 * h) + 50

(* --------------------------------------------------------------- *)
(* The network service curve as an explicit min-plus object          *)

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
    invalid_arg "E2e.network_service_curve: arity mismatch";
  Array.iter
    (fun th -> if th < 0. then invalid_arg "E2e.network_service_curve: negative theta")
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

let backlog_given p ~gamma ~sigma =
  (* Any thetas yield a valid service curve; minimize the vertical
     deviation over the same candidate X values as the delay problem. *)
  let arrival = through_envelope_curve p ~gamma ~sigma in
  let backlog_at x =
    let thetas = Array.init (hop_count p) (fun h -> theta_of_x p ~gamma ~sigma ~x h) in
    if Array.exists (fun t -> not (Float.is_finite t)) thetas then Float.infinity
    else
      Minplus.Deviation.vertical ~arrival
        ~service:(network_service_curve p ~gamma ~thetas)
  in
  List.fold_left
    (fun acc x -> Float.min acc (backlog_at x))
    Float.infinity
    (x_candidates p ~gamma ~sigma)

(* The γ range every search over this path probes: (0, gamma_max) pulled
   in at both ends, since sigma diverges as γ -> 0 and the node margins
   vanish as γ -> gamma_max.  One definition for every search, so the
   bracket [delay_bound_floor] certifies is the one [delay_bound]
   probes. *)
let gamma_bracket gmax = (gmax *. 1e-6, gmax *. 0.999)

let backlog_bound ?(gamma_points = 40) ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then invalid_arg "E2e.backlog_bound: epsilon out of range";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity
  else
    Telemetry.span "e2e.backlog_gamma_search"
      ~attrs:[ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
    @@ fun () ->
  begin
    let f gamma =
      if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
      let sigma = sigma_for p ~gamma ~epsilon in
      backlog_given p ~gamma ~sigma
    in
    let lo, hi = gamma_bracket gmax in
    let ratio = (hi /. lo) ** (1. /. float_of_int (gamma_points - 1)) in
    (* grid points fan out on the default pool; Grid keeps the abscissae
       and the running-minimum fold bit-identical to the sequential loop.
       Curve construction dominates each evaluation, hence the h^3 hint. *)
    let h = hop_count p in
    Parallel.Grid.min_value ~work:((32 * h * h * h) + 200) f
      (Parallel.Grid.log_spaced ~lo ~ratio ~points:gamma_points)
  end

let golden_minimize f lo hi steps =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec go a b n =
    if n = 0 then 0.5 *. (a +. b)
    else
      let x1 = b -. (phi *. (b -. a)) and x2 = a +. (phi *. (b -. a)) in
      if f x1 <= f x2 then go a x2 (n - 1) else go x1 b (n - 1)
  in
  go lo hi steps

(* The coarse γ grid of [gamma_search] and its ratio: log-spaced from
   [lo] by repeated multiplication, so the top point can overshoot [hi]
   by a few ulps of accumulated rounding. *)
let gamma_grid ~gamma_points ~lo ~hi =
  let ratio = (hi /. lo) ** (1. /. float_of_int (gamma_points - 1)) in
  (ratio, Parallel.Grid.log_spaced ~lo ~ratio ~points:gamma_points)

(* The shared gamma-search skeleton: a log-spaced coarse grid handed
   whole to [grid_vals] (the batched scan of [delay_grid], or a
   [Parallel.Grid.values] fan-out — either way the index-order strict-<
   fold below is exactly [Parallel.Grid.argmin]), then sequential
   golden-section refinement around the best grid point.  [golden_eval]
   runs on the calling domain only, so it may reuse one compiled batch.
   Both are pure functions of gamma, so the golden phase memoizes per
   gamma value.  The memo is a small ring of recent probes scanned by
   primitive float [=] (gammas are positive and non-NaN, so value
   equality is bit equality): golden-section probes cluster as the
   bracket shrinks, so collisions — when the narrowed bracket re-lands
   on a recent abscissa, or the final midpoint repeats a probe — are
   always with the last few evaluations, and a fixed window catches
   them at constant scan cost where a full history scan of every probe
   paid its whole length on each miss.  A hit and a recomputation
   return the same float, so memo policy can never change the result;
   the flat arrays keep the golden loop off the GC (the old [Hashtbl]
   keyed on [Int64.bits_of_float] boxed a key per probe). *)
let gamma_search ~gamma_points ~grid_vals ~golden_eval ~lo ~hi =
  let (ratio, grid) = gamma_grid ~gamma_points ~lo ~hi in
  let vals = grid_vals grid in
  let bi = ref 0 in
  for i = 1 to Array.length vals - 1 do
    if vals.(i) < vals.(!bi) then bi := i
  done;
  let win = 8 in
  (* NaN keys never match a (positive) probe, so empty slots are inert *)
  let mg = Array.make win Float.nan and mv = Array.make win 0. in
  let mw = ref 0 in
  let fm gamma =
    let found = ref Float.nan in
    let hit = ref false in
    let i = ref 0 in
    while (not !hit) && !i < win do
      if mg.(!i) = gamma then begin
        found := mv.(!i);
        hit := true
      end;
      incr i
    done;
    if !hit then !found
    else begin
      let v = golden_eval gamma in
      mg.(!mw) <- gamma;
      mv.(!mw) <- v;
      mw := (!mw + 1) mod win;
      v
    end
  in
  let center = grid.(!bi) in
  let a = Float.max lo (center /. ratio) and b = Float.min hi (center *. ratio) in
  let gstar = golden_minimize fm a b 40 in
  Float.min vals.(!bi) (fm gstar)

(* --------------------------------------------------------------- *)
(* Batched gamma-grid evaluation                                     *)

(* Grid scans run through {!Batch} in contiguous blocks: one compiled
   batch per block amortizes [Kernel.make] over [batch_block] points and
   warm-starts the candidate sort across adjacent gammas, while the
   per-task [?work] hint ([eval_cost] x block) shows the pool the true
   per-chunk cost, so the sequential-vs-parallel decision matches the
   per-point fan-out.  The per-point path is retained behind
   [set_grid_batching false]: it is the differential oracle for the
   QCheck equivalence pins and the unbatched side of the bench figure
   sections.  Both paths are bit-identical point for point, so the
   toggle can never change a published number. *)
let grid_batching_on = ref true
let set_grid_batching b = grid_batching_on := b
let grid_batching () = !grid_batching_on

(* 4 blocks over the default 40-point gamma grid: enough tasks to feed
   a small pool when the grid fans out, rows long enough that the
   amortized compile and the warm start pay when it does not *)
let batch_block = 10

let delay_grid ~epsilon p gammas =
  if !Telemetry.on then Telemetry.Counter.add c_gamma_evals (Array.length gammas);
  if !grid_batching_on then
    Parallel.Grid.values_blocked ~work:(eval_cost p) ~block:batch_block
      (fun block ->
        let bt = Batch.make p in
        let out = Array.make (Array.length block) 0. in
        Batch.run_gammas bt ~epsilon ~gammas:block ~out;
        out)
      gammas
  else
    Parallel.Grid.values ~work:(eval_cost p)
      (fun gamma -> delay_at_gamma p ~gamma ~epsilon)
      gammas

(* [delay_bound]'s default γ-grid size: the search [delay_bound_floor]
   certifies *)
let default_gamma_points = 40

let delay_bound ?(gamma_points = default_gamma_points) ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then invalid_arg "E2e.delay_bound: epsilon out of range";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity
  else
    Telemetry.span "e2e.gamma_search"
      ~attrs:[ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
    @@ fun () ->
  begin
    let golden_eval =
      if !grid_batching_on then begin
        let bt = Batch.make p in
        fun gamma ->
          if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
          Batch.delay_at_gamma bt ~gamma ~epsilon
      end
      else begin
        let kern = Kernel.make p in
        fun gamma ->
          if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
          Kernel.delay_at_gamma kern ~gamma ~epsilon
      end
    in
    let lo, hi = gamma_bracket gmax in
    gamma_search ~gamma_points ~grid_vals:(delay_grid ~epsilon p) ~golden_eval ~lo ~hi
  end

(* A lower bound on [delay_bound ~epsilon p] from one Eq.-38 evaluation.
   Every value [delay_bound] returns is the Eq.-38 minimum at some probe
   γ in [lo, top]: the bracket, stretched to the top γ-grid point when
   rounding lands it past [hi].  At fixed X, each θ_h is the smallest
   θ >= 0 with c_h (X + θ) - r_h (X + min(∆, θ))_+ >= σ, so it falls as
   c_h (= C - hγ) or the margin c_h - r_h grows and rises with r_h
   (= ρ_c + γ) and with σ, in every ∆ case.  c_h and the margin shrink,
   r_h grows and σ shrinks as γ grows, so compiling the nodes at γ = lo
   and taking σ at γ = top makes every θ_h(X), hence the X-minimum, no
   larger than at any probe.  [floor_margin] absorbs the rounding of the
   two evaluations (DESIGN.md, "Certified s-grid").  When σ is
   non-finite at either end a probe could yield NaN, so the floor is
   [neg_infinity] and certifies nothing; an overloaded path
   ([gamma_max <= 0]) gets [infinity], as [delay_bound] returns. *)
let floor_margin = 1. -. 1e-9

let delay_bound_floor ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "E2e.delay_bound_floor: epsilon out of range";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity
  else begin
    let lo, hi = gamma_bracket gmax in
    let (_, grid) = gamma_grid ~gamma_points:default_gamma_points ~lo ~hi in
    let top = Float.max hi grid.(default_gamma_points - 1) in
    let k = Kernel.make p in
    let sigma_lo = Kernel.sigma_for k ~gamma:lo ~epsilon
    and sigma_top = Kernel.sigma_for k ~gamma:top ~epsilon in
    if not (Float.is_finite sigma_lo && Float.is_finite sigma_top) then Float.neg_infinity
    else begin
      Kernel.set k ~gamma:lo ~sigma:sigma_top;
      let v = Kernel.delay k in
      if Float.is_nan v then Float.neg_infinity else v *. floor_margin
    end
  end

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

(* Smallest K in 0..H satisfying Eq. (40):
   sum_{h > K} (C -. rho_c -. h gamma) /. (C -. (h-1) gamma) < 1.
   One O(H) backward pass materializes every suffix sum: the recursion
   [suffix_sum k = term k +. suffix_sum (k+1)] associates to the right,
   and the backward fill below performs the same additions in the same
   order, so each [suffix.(k)] is bit-identical to the
   [Reference.smallest_k] recomputation (pinned by a test up to H = 10^3). *)
let smallest_k ~extra_ok ~h ~c ~rho_c ~gamma =
  let term k =
    (c -. rho_c -. (float_of_int k *. gamma))
    /. (c -. (float_of_int (k - 1) *. gamma))
  in
  (* entry cost, not per-candidate cost: one scratch array sized by the
     hop count, filled by the backward pass below *)
  let suffix = (Array.make (h + 2) 0. [@lint.allow "zero-alloc"]) in
  for k = h downto 1 do
    suffix.(k) <- term k +. suffix.(k + 1)
  done;
  let rec find k =
    if k > h then h
    else if suffix.(k + 1) < 1. && extra_ok k then k
    else find (k + 1)
  in
  find 0
  [@@zero_alloc_check]

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

(* --------------------------------------------------------------- *)
(* Closed-form dispatch ahead of candidate enumeration               *)

let delay_given_fast p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given_fast: negative sigma";
  if is_homogeneous p then k_procedure p ~gamma ~sigma
  else delay_given p ~gamma ~sigma

let delay_bound_fast ?(gamma_points = 40) ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "E2e.delay_bound_fast: epsilon out of range";
  if not (is_homogeneous p) then delay_bound ~gamma_points ~epsilon p
  else begin
    let gmax = gamma_max p in
    if gmax <= 0. then Float.infinity
    else
      Telemetry.span "e2e.gamma_search_fast"
        ~attrs:
          [ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
      @@ fun () ->
    begin
      (* [Kernel.sigma_for] only reads immutable kernel state, so one
         kernel serves the parallel grid and the golden phase alike. *)
      let kern = Kernel.make p in
      let f gamma =
        if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
        let sigma = Kernel.sigma_for kern ~gamma ~epsilon in
        k_procedure p ~gamma ~sigma
      in
      let h = hop_count p in
      let lo, hi = gamma_bracket gmax in
      (* the K-procedure has no per-point compile to amortize, so the
         grid stays a per-point fan-out *)
      gamma_search ~gamma_points
        ~grid_vals:(Parallel.Grid.values ~work:((8 * h) + 50) f)
        ~golden_eval:f ~lo ~hi
    end
  end

(* The serving hot path: gamma search over a caller-retained batch.  The
   batch's [set_row]/[set_sigma]/[delay] scratch state is mutable, so
   everything stays on the calling domain — no [Parallel.Grid] fan-out,
   no [Kernel.make].  The grid walks gammas in log-spaced order, so the
   warm-started candidate sort sees almost-sorted buffers throughout.
   Soundness does not depend on finding the optimum: every probed gamma
   yields a valid Eq.-38 bound, so a coarse grid only costs tightness. *)
let delay_bound_cached ?(gamma_points = 12) ~batch ~epsilon p =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "E2e.delay_bound_cached: epsilon out of range";
  if gamma_points < 2 then invalid_arg "E2e.delay_bound_cached: gamma_points < 2";
  let gmax = gamma_max p in
  if gmax <= 0. then Float.infinity
  else begin
    let f gamma =
      if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
      Batch.delay_at_gamma batch ~gamma ~epsilon
    in
    let lo, hi = gamma_bracket gmax in
    let ratio = (hi /. lo) ** (1. /. float_of_int (gamma_points - 1)) in
    let best = ref Float.infinity in
    let g = ref lo in
    let center = ref lo in
    for _ = 0 to gamma_points - 1 do
      let v = f !g in
      if v < !best then begin
        best := v;
        center := !g
      end;
      g := !g *. ratio
    done;
    let a = Float.max lo (!center /. ratio) and b = Float.min hi (!center *. ratio) in
    let gstar = golden_minimize f a b 20 in
    Float.min !best (f gstar)
  end
