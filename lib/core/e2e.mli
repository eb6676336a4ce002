(** Probabilistic end-to-end delay bounds for ∆-schedulers over a multi-node
    path — Section IV of the paper.

    The through flow is EBB [(m, rho, alpha)]; the cross aggregate at node
    [h] is EBB [(cross_m, cross_rho, alpha)] (a common decay [alpha], as in
    the paper where both sides are characterized by the same effective
    bandwidth parameter).  Per-node sample-path envelopes use a slack rate
    [gamma]; composing the [H] per-node service curves (Eq. 28) into a
    network service curve (Eq. 30) costs a rate degradation of [gamma] per
    node and yields the closed-form bounding function of Eq. (34).  The
    delay bound is the optimization problem of Eq. (38),

    minimize [X +. sum_h theta_h] subject to
    [(C -. (h-1) gamma) (X +. theta_h)
       -. (cross_rho +. gamma) (X +. ∆(theta_h))_+ >= sigma],

    solved exactly here (the objective is piecewise linear in [X] once each
    [theta_h] is taken as the smallest feasible solution, so enumerating
    the kinks of [X -> X +. sum_h theta_h X] is exact), alongside the
    paper's explicit near-optimal K-procedure (Eq. 40–42) and the closed
    forms for blind multiplexing (Eq. 43) and FIFO (Eq. 44). *)

type node = {
  capacity : float;
  cross_rho : float;
  cross_m : float;
  delta : Scheduler.Delta.t;  (** [∆_{0,c}] at this node *)
}

type path = {
  nodes : node array;
  through : Envelope.Ebb.t;
}

val homogeneous :
  h:int ->
  capacity:float ->
  cross:Envelope.Ebb.t ->
  delta:Scheduler.Delta.t ->
  through:Envelope.Ebb.t ->
  path
(** @raise Invalid_argument if [h <= 0] or the EBB decays differ. *)

val hop_count : path -> int

val gamma_max : path -> float
(** Largest admissible slack rate, [min_h (C_h -. rho_c^h -. rho) /. (H+1)]
    (Eq. 32); non-positive means the path is overloaded. *)

val total_bound : path -> gamma:float -> Envelope.Exponential.t
(** The end-to-end violation bounding function: the through envelope bound
    combined with the network service bound of Eq. (31)/(34). *)

val sigma_for : path -> gamma:float -> epsilon:float -> float
(** Invert {!total_bound} at the target violation probability. *)

val theta_of_x : path -> gamma:float -> sigma:float -> x:float -> int -> float
(** [theta_of_x p ~gamma ~sigma ~x h] — smallest feasible [theta_h] for the
    0-indexed node [h] given [X = x]; [infinity] when node [h]'s constraint
    is infeasible at every [theta]. *)

(** The compiled zero-allocation Eq.-38 evaluator.

    [make] allocates plain float/int arrays for one hop count and
    flattens a path into them; [retarget] flattens another path of the
    same hop count into the same arrays.  [set] compiles the per-node
    constants ([c_h], [margin_h], clipped-∆ case tags, and only the
    division each case reads) for one [(gamma, sigma)] and sorts the
    candidate abscissae, each with the objective's slope to its right:
    every [theta_h] is piecewise linear with slopes in [{-1, r/c - 1,
    0}], so [set] records each kink's slope jump, per kind of kink in
    a run that grows with the node index on a homogeneous path, and
    merges the runs.  [delay] takes the minimum by one sweep of those
    slopes: it folds the bottom of each convex piece of the objective
    (one on every path without a node of [∆ > 0]) and, walking out from
    each bottom, every candidate whose certified rise above it — a
    lower bound from the slopes, with outward rounding — does not clear
    the summation-rounding allowance [2 rel F + 2 abs] ([rel] = 32 (H
    + 2) u, [F] the bottom's objective, [abs] the allowance for the
    [∆ >= 0] nodes' rounded kinks and for underflow).  Every other
    candidate has a rounded objective above [F].  So a call folds
    [H x (bottoms + window)] (candidate, node) pairs, whatever the
    calls before it.

    The sweep is exact (DESIGN.md §7, "The slope sweep").  Each fold
    forms its sum in node order, exactly as the reference does, and
    within the sweep's domain — sigma [>= 2^-1000], [gamma > 0.], every
    compiled constant finite, and every node with [c_h > 0.], a cross
    rate [>= 0.] and, unless it is strict priority, a positive margin:
    inside every γ bracket — every objective is [+0.] or positive, so
    the minimum depends neither on the order of the candidates nor on
    repeats.  Outside it (NaN sigma, an infinite cross rate, sigma =
    [+-0.], an overloaded node) [delay] takes the full fold, which is
    also what [optimal_thetas] reads its argmin from.  Every float
    expression mirrors {!Reference} operation for operation, so
    results are {b bit-identical} to {!Reference.delay_given},
    {!Reference.sigma_for} and {!Reference.optimal_thetas} (pinned by
    QCheck on random, long (H to 1000), flat-stretch, ulp-close,
    concave and figures-shaped paths, over search-ordered and shuffled
    γ sequences, and across [retarget]s).  The [e2e.eq38.node_steps]
    counter records the (candidate, node) pairs actually folded;
    [e2e.eq38.objective_evals] counts candidates.

    Concurrency: [retarget]/[set]/[delay]/[optimal_thetas] mutate the
    batch, so a batch must be driven from one domain at a time (build
    one per worker).  {!Batch.sigma_for} writes nothing, but it reads
    what [retarget] writes: several domains may share it only while
    none of them retargets the batch. *)
module Batch : sig
  type t

  val make : path -> t

  val retarget : t -> path -> unit
  (** [retarget b p] makes [b] evaluate [p] as [make p] would, bit for
      bit, in place and without allocating; nothing of the path before
      carries over.  The compiled state is cleared, so [set] must
      follow before [delay] or [optimal_thetas].
      @raise Invalid_argument if [p]'s hop count is not [b]'s. *)

  val sigma_for : t -> gamma:float -> epsilon:float -> float
  (** {!sigma_for} with the shared-decay geometric sums folded into one
      exp / a handful of logs; bit-identical to the reference. *)

  val set : t -> gamma:float -> sigma:float -> unit
  (** Compile the solver state for [(gamma, sigma)], overwriting any
      previous state. *)

  val delay : t -> float
  (** {!delay_given} over the compiled state, by the slope sweep. *)

  val optimal_thetas : t -> float array * float
  [@@lint.allow "unused-export"] (* test hook: test_e2e.ml "batch = reference bit-for-bit (Eq. 38)" *)
  (** The minimizing [(thetas, X)] over the compiled state, by the full
      fold. *)

  val delay_at_gamma : t -> gamma:float -> epsilon:float -> float
  (** [sigma_for] then [set] then [delay], reusing the scratch state. *)

  val interval_floor : t -> epsilon:float -> a:float -> b:float -> float
  (** A lower bound on [delay_at_gamma t ~gamma ~epsilon] at every γ in
      [[a, b]] ([0 < a <= b]), from one Eq.-38 evaluation: the nodes
      compiled at γ = [a] (largest service rate and margin, smallest
      cross rate), σ taken at γ = [b] (smallest σ), the minimum scaled
      by [1 -. 1e-9] against rounding.  [neg_infinity] — certifying
      nothing — when σ is non-finite at either end or the evaluation is
      NaN; never NaN.  Overwrites the compiled state, like [set]. *)

  val run_gammas :
    t -> epsilon:float -> gammas:float array -> out:float array -> unit
  (** One γ-row at a fixed [epsilon]: [out.(i)] receives
      [delay_at_gamma] at [gammas.(i)].  Allocation-free.
      @raise Invalid_argument if [out] is shorter than [gammas]. *)

  val delay_bound : t -> epsilon:float -> float
  (** {!E2e.delay_bound} of the batch's path: the γ search, every
      probe and floor through this batch. *)

  val delay_bound_floor : t -> epsilon:float -> float
  (** {!E2e.delay_bound_floor} of the batch's path, through this batch. *)
end

(** Test oracles, used by no bound: the list-based solver, retained
    verbatim for the QCheck bit-for-bit equivalence suite and the
    baseline side of the ns/op benchmarks; and the Eq. (30) network
    service curve built explicitly as a min-plus object, which
    [delay_given] never materializes, a cross-check of the optimizer and
    of {!backlog_bound}. *)
module Reference : sig
  val delay_given : path -> gamma:float -> sigma:float -> float
  val optimal_thetas : path -> gamma:float -> sigma:float -> float array * float
  [@@lint.allow "unused-export"] (* oracle: test_e2e.ml "batch = reference bit-for-bit (Eq. 38)" *)
  val sigma_for : path -> gamma:float -> epsilon:float -> float

  val x_candidates : path -> gamma:float -> sigma:float -> float list
  [@@lint.allow "unused-export"] (* oracle: test_e2e.ml "backlog = sigma: curve oracle in [sigma, succ sigma]" *)
  (** The kink abscissae of [X -> X +. sum_h theta_h X], [0.] included:
      the [X] values Eq. (38) is minimized over. *)

  val network_service_curve : path -> gamma:float -> thetas:float array -> Minplus.Curve.t
  [@@lint.allow "unused-export"] (* oracle: test_e2e.ml "network curve shape" *)
  (** [S^net(t; theta) = min_h S~^h_{(h-1)gamma}(t -. T) · I(t > T)] with
      [T = sum thetas] (the convolution already carried out in closed
      form, Section IV).  @raise Invalid_argument on arity mismatch. *)

  val delay_via_curve : path -> gamma:float -> sigma:float -> thetas:float array -> float
  [@@lint.allow "unused-export"] (* oracle: test_e2e.ml "curve agrees with optimizer" *)
  (** Horizontal deviation of the through envelope (plus [sigma]) against
      {!network_service_curve} — must agree with the Eq.-38 constraint
      machinery at the same [thetas]. *)
end

val delay_given : path -> gamma:float -> sigma:float -> float
[@@lint.allow "unused-export"] (* test hook: test_e2e.ml "BMUX = Eq. 43" *)
(** Exact minimum of Eq. (38) over [X >= 0.] (piecewise-linear kink
    enumeration, via a freshly compiled {!Batch}); [infinity] when
    infeasible. *)

val backlog_bound : epsilon:float -> path -> float
(** Probabilistic end-to-end backlog bound [P (B > backlog_bound) <= epsilon]:
    {!sigma_for} at the top of {!gamma_bracket}, one evaluation.  That is
    the minimum of the curve-based bound over every [theta] and every
    [gamma] of the bracket:
    at [theta = 0] each node of {!Reference.network_service_curve} serves at rate
    above [rho +. gamma], so the vertical deviation of the through
    envelope is [sigma], and [S(0) = 0] keeps every [theta] at or above
    it; [sigma] is non-increasing in [gamma].  The bound reads [∆] only
    through which nodes have [∆ = Neg_inf]: every finite or [Pos_inf]
    [∆] gives the same value bit for bit.  [infinity] when the path is
    overloaded.  @raise Invalid_argument unless [0 < epsilon < 1]. *)

val delay_bound : epsilon:float -> path -> float
(** End-to-end delay bound with numerical optimization over [gamma], as
    prescribed by the paper: {!Search.minimize} with a 40-point grid
    and 40 golden-section steps, all through one freshly compiled
    {!Batch} ({!Batch.delay_bound}), the grid pruned by
    {!Batch.interval_floor} (an [Interval] floor).  On the path the
    tests pin (Fig. 2, H = 10, U = 50%, FIFO, s at 30% of its stable
    range) that is 64 [delay_at_gamma] evaluations (11 grid points and
    53 golden probes) and 9 floors, where the floorless search takes
    93, with the same result bit for bit.
    [infinity] when the path is overloaded. *)

val gamma_bracket : float -> float * float
(** [gamma_bracket gmax] is the [(lo, hi)] range that {!delay_bound}
    probes (and {!delay_bound_floor} and {!backlog_bound} read) for a
    path with [gamma_max = gmax]: [(gmax *. 1e-6, gmax *. 0.999)]. *)

val delay_bound_floor : epsilon:float -> path -> float
[@@lint.allow "unused-export"] (* test hook: test_s_grid.ml "delay_bound_floor <= delay_bound, exactly" *)
(** A certified lower bound on [delay_bound ~epsilon p] (its default
    40-point γ grid) from one Eq.-38 evaluation: {!Batch.interval_floor}
    from the bracket's lowest γ to the highest γ the search probes.
    [infinity] when [gamma_max p <= 0.] (as {!delay_bound});
    [neg_infinity] — certifying nothing — when σ is non-finite at either
    end of the bracket or the evaluation is NaN.  Never NaN.  Lets the
    s-grid of {!Scenario} skip points that cannot hold its minimum.
    Through a fresh {!Batch} ({!Batch.delay_bound_floor}).
    @raise Invalid_argument unless [0 < epsilon < 1]. *)

(** {1 Closed forms and the paper's explicit procedure}

    These require a homogeneous path (every node shares [capacity],
    [cross_rho] and [delta], the inputs Eq. 38 reads, with node 0) and
    are used to cross-validate {!delay_given}. *)

val bmux_closed_form : path -> gamma:float -> sigma:float -> float
[@@lint.allow "unused-export"] (* oracle: test_e2e.ml "BMUX = Eq. 43" *)
(** Eq. (43): [sigma /. (C -. rho_c -. H gamma)].
    @raise Invalid_argument unless every node is BMUX ([Pos_inf]). *)

val fifo_closed_form : path -> gamma:float -> sigma:float -> float
[@@lint.allow "unused-export"] (* oracle: test_e2e.ml "FIFO = Eq. 44" *)
(** Eq. (44).  @raise Invalid_argument unless every node is FIFO. *)

val k_procedure : path -> gamma:float -> sigma:float -> float
[@@lint.allow "unused-export"] (* oracle: test_e2e.ml "K-procedure bounds exact" *)
(** The paper's explicit choice of [K] and [X] (Eq. 40–42) followed by the
    exact [theta_h X]; an upper bound on {!delay_given} that is near-optimal
    in practice.  [infinity] wherever {!delay_given} is: an infinite
    [sigma] (Eq. 38 infeasible) reads as [infinity], not NaN, for every
    delta.  @raise Invalid_argument unless the path is homogeneous. *)
