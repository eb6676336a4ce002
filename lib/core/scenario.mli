(** The paper's experimental setup (Section V): homogeneous paths of
    100 Mbps links fed by aggregates of identical on-off Markov sources
    (1.5 Mbps peak, 0.15 Mbps mean per flow, 1 ms slots), with a violation
    probability of 1e-9.

    The EBB constants of an aggregate of [n] flows are
    [(1., n *. eb s, s)]; the delay bound is minimized numerically over the
    free parameters [s] (effective-bandwidth/decay) and [gamma]
    (envelope slack). *)

type t = {
  capacity : float;  (** kb per ms (= Mbps) *)
  source : Envelope.Mmpp.t;
  n_through : float;
  n_cross : float;  (** per node *)
  h : int;
  epsilon : float;
}

val paper_defaults : h:int -> n_through:float -> n_cross:float -> t
(** [capacity = 100.], paper source, [epsilon = 1e-9].
    @raise Invalid_argument on [h < 1] or a negative / non-finite flow
    count.  (Aggregate flow counts summing past the link capacity are
    accepted here — overload studies construct them deliberately — but are
    rejected by {!of_utilization}.) *)

val of_utilization : h:int -> u_through:float -> u_cross:float -> t
(** Flow counts from link utilizations (fractions of capacity at the mean
    rate), e.g. [u_through = 0.15] gives the paper's [N_0 = 100].
    @raise Invalid_argument on [h < 1], a utilization outside [\[0., 1.)],
    or a total utilization [u_through +. u_cross >= 1.] (an unstable path
    with no finite bound). *)

val of_loads :
  h:int ->
  u_through:float ->
  u_cross:float ->
  (t, [ `Invalid of string | `Unstable of string ]) result
(** {!of_utilization}, checked first and never raising: [`Invalid] when
    [h < 1] or a load is NaN or negative, [`Unstable] when a load or
    their total reaches 1 (no finite bound exists).  The message says
    which. *)

val path_at : t -> s:float -> delta:Scheduler.Delta.t -> E2e.path
(** The {!E2e.path} for a given effective-bandwidth parameter [s]. *)

val has_stable_s : t -> bool
(** Whether the path is stable at [s = 1e-6] (total effective bandwidth
    below [0.9999 *. capacity]): one probe, and
    [has_stable_s t = Option.is_some (s_stable_max t)]. *)

val s_doubling : t -> float option
(** The stability scan: [None] when the path is unstable at
    [s = 1e-6] (total effective bandwidth not below [0.9999 *. capacity]),
    else the first unstable [s] among [1e-6 *. 2^k], [k <= 60]: the
    bound {!s_stable_max} bisects below. *)

val s_stable_max : t -> float option
(** Largest effective-bandwidth parameter [s] keeping the offered load
    (with head room for [gamma]) below capacity, or [None] when even a
    vanishing [s] is unstable.  Any [s] in [(0, s_stable_max)] yields a
    valid — if not optimal — probabilistic bound, which is what lets a
    server pin one [s] per cached path shape and still answer soundly. *)

val s_points : int
(** 16, the s-grid every [?s_points] here, in {!Additive} and in
    {!Admission}, serve's exact mode and the CLI's [--s-points] default to. *)

val delay_bound : ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float
(** End-to-end delay bound for FIFO / BMUX / SP (fixed [∆_{0,c}]),
    minimized over [s] and [gamma]: {!Search.minimize} over an
    [s_points] (default {!s_points}) log grid of
    [(s_max *. 1e-4, s_max *. 0.999)] ([s_max] = {!s_stable_max}), refined
    by a 12-point grid one grid ratio either side of its argmin, each s
    running {!E2e.delay_bound}.
    For [Edf_gap g] the gap is used as given.
    [infinity] when no stable [s] exists. *)

val delay_bound_checked :
  ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float Diag.outcome
(** {!delay_bound} with a typed diagnostic instead of a silent [infinity]:
    [Unstable] when no stable [s] exists (or every grid point is
    gamma-infeasible), [Non_finite] when a NaN leaked out of the inner
    optimization, [Converged] otherwise.  [diag.iterations] counts the
    s-points of the grid and its refinement, including those skipped
    because {!E2e.delay_bound_floor} (a {!Search.Point} floor) proved
    they cannot hold the minimum; skipping never changes the value or
    the diagnostic. *)

val backlog_bound_checked :
  ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float Diag.outcome
(** End-to-end backlog bound (kb) of the through aggregate,
    [P (B > bound) <= epsilon], minimized over [s] like
    {!delay_bound_checked}, each s taking {!E2e.backlog_bound} (one
    σ evaluation, no γ search).  The bound is blind to [∆] except at
    [∆ = -∞]: FIFO, BMUX and every [Edf_gap g] give the same value bit
    for bit, and only [Sp_through_high] differs.  Diagnostics as in
    {!delay_bound_checked}. *)

type edf_spec = {
  cross_over_through : float;
  (** deadline ratio [d*_c /. d*_0]; the paper's Example 1 uses [10.] *)
}

type edf_result = {
  bound : float;  (** the fixed-point end-to-end delay bound *)
  d_through : float;  (** resulting per-node deadline [d*_0 = bound /. H] *)
  d_cross : float;
  iterations : int;
}

val delay_bound_edf_checked :
  ?s_points:int -> ?max_iter:int -> spec:edf_spec -> t -> edf_result Diag.outcome
(** The paper ties EDF deadlines to the computed bound itself
    ([d*_0 = d_e2e /. H], [d*_c = ratio *. d*_0]), so the bound solves a
    fixed-point equation; iterate from the FIFO bound until the relative
    change falls below 1e-6.  The diagnostic distinguishes:

    - [Converged]: the fixed point settled within tolerance.
    - [Unstable]: no finite FIFO seed, or the iteration fell into an
      infeasible gap — the scenario admits no finite EDF bound.
    - [Diverged]: [max_iter] iterations without meeting tolerance; the
      returned value is the last iterate and is {e not} a valid bound,
      and [diag.tolerance] is the last iteration's relative change
      ([infinity] when [max_iter = 0]).
    - [Non_finite]: a NaN leaked out of the inner optimization.

    An iterate seen before is answered from a memo of the bounds this
    call computed (the map is pure), so a cycle costs one s-search per
    distinct iterate; [iterations] still counts every step, and the
    [scenario.edf.memo_hits] counter the answered ones.

    @raise Invalid_argument on a non-positive deadline ratio. *)

type metric = Delay | Backlog

val bound_checked :
  ?s_points:int -> ?metric:metric -> scheduler:Scheduler.Kind.t -> t -> float Diag.outcome
(** The [metric] bound (default [Delay]) for one of the paper's four
    schedulers.  FIFO, BMUX and SP go to {!delay_bound_checked} or
    {!backlog_bound_checked}.  EDF's [Delay] solves
    {!delay_bound_edf_checked} and returns the fixed point's bound.  EDF's
    [Backlog] is FIFO's backlog bound: the bound reads [∆] only at
    [∆ = -∞], so it holds for every finite deadline vector, and no fixed
    point is solved. *)
