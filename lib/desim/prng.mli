(** Deterministic pseudo-random number generation for reproducible
    experiments: splitmix64 for seeding and xoshiro256++ as the main
    generator, plus the samplers the network simulator needs.

    {b State.} A generator is 32 bytes holding the four xoshiro256++
    state words, read and written in native byte order.  A step costs a
    handful of integer operations and allocates nothing.  [binomial],
    [binomial_of_law] and [geometric] allocate nothing at all; [bits64],
    [float] and [exponential] allocate only their boxed result, and
    [create]/[split]/[copy] the new 32-byte state. *)

type t

val create : seed:int64 -> t
(** A generator whose whole state is derived from [seed] via splitmix64. *)

val split : t -> t
(** An independent generator forked from [t] (advances [t]). *)

val copy : t -> t

val bits64 : t -> int64
(** Next 64 raw bits (xoshiro256++). *)

val float : t -> float
(** Uniform in [\[0., 1.)]: the top 53 bits of one step times 2{^-53}. *)

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)].  @raise Invalid_argument on [bound <= 0]. *)

val bernoulli : t -> p:float -> bool

val binomial : t -> n:int -> p:float -> int
(** Exact binomial sample by inversion on q = [min p (1. -. p)]: it sums
    {!geometric} gaps of parameter q until they pass [n], and reflects
    when [p > 0.5].  One uniform per success plus one, so O(n q)
    expected draws, each costing one [log1p]; suitable for the
    simulator's per-slot aggregate transitions.  [p = 0.], [p = 1.] and
    [n = 0] draw nothing.  Gaps saturate as in {!geometric}, so a q so
    small that [log1p (-. u) /. log1p (-. q)] reaches 2{^62} counts no
    success.  @raise Invalid_argument on [n < 0] or [p] outside
    [\[0, 1\]] (NaN included). *)

type binomial_law
(** A binomial success probability with its reflection,
    [log1p (-. q)] and an exact inversion table for the geometric gap,
    for callers that draw many samples at one [p].

    The table holds the thresholds [T_k], the least 53-bit [m] whose gap
    [floor (log1p (-. m 2{^-53}) /. log1p (-. q))] reaches [k], for
    [k = 1, 2, ...] up to u = 1 - 2{^-8} or 1024 entries, plus a
    1024-bucket guide over the top bits of [m].  A draw below the last
    threshold reads its gap from the table (a guide lookup and a short
    scan); above it, the sampler computes the same [log1p] gap as
    {!binomial}.  Building the table costs a few [log1p] calls per
    entry (tens of microseconds at the paper's laws), so build a law
    once and share it. *)

val binomial_law : p:float -> binomial_law
(** @raise Invalid_argument on [p] outside [\[0, 1\]] (NaN included). *)

val binomial_of_law : t -> binomial_law -> n:int -> int
(** [binomial_of_law t (binomial_law ~p) ~n] returns the same sample as
    [binomial t ~n ~p] and leaves [t] in the same state: both run the
    same loop and draw the same uniforms; this one reads each gap from
    the law's table instead of computing its [log1p], and every table
    entry equals the [log1p] gap it replaces.
    @raise Invalid_argument on [n < 0]. *)

val law_cuts : binomial_law -> int array
(** The table's thresholds [T_1 .. T_K] (a copy; empty for [p = 0.] or
    [p = 1.]).  Each satisfies [gap (T_k - 1) < k <= gap T_k]. *)

val law_gap : binomial_law -> int -> int
(** The gap {!binomial_of_law} draws for the 53-bit uniform [m]: from
    the table below the last threshold, from [log1p] above it.
    @raise Invalid_argument on [m] outside [\[0, 2{^53})]. *)

val exponential : t -> rate:float -> float

val geometric : t -> p:float -> int
(** Number of failures before the first success, [p] in (0, 1]:
    [floor (log1p (-. u) /. log1p (-. p))] for one uniform [u] ([p = 1.]
    draws nothing).  The true gap can pass [max_int] once [p] is below
    ~1e-17 (and does for every [u > 0.] once [p] is below ~2e-35): a
    quotient of 2{^62} or more saturates at [max_int].
    @raise Invalid_argument on [p] outside (0, 1] (NaN included). *)
