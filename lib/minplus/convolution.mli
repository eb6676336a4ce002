(** Min-plus convolution and deconvolution of piecewise-linear curves.

    The convolution [(f * g)(t) = inf_{0 <= s <= t} f(s) +. g(t -. s)]
    composes per-node service curves into a path service curve; the
    deconvolution [(f ⊘ g)(t) = sup_{u >= 0} f(t +. u) -. g(u)] bounds the
    output envelope of a flow with arrival envelope [f] crossing a node with
    service curve [g]. *)

val convolve : Curve.t -> Curve.t -> Curve.t
(** Exact min-plus convolution of two arbitrary piecewise-linear curves,
    via the interval-piece decomposition (quadratic in the number of
    pieces; exact, no sampling). *)

val convolve_convex : Curve.t -> Curve.t -> Curve.t
[@@lint.allow "unused-export"] (* oracle: test_convolution.ml "convolve_convex agrees with convolve" *)
(** Fast exact convolution for convex curves (slope-sorting); the result of
    convolving rate-latency curves.  @raise Invalid_argument if an argument
    is not convex. *)

val convolve_list : Curve.t list -> Curve.t
(** Left fold of {!convolve} with neutral element [Curve.delta 0.]. *)

val self_convolve : Curve.t -> int -> Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_convolution.ml "self convolution" *)
(** [self_convolve f n] is the [n]-fold convolution [f * ... * f];
    [delta 0.] for [n = 0].  @raise Invalid_argument on [n < 0]. *)

val subadditive_closure : ?max_iterations:int -> Curve.t -> Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_convolution.ml "closure of concave" *)
(** [inf_{n >= 0} f^{(n)}] (with [f^{(0)} = delta 0.]), computed by
    iterating [g <- min g (g * f)] until a fixpoint or [max_iterations]
    (default 32; the result is an upper bound on the true closure if the
    cap is hit, which is the sound direction for envelopes).  Concave
    envelopes with [f 0. >= 0.] are already subadditive and return
    unchanged apart from the origin. *)

val deconvolve_eval : Curve.t -> Curve.t -> float -> float
[@@lint.allow "unused-export"] (* deletion deferred: test_convolution.ml "deconvolution divergence" *)
(** [(f ⊘ g)(t)] evaluated at one point.  Returns [infinity] when the
    supremum diverges (ultimate rate of [f] above that of [g]). *)

val deconvolve : Curve.t -> Curve.t -> Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_convolution.ml "deconvolution output envelope" *)
(** The full deconvolution as a curve, exact on the breakpoint lattice
    [{ xf -. xg >= 0. }].  Requires the supremum to be finite (stable
    system); @raise Invalid_argument otherwise.  Negative values are
    clipped at [0.] (envelopes are non-negative). *)
