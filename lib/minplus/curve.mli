(** Piecewise-linear curves on [0, +inf) for the (min,+) network calculus.

    A curve is a non-decreasing function [f : [0,inf) -> [0,inf]] represented
    as a finite sequence of affine pieces.  Piece [i] covers the half-open
    interval [[x_i, x_{i+1})] and has value [y_i +. r_i *. (t -. x_i)]; the
    last piece extends to [+inf].  Values may be [infinity] (with slope [0.]),
    which encodes the burst-delay curve {!delta}.

    By the network-calculus convention, [eval f t = 0.] for [t < 0.].
    Curves are right-continuous at their breakpoints; the left limit is
    available through {!eval_left}. *)

type piece = private { x : float; y : float; r : float }

type t

val v : (float * float * float) list -> t
[@@lint.allow "unused-export"] (* test hook: test_deviation.ml "delay with plateau service" *)
(** [v pieces] builds a curve from [(x, y, r)] triples.  The [x] values must
    be non-negative and strictly increasing; the first must be [0.].  Pieces
    with value [infinity] must have slope [0.].  The curve must be
    non-decreasing.  @raise Invalid_argument otherwise. *)

val v_unsafe : (float * float * float) list -> t
(** Like {!v} but skips the monotonicity check.  Intended for intermediate
    results of curve algebra (e.g. operands of a pointwise minimum that are
    [infinity] outside their support); the exported operations always return
    well-formed curves. *)

val of_string : string -> (t, string) result
(** {!v_unsafe} over comma-separated [X:Y:R] pieces (value [Y + R (t - X)]
    from abscissa [X]), so an envelope that is not non-decreasing can
    still be read and diagnosed. *)

val pieces : t -> piece list
(** The normalized pieces of the curve, in increasing [x] order. *)

val breakpoints : t -> float list
(** The abscissae where the curve changes slope or jumps. *)

(** {1 Constructors} *)

val zero : t
(** The identically-zero curve (neutral element of (min,+) addition). *)

val affine : rate:float -> burst:float -> t
(** Leaky-bucket curve: [0] at [t <= 0], [burst +. rate *. t] for [t > 0]
    (the jump of size [burst] occurs at the origin). *)

val rate_latency : rate:float -> latency:float -> t
[@@lint.allow "unused-export"] (* test hook: test_deviation.ml "textbook delay" *)
(** [max 0. (rate *. (t -. latency))] — the canonical convex service curve. *)

val delta : float -> t
(** Burst-delay curve: [0.] on [\[0, d)], [infinity] afterwards.  [delta 0.]
    is the neutral element of min-plus convolution. *)

val constant_rate : float -> t
(** [constant_rate c] is [affine ~rate:c ~burst:0.] without the origin jump:
    the service curve of a work-conserving link of capacity [c]. *)

val step : at:float -> height:float -> t
[@@lint.allow "unused-export"] (* test hook: test_curve.ml "pseudo-inverse" *)
(** [0.] on [\[0, at)], [height] afterwards. *)

val token_buckets : (float * float) list -> t
[@@lint.allow "unused-export"] (* test hook: test_contracts.ml "concave envelope passes" *)
(** [token_buckets \[(r1,b1); ...\]] is the pointwise minimum of the given
    leaky buckets — a concave piecewise-linear envelope.
    @raise Invalid_argument on an empty list. *)

(** {1 Evaluation} *)

val eval : t -> float -> float
(** [eval f t] is [f t]; [0.] for [t < 0.]. *)

val eval_left : t -> float -> float
(** Left limit [f (t-)]; equals [eval f t] except at jump points.
    [eval_left f 0. = 0.]. *)

val ultimate_rate : t -> float
(** Slope of the final (infinite) piece; [0.] if the final value is
    [infinity]. *)

val ultimately_infinite : t -> bool

val inverse : t -> float -> float
(** [inverse f y] is the pseudo-inverse [inf { t >= 0. | f t >= y }];
    [infinity] if the level is never reached. *)

(** {1 Pointwise operations} *)

val min : t -> t -> t
val max : t -> t -> t
[@@lint.allow "unused-export"] (* deletion deferred: test_curve.ml "max is pointwise maximum" *)
val add : t -> t -> t

val sub_clip : t -> t -> t
(** [sub_clip f g] is [t -> max 0. (f t -. g t)], clipped to stay
    non-decreasing by taking the running maximum (the result is the smallest
    non-decreasing function above the clipped difference, which is the sound
    direction for leftover-service curves). *)

val scale : float -> t -> t
[@@lint.allow "unused-export"] (* deletion deferred: test_curve.ml "scale is pointwise multiplication" *)
(** [scale k f] multiplies values by [k >= 0.]. *)

val hshift : float -> t -> t
(** [hshift d f] is [t -> f (t -. d)] for [d >= 0.] ([0.] on [\[0, d)]). *)

val lshift : float -> t -> t
(** [lshift c f] is [t -> f (t +. c)] for [c >= 0.] (drops the initial part
    of the curve). *)

val gate : float -> t -> t
(** [gate theta f] is [t -> f t *. I(t > theta)]: the curve forced to [0.]
    on [\[0, theta\]], as in Theorem 1 of the paper. *)

(** {1 Predicates} *)

val is_convex : ?tol:float -> t -> bool
[@@lint.allow "unused-export"] (* oracle: convolve_convex's input check, test_convolution.ml "convolve_convex agrees with convolve" *)
(** Continuous with non-decreasing slopes (an [infinity] tail is allowed,
    as in rate-latency and burst-delay curves). *)

val is_concave : ?tol:float -> t -> bool
(** Non-increasing slopes after an optional jump at the origin (the shape of
    leaky-bucket envelopes), and finite everywhere. *)

val equal : ?tol:float -> t -> t -> bool
[@@lint.allow "unused-export"] (* test hook: test_convolution.ml "rate-latency composition" *)
(** Pointwise equality up to [tol], checked exactly on the merged
    breakpoint structure. *)

val pp : Format.formatter -> t -> unit
