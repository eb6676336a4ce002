(** Exponential bounding functions [eps sigma = m *. exp (-. a *. sigma)].

    These are the violation-probability bounds attached to statistical
    envelopes and service curves.  The key operation is {!combine}: the
    optimal inf-convolution [inf_{sum sigma_i = sigma} sum_i eps_i sigma_i]
    of Eq. (33) in the paper, which stays within the exponential family. *)

type t = { m : float; a : float }
(** [m >= 0.] is the prefactor, [a > 0.] the decay rate (per kb). *)

val v : m:float -> a:float -> t
(** @raise Invalid_argument on [m < 0.] or [a <= 0.]. *)

val eval : t -> float -> float
(** [eval e sigma = m *. exp (-. a *. sigma)], capped at [1.] (it bounds a
    probability). *)

val eval_uncapped : t -> float -> float

val combine : t list -> t
(** Optimal mixture (Eq. 33): with [w = sum_i (1. /. a_i)], the infimum is
    [w *. prod_i (m_i *. a_i) ** (1. /. (a_i *. w)) *. exp (-. sigma /. w)].
    Valid (tight) for sigma large enough that all optimal shares are
    non-negative — the regime of small violation probabilities.
    @raise Invalid_argument on an empty list. *)

val combine_brute : t list -> float -> float
[@@lint.allow "unused-export"] (* oracle: test_exponential.ml "combine vs brute force" *)
(** Direct numerical evaluation of the same infimum by grid search over the
    splits — used to validate {!combine} in tests.  Quadratic cost. *)

val invert : t -> epsilon:float -> float
(** Smallest [sigma >= 0.] with [eval_uncapped t sigma <= epsilon]. *)

val geometric_sum : t -> gamma:float -> t
(** [sum_{j >= 0} eval t (sigma +. j *. gamma)] — the discrete-time
    union-bound over a sample path with slack rate [gamma]: multiplies the
    prefactor by [1. /. (1. -. exp (-. a *. gamma))].
    @raise Invalid_argument on [gamma <= 0.]. *)
