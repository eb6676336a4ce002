(** Deterministic pseudo-random number generation for reproducible
    experiments: splitmix64 for seeding and xoshiro256++ as the main
    generator, plus the samplers the network simulator needs.

    {b State.} A generator is 32 bytes holding the four xoshiro256++
    state words, read and written in native byte order.  A step costs a
    handful of integer operations and allocates nothing.  [binomial]
    and [invert] allocate nothing at all; [bits64] and
    [float] allocate only their boxed result, and [create]/[split]/[copy]
    the new 32-byte state. *)

type t

val create : seed:int64 -> t
(** A generator whose whole state is derived from [seed] via splitmix64. *)

val split : t -> t
(** An independent generator forked from [t] (advances [t]). *)

val copy : t -> t
[@@lint.allow "unused-export"] (* test hook: test_desim.ml "Source.step is one draw" *)

val bits64 : t -> int64
(** Next 64 raw bits (xoshiro256++). *)

val float : t -> float
(** Uniform in [\[0., 1.)]: the top 53 bits of one step times 2{^-53}. *)

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)].  @raise Invalid_argument on [bound <= 0]. *)

val bernoulli : t -> p:float -> bool

val binomial : t -> n:int -> p:float -> int
(** Exact binomial sample by inversion on q = [min p (1. -. p)]: it sums
    geometric gaps of parameter q, [floor (log1p (-. u) /. log1p (-. q))]
    for one uniform [u] each, until they pass [n], and reflects
    when [p > 0.5].  One uniform per success plus one, so O(n q)
    expected draws, each costing one [log1p]: the stationary initial
    count of an on-off aggregate, and the oracle its kernel sampler is
    tested against.  [p = 0.], [p = 1.] and
    [n = 0] draw nothing.  A gap of 2{^62} or more saturates at
    [max_int], so a q so small that [log1p (-. u) /. log1p (-. q)]
    reaches 2{^62} counts no success.  @raise Invalid_argument on [n < 0] or [p] outside
    [\[0, 1\]] (NaN included). *)

val guide : int array -> int array
(** [guide cuts] is the 64-bucket guide table that {!invert} needs for
    the law whose cut points are [cuts]: [cuts.(i)] is the number of
    53-bit values that draw an index [<= i], so the law gives [i] the
    mass [(cuts.(i) - cuts.(i-1)) 2{^-53}].  Entry [b] is the least [i]
    with [cuts.(i) > b 2{^47}].
    @raise Invalid_argument unless [cuts] is non-decreasing and ends at
    2{^53}. *)

val invert : t -> cuts:int array -> guide:int array -> int
(** One draw of the law that [cuts] gives (see {!guide}): the least [i]
    with [m < cuts.(i)] for the top 53 bits [m] of one {!bits64}, found
    from [m]'s guide bucket by a forward scan.  [guide] must be
    [guide cuts]. *)
