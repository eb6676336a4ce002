(** Parallel grid scans that are bit-identical to the sequential loops
    they replace.

    Every outer optimization in the reproduction walks a log-spaced grid
    the same way: abscissae built by repeated multiplication
    ([g := !g *. ratio]) and a running minimum updated with a strict
    [v < best] comparison.  These helpers keep {e exactly} those float
    operations — abscissae come from the same repeated products (never
    [lo *. ratio ** k], which rounds differently), and the fold runs on
    the calling domain in index order with the same strict comparison
    (so ties and NaNs resolve identically) — while the per-point
    evaluations fan out on the {!Default} pool. *)

val log_spaced : lo:float -> ratio:float -> points:int -> float array
(** [[| lo; lo *. ratio; (lo *. ratio) *. ratio; ... |]] ([points]
    entries), by repeated multiplication.
    @raise Invalid_argument on [points < 1]. *)

val min_value : ?work:int -> ('a -> float) -> 'a array -> float
(** Parallel map, then the sequential running minimum
    [if v < best then v] in index order, seeded with the first value.
    [?work] is the per-point cost hint forwarded to {!Pool.map}.
    @raise Invalid_argument on an empty grid. *)

val argmin : ?work:int -> ('a -> float) -> 'a array -> 'a * float
(** Like {!min_value} but keeps the abscissa of the first strict
    minimum, matching [if v < snd best then (x, v)].
    @raise Invalid_argument on an empty grid. *)

val values : ?work:int -> ('a -> float) -> 'a array -> float array
(** Just the parallel evaluations, in input order. *)

val values_blocked :
  ?work:int -> block:int -> ('a array -> float array) -> 'a array -> float array
(** Contiguous blocks of at most [block] points, one pool task per
    block: [f] receives each slice in index order and the results are
    concatenated, so the output equals {!values} point for point
    whenever [f] is a pointwise map.  [?work] stays the {e per-point}
    cost hint; the pool sees [work * block] per task — the true
    per-chunk cost — so the sequential-vs-parallel decision matches the
    per-point fan-out.  Built for compiled evaluators ([E2e.Batch]) that
    amortize their compile across a block; a per-point [f] wrapped in
    [Array.map] gains nothing here, so use {!values} or {!min_value}.
    A single-block grid is evaluated directly on the calling domain.
    @raise Invalid_argument on [block < 1]. *)
