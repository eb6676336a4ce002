(** The one minimization over a log-spaced grid: γ in {!E2e} and
    {!Additive}, the effective-bandwidth parameter s in {!Scenario},
    {!Additive} and the serving engine.

    [f] runs over the [points]-point log grid from [lo] to [hi], in
    index order on the calling domain, keeping the first strict minimum
    ([v < best]: a tie keeps the earlier point, a NaN at index 0 sticks,
    a NaN elsewhere never wins, an all-[infinity] grid gives [infinity]
    at [lo]); then an optional refinement one grid ratio either side of
    it.  A floor skips points that cannot hold the minimum: only where
    it is strictly above the running minimum, so [arg] and [value] are
    the floorless search's, bit for bit (DESIGN.md §7). *)

type floor =
  | Interval of (float -> float -> float)
      (** [fl a b] bounds every non-NaN [f x], [a <= x <= b], from below
          and is never NaN.  The grid's ends are evaluated, then each
          block between evaluated points is skipped or bisected. *)
  | Point of (float -> float)
      (** [fl x] bounds [f x] from below, is never NaN, and is
          [neg_infinity] wherever [f x] could be NaN.  All floors first,
          then the points in ascending-floor order (index order among
          ties). *)

type refine =
  | Golden of int
      (** [n] golden-section steps, the final midpoint evaluated and
          [Float.min]'d in; [f] is memoized over its last 8 probes, so
          it must be pure *)
  | Grid of int  (** an [n]-point log grid, folded on from the grid's minimum *)

type result = {
  arg : float;  (** a grid point or refinement probe where [value] was found *)
  value : float;
  evals : int;  (** calls to [f] *)
  nan : bool;  (** some call returned NaN; the floorless search's for [Point] *)
}

val grid_ratio : points:int -> lo:float -> hi:float -> float
(** [(hi /. lo) ** (1 /. (points - 1))] *)

val log_spaced : lo:float -> ratio:float -> points:int -> float array
(** [[| lo; lo *. ratio; (lo *. ratio) *. ratio; ... |]]: the abscissae
    {!minimize} walks, bit for bit.
    @raise Invalid_argument on [points < 1]. *)

val last_point : lo:float -> ratio:float -> points:int -> float
(** [(log_spaced ~lo ~ratio ~points).(points - 1)], bit for bit, by the
    same multiplications and without the array.
    @raise Invalid_argument on [points < 1]. *)

val minimize :
  ?floor:floor -> ?refine:refine -> points:int -> lo:float -> hi:float -> (float -> float) -> result
(** Without a floor the grid phase allocates nothing.
    @raise Invalid_argument on [points < 1]. *)
