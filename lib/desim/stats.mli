(** Streaming and batch statistics for simulation output analysis. *)

(** Welford's online mean / variance. *)
module Online : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** @raise Invalid_argument on a NaN sample (tripwire: a NaN would
      silently poison every downstream statistic). *)

  val mean : t -> float
  (** [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [nan] with fewer than two samples. *)
end

(** Exact empirical quantiles over a stored sample. *)
module Sample : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** @raise Invalid_argument on a NaN sample. *)

  val add_copies : t -> float -> int -> unit
  (** [add_copies s x k] adds [k] samples equal to [x].
      @raise Invalid_argument on a NaN [x] or [k < 0]. *)

  val count : t -> int
  val quantile : t -> float -> float
  (** [quantile s q] with [q] in [\[0., 1.\]], by linear interpolation of
      order statistics.  @raise Invalid_argument when empty or [q] outside
      [\[0., 1.\]] (NaN included). *)

  val max : t -> float
  val to_sorted_array : t -> float array
end

val batch_means : float array -> batches:int -> float * float
(** [(grand_mean, half_width95)] by the method of batch means with a
    Student-t 95% half-width (t quantile approximated by the normal value
    1.96 for >= 30 batches, a small lookup otherwise).
    @raise Invalid_argument if there are fewer observations than batches. *)

val virtual_delays : cum_in:float array -> cum_out:float array -> Sample.t * float
(** The virtual delay of Eq. (6) on a slot clock, from cumulative
    arrivals [cum_in] (one entry per arrival slot) and cumulative
    departures [cum_out] (one per slot of the whole run):
    [W t = min { u >= t | cum_out.(u) >= cum_in.(t) -. 1e-6 } - t], one
    sample for each slot [t] whose increment
    [cum_in.(t) -. cum_in.(t - 1)] (from [0.] at [t = 0]) is positive.
    The second component is the censored data (kb): the sum of the
    increments of the slots with no such [u], i.e. still in flight when
    [cum_out] ends.  One pass, linear in both lengths. *)
