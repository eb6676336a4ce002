(** Independent replications of a seeded experiment, with confidence
    intervals on delay quantiles — the standard output-analysis layer on
    top of {!Tandem} and {!Single_node_sim} — hardened for long sweeps:
    failed replications are retried under fresh derived seeds, slow ones
    are cut off by a wall deadline, partial results are summarized
    explicitly, and completed runs are checkpointed to a results file so a
    killed sweep resumes where it stopped. *)

type failure = {
  index : int;  (** replication index within the sweep *)
  attempts : int;  (** attempts made (1 = no retry) *)
  reason : string;  (** exception text, non-finite statistic, or deadline *)
}

type summary = {
  mean : float;
  half_width95 : float;  (** Student-t 95%% half width across replications *)
  values : float array;  (** the per-replication statistics, completed only *)
  requested : int;  (** replications asked for *)
  completed : int;  (** [Array.length values]; < [requested] on partial results *)
  retried : int;  (** total retry attempts across the sweep *)
  resumed : int;  (** replications loaded from the checkpoint file *)
  failures : failure list;  (** replications abandoned after retries *)
}

val statistic_ci :
  ?jobs:int ->
  ?max_retries:int ->
  ?max_wall:float ->
  ?checkpoint:string ->
  runs:int ->
  base_seed:int64 ->
  (seed:int64 -> float) ->
  summary
(** [statistic_ci ~runs ~base_seed experiment] runs [experiment] with
    [runs] seeds derived from [base_seed] ({!Parallel.Seeds.derive}) and
    summarizes the per-run statistics.

    [jobs]: replications are fanned out on a domain pool — the
    process-wide {!Parallel.Default} pool when omitted, a transient pool
    of exactly [jobs] otherwise.  Every per-replication seed is derived
    up front on the driving domain, results are merged in index order,
    and the summary (mean, half width, [values] order, failures,
    retries) is bit-for-bit identical for every [jobs].  Checkpointing
    stays single-writer: workers only compute; the driving domain alone
    rewrites the checkpoint atomically (write temp, fsync, rename) after
    every wave, sorted by index — so the checkpoint file is
    byte-identical to a sequential run's, a kill at any instant leaves a
    complete previous state (never a torn line), and at most the wave in
    flight is lost (one replication when sequential).
    @raise Invalid_argument on [jobs < 1].

    [max_retries] (default [0]): a replication whose statistic is
    non-finite or that raises is rerun under a fresh seed derived from its
    own, up to this many times; still-failing replications are dropped and
    recorded in [failures], and the summary covers the completed runs only
    (graceful partial results, visible as [completed < requested]).

    [max_wall] (seconds): a replication exceeding this wall-clock budget is
    abandoned without retry (a rerun would almost surely blow the deadline
    too) and recorded in [failures].

    [checkpoint]: path of a results file recording each completed
    replication as it finishes.  When the file already exists it must
    belong to the same [(base_seed, runs)] sweep; its replications are
    loaded instead of rerun ([resumed] counts them), so re-invoking after a
    kill completes only the missing runs.

    @raise Invalid_argument on [runs < 2], a negative [max_retries], a
    non-positive [max_wall], a checkpoint from a different sweep, or a
    damaged checkpoint (truncated or malformed lines — the atomic writer
    never produces either, so they are rejected rather than silently
    dropping data points).
    @raise Failure when fewer than two replications complete. *)

val quantile_ci :
  ?jobs:int ->
  ?max_retries:int ->
  ?max_wall:float ->
  ?checkpoint:string ->
  runs:int ->
  base_seed:int64 ->
  q:float ->
  (seed:int64 -> Desim.Stats.Sample.t) ->
  summary
(** Same replication scheme for the [q]-quantile of each run's sample. *)
