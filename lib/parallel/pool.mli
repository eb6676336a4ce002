(** Fixed-size domain pool with deterministic chunked fan-out.

    The pool exists to make the embarrassingly-parallel layers of the
    reproduction — per-H sweeps, s-grid/γ scans, Monte-Carlo
    replications — run on every core {e without changing a single output
    bit}.  The load-bearing guarantee is:

    {b Determinism.}  For a pure task function, [map pool f xs] returns
    exactly [Array.map f xs] — same elements, same order, same bits —
    for every worker count.  Chunking only affects which domain computes
    which slice; results are written to per-index slots, which the
    calling domain reads back in index order.  Nothing about the result
    depends on scheduling, and per-task randomness must be routed through
    {!Seeds} (derived seeds), never a shared generator.

    Concurrency contract: a pool is driven from one domain at a time
    (the domain that created it).  [map] called from inside a worker —
    nested parallelism — degrades to sequential execution instead of
    deadlocking.  Telemetry never demotes a pool: traced spans and
    events land in each domain's own flight-recorder ring
    ({!Telemetry.Ring}) and are merged into one ordered stream at flush
    time, so [--trace] and [jobs > 1] compose. *)

type t

exception Task_error of { index : int; exn : exn; backtrace : string }
(** A task raised: [index] is the input position of the failing task (the
    lowest failing index, matching what a sequential scan would hit
    first), [exn] the original exception.  The pool survives — workers
    catch per-task and stay available for the next [map].  Fatal
    exceptions ([Out_of_memory], [Stack_overflow], [Sys.Break]) are
    never wrapped: they re-raise bare so callers' handlers keep
    matching. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the hardware parallelism. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] worker capacity (default {!recommended_jobs}).
    [jobs = 1] is the pure sequential fallback: no domain is spawned,
    ever, and [map] is a plain in-place loop.  For [jobs > 1],
    [jobs - 1] worker domains are spawned eagerly and the driving domain
    works alongside them, so [jobs] domains compute during a [map].
    @raise Invalid_argument on [jobs < 1]. *)

val jobs : t -> int
[@@lint.allow "unused-export"] (* test hook: test_parallel.ml "jobs:1 spawns no domains" *)
(** The configured worker capacity. *)

val worker_count : t -> int
[@@lint.allow "unused-export"] (* test hook: test_parallel.ml "worker count" *)
(** Worker domains actually spawned: [jobs t - 1], or [0] for a
    sequential pool. *)

val effective_jobs : t -> int
(** What a [map] right now would use: [1] when the pool is sequential or
    shut down, [jobs t] otherwise. *)

val in_worker : unit -> bool
(** [true] on a pool worker domain.  [map] consults this to degrade
    nested parallelism to sequential execution. *)

val shutdown : t -> unit
(** Join every worker.  Idempotent; subsequent [map]s raise. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map, bit-identical to [Array.map f xs] for
    pure [f] at every [jobs].  Tasks are grouped into contiguous chunks
    (a pure function of input length and [effective_jobs], never of
    timing); a task failure aborts the rest of its own chunk, other
    chunks run to completion, and the lowest failing index is re-raised
    as {!Task_error}.
    @raise Task_error when a task raises.
    @raise Invalid_argument on a shut-down pool. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list. *)
