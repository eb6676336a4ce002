(** The process-wide default pool, shared by every library hot path.

    Library code (Scaling's per-H fan-out, the replication harness,
    serve's exact batches) parallelizes through this module so one [--jobs N] /
    [DELTANET_JOBS] setting governs the whole process.  The default is
    {b sequential} ([jobs = 1]): a library must never spawn domains
    unless the application asked for them, so plain [dune utop] use,
    tests that did not opt in, and embedders all keep single-core
    behaviour until {!set_jobs} is called (the CLI and bench do this at
    startup). *)

val jobs_from_env : unit -> int option
(** [DELTANET_JOBS] parsed as a positive int ([0] means auto-detect via
    {!Pool.recommended_jobs}); [None] when unset, empty or malformed. *)

val set_jobs : int -> unit
(** Resize the default pool: [0] selects {!Pool.recommended_jobs},
    [1] sequential, [n > 1] that many domains.  Shuts down the previous
    pool's workers, if any.  @raise Invalid_argument on negative. *)

val jobs : unit -> int
(** The default pool's configured jobs (without forcing creation beyond
    what {!set_jobs} already did). *)

val get : unit -> Pool.t
(** The default pool, created on first use. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** {!Pool.map} on the default pool. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** {!Pool.map_list} on the default pool. *)
