(** The serving loop behind [deltanet serve]: request lines in from a file
    descriptor, one {!Engine} answering them, response lines out on a
    channel in request order.

    Everything already queued on the descriptor is read in one gulp, so
    the engine's shed policy sees the real backlog.  Complete lines are
    never capped: an oversized complete line reaches the engine, which
    rejects it by the protocol's [max_bytes] check.  A trailing partial
    line longer than 2 × [max_line_bytes] is discarded before parsing
    and answered with exactly one [invalid-request] error; the rest of
    that line, up to its newline, is dropped.

    The [stop] and [snapshot] flags are atomics so that signal handlers,
    or a test, can raise them; the loop polls them at least every 0.2 s. *)

type config = {
  engine : Engine.config;
  batch : int;  (** most lines per {!Engine.handle_batch} call, [>= 1] *)
  prom : string option;
      (** Prometheus snapshot file, rewritten atomically at start-up, every
          [prom_interval], when [snapshot] is raised and on drain *)
  prom_interval : float;  (** seconds, finite and [> 0] *)
}

val default_config : config
(** {!Engine.default_config}, [batch = 64], no [prom],
    [prom_interval = 5.]. *)

val run :
  ?stop:bool Atomic.t -> ?snapshot:bool Atomic.t -> config -> Unix.file_descr -> out_channel -> unit
(** [run cfg input output] serves until end of input or [stop], then
    drains: it answers the complete lines already read, then a final
    partial line (a writer cut mid-request), then writes the
    {!Engine.stats_response} line and flushes telemetry.  [snapshot] is
    lowered once its snapshot is written.
    @raise Invalid_argument when [batch] or [prom_interval] is out of
    range, or when {!Engine.create} rejects [cfg.engine]. *)
