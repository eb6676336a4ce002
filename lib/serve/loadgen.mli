(** The seeded request stream behind [deltanet loadgen]: admit lines over
    a fixed pool of path shapes, optionally salted with malformed lines,
    for piping into [deltanet serve].

    The stream is a pure function of its {!config}: the same config gives
    the same bytes on every platform and at every pool size, which is
    what lets CI and tests pin its digest. *)

type config = {
  requests : int;  (** lines to emit, [>= 0] *)
  shapes : int;
      (** distinct path shapes drawn uniformly, [>= 1]; with N requests
          over K shapes the expected cache hit rate is 1 - K/N *)
  malformed : float;
      (** probability in [\[0, 1\]] that a line is deliberately malformed
          (truncated JSON, unknown op, bad type, out-of-range number, not
          JSON at all) *)
  seed : int;
  deadline_ms : float;  (** carried by every admit line, finite and [> 0] *)
  scheduler : Protocol.scheduler_kind;
      (** named on every admit line through {!Scheduler.Kind.label} *)
}

val default_config : config
(** [requests = 1000], [shapes = 50], [malformed = 0.], [seed = 1],
    [deadline_ms = 50.], [scheduler = Fifo]. *)

val iter : config -> (string -> unit) -> unit
(** [iter cfg f] calls [f] on each request line in order (no trailing
    newline).
    @raise Invalid_argument before emitting anything when a field is out
    of the range documented above. *)
