(** Zero-dependency observability: counters, gauges, log-scale histograms,
    nestable spans with structured key/value events, per-domain
    flight-recorder rings, and pluggable sinks.

    Design constraints, in priority order:

    - {b Disabled means free.}  Telemetry starts disabled; every recording
      entry point is a single load-and-branch until {!configure} is called,
      so instrumented hot loops (the Eq.-38 objective, the per-slot
      simulator) pay no measurable cost in production runs.
    - {b Metrics are pull, events are buffered.}  Counters, gauges and
      histograms accumulate in a process-global registry and are read with
      {!snapshot} (or emitted to the sink on {!shutdown}); span boundaries
      and key/value events are recorded into a per-domain bounded ring
      ({!Ring}) and only reach the configured {!Sink.t} when {!flush} or
      {!shutdown} merges the rings into one timestamp-ordered stream.
    - {b No dependencies.}  Only the standard library and [unix] (for the
      wall clock), so every sublibrary — including [minplus] at the bottom
      of the dependency tree — can be instrumented.
    - {b Domain-safe.}  Counters, gauges and histograms are lock-free
      atomics, the span stack is domain-local, and each domain records
      events into its own single-writer ring, so worker domains (the
      [parallel] execution layer) can run instrumented kernels — including
      traced ones — concurrently without losing updates and without any
      demotion to sequential execution. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type kv = string * value

val is_enabled : unit -> bool
(** [true] between {!configure} and {!shutdown}.  Guard any argument
    computation that is only needed for telemetry (recording entry points
    below already guard themselves). *)

val on : bool ref
(** The live enabled flag itself.  Per-iteration hot paths (the Eq.-38
    objective, the per-slot simulator) guard recording with
    [if !Telemetry.on then ...] — a single load-and-branch, cheaper than
    the cross-module call to {!is_enabled}.  Read-only by convention: only
    {!configure} and {!shutdown} may write it. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

(** {1 Sinks} *)

module Sink : sig
  type event =
    | Span_start of {
        ts : float;  (** wall-clock seconds at record time *)
        dom : int;  (** recording domain's id (0 = main) *)
        name : string;
        depth : int;
        attrs : kv list;
      }
    | Span_end of {
        ts : float;
        dom : int;
        name : string;
        depth : int;
        elapsed_ms : float;
        attrs : kv list;
      }
    | Point of {
        ts : float;
        dom : int;
        span : string option;
        depth : int;
        name : string;
        attrs : kv list;
      }
        (** A structured key/value event inside the enclosing span. *)
    | Metric of { kind : string; name : string; fields : kv list }
        (** One registry row ([kind] is ["counter"], ["gauge"] or
            ["histogram"]), emitted on {!shutdown}.  Histogram rows carry
            a ["buckets"] field (["upper:count;..."]) so offline tools can
            recompute quantiles. *)

  type t

  val make : emit:(event -> unit) -> flush:(unit -> unit) -> t
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "counter: disabled/accumulate/reset" *)

  val null : t
  (** Drops every event.  Counters/gauges/histograms still accumulate in
      the registry — use this to collect {!snapshot}s without writing a
      trace anywhere. *)

  val fmt : ?ppf:Format.formatter -> unit -> t
  (** Human-readable span tree (two-space indent per depth), to [ppf]
      (default stderr).  Events recorded off the main domain are prefixed
      with ["[d<id>]"]. *)

  val jsonl : out_channel -> t
  (** One JSON object per line.  Span/point records carry a ["ts"] field of
      seconds since the sink was created and a ["dom"] field with the
      recording domain's id.  The channel is flushed by [flush] but never
      closed. *)

  val tee : t list -> t
end

(** {1 Flight recorder} *)

module Ring : sig
  (** Per-domain bounded event ring.  Every {!span} boundary and {!event}
      is recorded into the calling domain's ring — single writer,
      lock-free publication through an atomic write index — and stays
      there until {!flush} or {!shutdown} merges all rings by timestamp
      into the sink.  When a ring wraps, the oldest events are
      overwritten (flight-recorder semantics: the tail survives a crash)
      and the next merge emits a synthetic
      ["telemetry.ring.dropped"] point carrying the overwritten count. *)

  val default_capacity : int
  (** Events per ring unless {!configure} overrides it (32768). *)
end

val ring_stats : unit -> (int * int) list
[@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "ring: overflow keeps the tail, merge is ordered" *)
(** [(domain id, events ever recorded)] for every ring created so far,
    sorted by domain id.  Rings of terminated domains remain listed —
    their events are still merged by {!flush}. *)

val configure : ?sink:Sink.t -> ?ring_capacity:int -> unit -> unit
(** Enable telemetry, routing merged events to [sink] (default
    {!Sink.null}).  Resets the span stack, discards events left in the
    rings by a previous run, and sets the capacity used by rings created
    from now on ([ring_capacity] must be >= 16; existing rings keep
    theirs).  Does not reset the metric registry. *)

val shutdown : unit -> unit
(** Merge the rings into the sink, emit every registry row as a
    {!Sink.Metric} event, flush the sink and disable telemetry.
    Idempotent; a no-op when disabled. *)

val flush : unit -> unit
(** Merge every ring's undrained events into one timestamp-ordered stream,
    hand it to the live sink and flush it, without disabling telemetry.
    A no-op when disabled.  {!configure} registers this once with
    [Stdlib.at_exit], so the flight-recorder tail and buffered JSONL rows
    survive a process that exits — or crashes by uncaught exception —
    without calling {!shutdown}; long-running servers also call it from
    their signal paths (SIGUSR1 dump, SIGTERM drain). *)

(** {1 Metrics} *)

module Counter : sig
  type t

  val make : string -> t
  (** Registers (or retrieves) the counter named [name].  Safe at module
      initialization time. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "counter: disabled/accumulate/reset" *)
end

module Gauge : sig
  type t

  val make : string -> t

  val set : t -> float -> unit
  (** Records the latest value and tracks the running maximum (high-water
      mark). *)

  val value : t -> float
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "gauge: last value and high-water" *)
  val max_value : t -> float
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "gauge: last value and high-water" *)
end

module Histogram : sig
  (** Log-scale (base-2 bucket) histogram of non-negative observations:
      constant memory, O(1) insert, quantiles exact to within a factor
      of 2. *)

  type t

  val make : string -> t
  val observe : t -> float -> unit
  val count : t -> int
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "histogram: log-scale quantiles" *)
  val sum : t -> float
  [@@lint.allow "unused-export"] (* test hook: test_telemetry.ml "histogram: log-scale quantiles" *)

  val buckets : t -> (float * int) list
  (** Non-empty buckets as [(upper bound, count)], ascending.  Bucket
      upper bounds are the base-2 boundaries [2^k]; a leading [(0., n)]
      entry counts non-positive observations. *)

  val quantile : t -> float -> float
  (** Upper bound of the bucket holding the [q]-quantile (clamped to the
      observed maximum); [nan] when empty.  {!quantile_of_buckets} over
      {!buckets}, {!count} and the observed maximum. *)

  val quantile_of_buckets :
    max_v:float -> count:int -> (float * int) list -> float -> float
  (** [quantile_of_buckets ~max_v ~count buckets q] over [(upper bound,
      count)] buckets in ascending order, as {!buckets} lists them, of
      [count] observations with maximum [max_v]: the target rank is
      [round (q *. count)] (at least 1, [q] clamped to [\[0, 1\]]), and
      the answer the upper bound of the first bucket whose cumulative
      count reaches it, clamped to [max_v] ([max_v] if none does); [nan]
      when [count = 0].  A histogram read back from a metrics dump gets
      the live percentiles from it exactly. *)
end

(** {1 Spans and events} *)

val span : ?attrs:kv list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a nested span: records
    [Span_start]/[Span_end] (with wall-clock [elapsed_ms]) around it in
    the calling domain's ring and folds the duration into the
    auto-registered histogram ["span.<name>.ms"] and counter
    ["span.<name>.calls"].  Exceptions propagate after closing the span
    with an ["error"] attribute.  When disabled this is exactly [f ()]. *)

val event : ?attrs:kv list -> string -> unit
(** Record a structured key/value event attributed to the innermost open
    span of the calling domain.  A no-op when disabled. *)

(** {1 Snapshots} *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_buckets : (float * int) list;  (** as {!Histogram.buckets} *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float * float) list;  (** name, last, max *)
  histograms : (string * histogram_view) list;
}
(** All lists sorted by metric name. *)

val snapshot : unit -> snapshot
(** Reads the registry; works whether telemetry is enabled or not. *)

val reset : unit -> unit
(** Zero every registered metric (they stay registered).  For tests and
    for delta-measurement between benchmark sections. *)

(** {1 Exporters} *)

module Prometheus : sig
  (** Prometheus text exposition (format version 0.0.4) of the metric
      registry.

      Registry names are mangled to exposition names ([[^a-zA-Z0-9_:]]
      becomes ['_']); a trailing [{k=v,...}] suffix on a registry name
      (e.g. ["serve.request_latency_ms{outcome=exact}"]) becomes a proper
      label set, and label-variants of one base name share a single
      [# TYPE] header.  Counters gain the conventional [_total] suffix;
      gauges render their last value plus a [_max] high-water series and
      are skipped while unset; histograms render cumulative
      [_bucket{le="..."}] series over the non-empty log-2 buckets, a
      closing [le="+Inf"], and [_sum]/[_count]. *)

  val render : unit -> string
  (** The whole registry, name-sorted within each metric kind. *)

  val write_file : string -> unit
  (** Atomically replace [path] with {!render}'s output (write to
      [path ^ ".tmp"], then rename), so scrapers never observe a torn
      snapshot. *)
end

module Json : sig
  (** Minimal JSON emission — enough to write valid JSON-lines and
      snapshot files without an external parser/printer. *)

  val add_string : Buffer.t -> string -> unit
  (** A JSON string literal, quotes included.  Only the double quote,
      the backslash and bytes below 0x20 are escaped ([\n], [\r], [\t]
      by name, the others as [\u00xx]); a string that needs none is
      copied as is. *)

  val add_int : Buffer.t -> int -> unit
  (** [string_of_int n], written without an intermediate string. *)

  val add_number : Buffer.t -> float -> unit
  (** Non-finite floats become [null] (JSON has no [inf]/[nan]); finite
      ones are what [Printf.sprintf "%.17g"] prints, through the same
      [caml_format_float "%.17g"] call, except that an integral value
      with 1 <= |x| < 1e15, whose "%.17g" form is just its digits, is
      written as those digits. *)

  val escape : string -> string
  (** Contents of a JSON string literal (no surrounding quotes), as
      {!add_string} writes them. *)

  val number : float -> string
  (** The text {!add_number} writes. *)

  val obj : (string * string) list -> string
  (** Values are raw, already-serialized JSON. *)

  val arr : string list -> string
end

module Csv : sig
  val cell : float -> string
  (** [%.6g], except non-finite values yield an empty cell — [inf]/[nan]
      literals break downstream CSV consumers. *)

  val row : float list -> string
  (** Comma-joined {!cell}s. *)
end
