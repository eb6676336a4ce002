(** Offline analyzer for telemetry JSONL files (the [--metrics FILE]
    output of any deltanet subcommand, serve soaks included).

    Feed it one or more files with {!add_file}; every derived view
    aggregates across everything added so far.  The replay is total and
    forgiving: unparseable lines are counted in [bad_lines], a
    [span_end] whose [span_start] was overwritten in the flight-recorder
    ring is aggregated as an orphan root-level call, and synthetic
    ["telemetry.ring.dropped"] points are summed into the dropped-event
    tally — a truncated trace still yields a usable report. *)

type t

val create : unit -> t

val add_file : t -> string -> unit
(** Replay one JSONL file into the aggregate.
    @raise Sys_error when the file cannot be opened. *)

(** {1 Derived views} *)

type span_stat = {
  s_name : string;
  s_calls : int;
  s_total_ms : float;
  s_self_ms : float;  (** total minus time spent in child spans *)
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;  (** exact percentiles over the replayed samples *)
}

val by_name : t -> span_stat list
(** One row per span name (aggregated over every position in the tree),
    sorted by total time, descending. *)

val hot_spans : ?top:int -> t -> span_stat list
(** The [top] (default 10) span names by self time. *)

val counter_rows : t -> (string * int) list
(** Counter totals (summed across files), sorted by name. *)

type serve_row = {
  sv_outcome : string;
  sv_count : int;
  sv_p50 : float;
  sv_p95 : float;
  sv_p99 : float;
  sv_source : string;
      (** ["access"]: exact percentiles from [serve.access] events;
          ["histogram"]: bucket-resolution percentiles recomputed from
          the dumped [serve.request_latency_ms{outcome=...}] rows by
          {!Telemetry.Histogram.quantile_of_buckets}, the bucket walk
          the daemon itself uses, so they equal the live values. *)
}

val serve_rows : t -> serve_row list
(** Per-outcome request-latency percentiles, sorted by outcome; empty
    when the trace contains no serve data. *)

val serve_rates : t -> int * float * float * float
(** [(requests, shed rate, timeout rate, error rate)] from the dumped
    serve counters; rates are fractions of requests (0 when none). *)

(** {1 Rendering} *)

val render_text : ?top:int -> t -> string
(** Human-readable report: header (files/lines/duration, drop and orphan
    tallies), per-name span table, top-[top] hot spans, the aggregated
    span tree, counter values with per-second rates over the trace
    duration, and the serve view when present. *)

val render_json : ?top:int -> t -> string
(** The same content as one JSON object. *)
