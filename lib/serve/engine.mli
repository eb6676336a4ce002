(** The admission-control serving engine: parse → police → compute →
    render, with every robustness behaviour the daemon advertises.

    One engine owns one {!Cache} of entries keyed by path shape (hops,
    utilizations, epsilon, scheduler — and, for EDF, the
    deadline-anchored gap).  A cache entry keeps the shape's memoized
    bounds, each next to the text its reply writes for it, so a repeat
    query is a hash lookup, a float compare and a copy — the 10⁵+/s hot
    path.  Exact and approx answers are memoized apart, each only when
    its diagnostic is [Converged].  A shape with no stable [s] is
    refused on every miss.

    {b Degradation ladder} (per request, chosen from the remaining
    compute budget and EWMA service-time estimates):

    + memoized bound — free;
    + [exact]: the full s+gamma optimization
      ({!Admission.decide} / {!Scenario.delay_bound_checked}), chosen
      while its predicted cost fits in half the remaining budget;
    + [approx]: the same {!Admission.decide} on a 2-point s-grid
      ({!approx_s_points}).  It is a valid upper bound, so a degraded
      answer may refuse an admissible flow but never wrongly admit.  As
      measured over serve-shaped requests it costs about a third of the
      16-point exact search, and its bound was never below the exact
      one by more than rounding (3e-15 relative);
    + [timeout]: a typed response when even the degraded path missed the
      request's budget (a converged bound is still memoized for the
      retry);
    + [shed]: an [overloaded] reply with a [retry_after_ms] hint when the
      batch backlog exceeds [max_queue] or the predicted queueing delay
      already exceeds the budget — emitted {e before} any work is spent.

    {b Supervision}: each request's compute runs under a catch-all; a
    poisoned request (malformed model, a deliberate [debug-fail]) becomes
    an [internal] error response and the engine — and the shared
    {!Parallel.Pool} — keep serving the rest of the batch.

    The engine is single-writer: one driver domain calls
    {!handle_line}/{!handle_batch}; only pure per-request work is fanned
    out, each mode's jobs in one map on the default pool. *)

type config = {
  budget_ms : float;  (** default per-request compute budget (wall ms) *)
  max_queue : int;  (** admit/check backlog bound before shedding *)
  cache_entries : int;  (** LRU capacity — the daemon's memory bound *)
  s_points : int;  (** s-grid resolution of the exact mode *)
  max_line_bytes : int;  (** request size bound *)
  debug_ops : bool;  (** accept [debug-fail] (tests only) *)
}

val approx_s_points : int
(** The s-grid resolution of the [approx] mode: 2. *)

val default_config : config
(** [budget_ms = 250.], [max_queue = 512], [cache_entries = 4096],
    [s_points = Scenario.s_points] (16),
    [max_line_bytes = 65536], [debug_ops = false]. *)

type t

val create : ?now:(unit -> float) -> config -> t
(** [?now] injects the clock (seconds; default [Unix.gettimeofday]) so
    deadline and shedding behaviour is deterministic under test. *)

val handle_line : t -> string -> string
(** One request line to one response line (no trailing newline).  Total:
    any byte string gets a structured response. *)

val handle_batch : t -> string list -> string list
(** Process a backlog of lines read in one gulp; responses come back in
    request order.  Shedding policy runs over the whole batch before any
    compute starts, so overload is refused early instead of after the
    queue has already burned the budget. *)

val stats_response : ?id:string -> ?trace:string -> t -> string
(** The enriched [stats] response line (also emitted on drain): uptime,
    served count, cache length/capacity, hit/miss totals with ratio, and
    shed/timeout/error counts since the engine started — exact even when
    telemetry is disabled, because the tallies live on the engine. *)

val cache_length : t -> int
val served : t -> int
[@@lint.allow "unused-export"] (* test hook: test/serve_golden.ml, whose scripted clock reads it *)

(** {1 Observability}

    Every response passes through the engine's access path: a
    server-assigned trace id ([<prefix>-<seq>], unique per engine) is
    echoed in the response's ["trace"] field and emitted as a
    ["serve.access"] telemetry event with the outcome and elapsed time;
    the per-request latency lands in the outcome-labelled histogram
    family ["serve.request_latency_ms{outcome=...}"] with outcome one of
    [exact]/[approx]/[shed]/[error]/[timeout]/[ok] (control ops), and the
    planner publishes the ["serve.queue_depth"] gauge per batch.  The
    [metrics] request verb renders the whole registry via
    {!Telemetry.Prometheus.render}. *)

val trace_id : string -> int -> string
(** [trace_id prefix seq] is the trace id of the [seq]-th request:
    [Printf.sprintf "%s-%06d" prefix seq] for [seq >= 0], built without
    the format interpreter.
    @raise Invalid_argument on a negative [seq]. *)
