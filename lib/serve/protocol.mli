(** The `deltanet serve` wire protocol: one JSON object per line in, one
    JSON object per line out.

    Requests ([op] selects the variant):

    - [admit] — one admission decision.  Fields: [h] (hops, integer),
      [u0]/[uc] (through/cross utilization in [\[0, 1)]), [deadline]
      (end-to-end budget, ms, > 0); optional [eps] (violation
      probability, default 1e-9), [sched] (["fifo"|"bmux"|"sp"|"edf"],
      default fifo), [edf_ratio] (cross-over-through deadline ratio for
      EDF, default 10), [id] (echoed back for correlation).
    - [check] — contract findings for a shape, no bound computed.
    - [stats] — counter/cache snapshot.  [health] — liveness probe.
    - [metrics] — the whole metric registry in Prometheus text
      exposition, embedded as one JSON string field.
    - [debug-fail] — deliberately raises inside the worker; only parsed
      when the engine enables debug ops (the supervision tests' poisoned
      request).

    Responses are tagged by ["status"]: ["ok"], ["error"] (with a stable
    machine-readable ["code"] from the {!error_kind} taxonomy and an
    ["exit_hint"] mirroring the CLI exit codes), ["shed"] (overload,
    carries ["retry_after_ms"]) and ["timeout"] (per-request deadline
    missed).  Admission responses are tagged ["mode"]: ["exact"] for the
    s × gamma optimization on the engine's s-grid, ["approx"] for the
    same search on a 2-point s-grid.  Both are valid upper bounds, so a
    degraded answer can refuse an admissible flow but never admit an
    inadmissible one; as measured, approx is the looser of the two.  Every response may
    additionally carry a server-assigned ["trace"] id, echoed in the
    daemon's access-log telemetry so one can join a response against the
    trace after the fact.

    Parsing is total: every byte string maps to a request or to a typed
    error, never an exception.  A load of [-0] is read as [0], so the
    two spellings are one shape: one cache entry, one computation. *)

type scheduler_kind = Scheduler.Kind.t =
  | Fifo
  | Bmux
  | Sp
  | Edf of { cross_over_through : float }
(** Read from the [sched] field by {!Scheduler.Kind.of_string}. *)

type admit_params = {
  h : int;
  u_through : float;
  u_cross : float;
  epsilon : float;
  deadline : float;  (** end-to-end QoS budget, ms *)
  scheduler : scheduler_kind;
  budget_ms : float option;
      (** per-request compute budget override (wall ms); the engine's
          configured budget when absent *)
}

type request =
  | Admit of admit_params
  | Check of admit_params
  | Stats
  | Health
  | Metrics
  | Debug_fail

type error_kind =
  | Parse_error  (** the line is not valid JSON *)
  | Invalid_request  (** valid JSON, invalid protocol: bad op, missing or
                         out-of-range field, oversized line *)
  | Unstable  (** total utilization >= 1: no finite bound exists *)
  | Overloaded  (** shed: the server refused to queue the request *)
  | Deadline_exceeded  (** the per-request compute budget ran out *)
  | Internal  (** a supervised worker fault; the request was isolated *)

val error_code : error_kind -> string
(** Stable kebab-case identifier, e.g. ["invalid-request"]. *)

val exit_hint : error_kind -> int
(** The CLI exit code a batch front end would use for this failure:
    2 (usage) for parse/invalid, 3 for unstable, 1 for the rest. *)

type error = { kind : error_kind; detail : string }

val parse :
  ?max_bytes:int -> debug_ops:bool -> string -> string option * (request, error) result
(** Parse and validate one request line (default [max_bytes] 65536).
    The first component is the request [id] when one could be extracted —
    available even for most invalid requests, so error responses stay
    correlatable.  Total: never raises.

    The line is read once by {!Sjson.fields}, which keeps the first value
    bound to each protocol field; validation starts only after the whole
    line has been read, so a syntax error anywhere is a [Parse_error]
    with {!Sjson.parse}'s message.  A test oracle holds the result to
    [Sjson.parse] followed by {!Sjson.member} lookups. *)

(** {1 Response rendering} — one line of JSON, no trailing newline.

    Each response is written into one [Buffer], its strings and numbers
    by {!Telemetry.Json.add_string}, {!Telemetry.Json.add_number} and
    {!Telemetry.Json.add_int}, so the bytes are exactly those of
    {!Telemetry.Json.obj} over the same fields, in the same order.  A
    QCheck oracle in the test suite holds every [render_*] to the
    [Telemetry.Json.obj] rendering byte for byte. *)

type mode = Exact | Approx

val render_admit :
  ?id:string ->
  ?trace:string ->
  ?bound_text:string ->
  admitted:bool ->
  bound_ms:float ->
  deadline_ms:float ->
  mode:mode ->
  cache_hit:bool ->
  elapsed_ms:float ->
  unit ->
  string
(** [bound_text], when given, is written in place of [bound_ms]: the
    engine passes the [Telemetry.Json.number bound_ms] it memoized next
    to the bound, so a cached answer formats no bound. *)

val render_check : ?id:string -> ?trace:string -> findings:string list -> unit -> string
(** [findings] are {!Contracts.code} strings; empty means the shape passes
    every contract. *)

val render_error :
  ?id:string -> ?trace:string -> kind:error_kind -> detail:string -> unit -> string

val render_shed : ?id:string -> ?trace:string -> retry_after_ms:float -> unit -> string

val render_timeout :
  ?id:string -> ?trace:string -> elapsed_ms:float -> budget_ms:float -> unit -> string

val render_stats :
  ?id:string ->
  ?trace:string ->
  uptime_s:float ->
  served:int ->
  cache_len:int ->
  cache_capacity:int ->
  cache_hits:int ->
  cache_misses:int ->
  shed:int ->
  timeouts:int ->
  errors:int ->
  counters:(string * int) list ->
  unit ->
  string
(** The enriched stats reply: cache hit/miss totals with their ratio
    (0 when no lookup happened yet), shed/timeout/error counts since the
    engine started, uptime, plus the raw ["serve.*"] counter snapshot. *)

val render_health : ?id:string -> ?trace:string -> uptime_s:float -> unit -> string

val render_metrics : ?id:string -> ?trace:string -> prometheus:string -> unit -> string
(** The Prometheus exposition text as one escaped JSON string field
    (["prometheus"]). *)
