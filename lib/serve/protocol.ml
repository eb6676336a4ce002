(* Wire protocol: field extraction/validation on the way in, one-line
   JSON rendering (one buffer per response) on the way out.  Every validation
   failure is a typed [error]; the only exception here is the internal
   [Bad] carrier caught inside [parse]. *)

type scheduler_kind = Scheduler.Kind.t =
  | Fifo
  | Bmux
  | Sp
  | Edf of { cross_over_through : float }

type admit_params = {
  h : int;
  u_through : float;
  u_cross : float;
  epsilon : float;
  deadline : float;
  scheduler : scheduler_kind;
  budget_ms : float option;
}

type request =
  | Admit of admit_params
  | Check of admit_params
  | Stats
  | Health
  | Metrics
  | Debug_fail

type error_kind =
  | Parse_error
  | Invalid_request
  | Unstable
  | Overloaded
  | Deadline_exceeded
  | Internal

let error_code = function
  | Parse_error -> "parse-error"
  | Invalid_request -> "invalid-request"
  | Unstable -> "unstable"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Internal -> "internal"

(* Mirrors bin/deltanet_cli.ml: 2 = usage, 3 = unstable, 1 = runtime. *)
let exit_hint = function
  | Parse_error | Invalid_request -> 2
  | Unstable -> 3
  | Overloaded | Deadline_exceeded | Internal -> 1

type error = { kind : error_kind; detail : string }

exception Bad of error_kind * string

let bad kind fmt = Printf.ksprintf (fun s -> raise (Bad (kind, s))) fmt

let default_epsilon = 1e-9
let default_edf_ratio = 10.
let max_hops = 10_000

(* ---------------- field extraction ---------------- *)

(* The request's fields, read by one [Sjson.fields] pass into these
   slots; every other key is read and dropped. *)
let field_names =
  [| "op"; "id"; "h"; "u0"; "uc"; "eps"; "deadline"; "edf_ratio"; "sched"; "budget_ms" |]

let field_keys = Sjson.keys field_names

let f_op = 0
let f_id = 1
let f_h = 2
let f_u0 = 3
let f_uc = 4
let f_eps = 5
let f_deadline = 6
let f_edf_ratio = 7
let f_sched = 8
let f_budget_ms = 9

let get_num fields f =
  match fields.(f) with
  | None -> bad Invalid_request "missing field %S" field_names.(f)
  | Some (Sjson.Num v) -> v
  | Some other ->
    bad Invalid_request "field %S must be a number, got %s" field_names.(f)
      (Sjson.type_name other)

let get_num_opt fields f ~default =
  match fields.(f) with
  | None -> default
  | Some (Sjson.Num v) -> v
  | Some other ->
    bad Invalid_request "field %S must be a number, got %s" field_names.(f)
      (Sjson.type_name other)

let get_str_opt fields f ~default =
  match fields.(f) with
  | None -> default
  | Some (Sjson.Str s) -> s
  | Some other ->
    bad Invalid_request "field %S must be a string, got %s" field_names.(f)
      (Sjson.type_name other)

let finite f v =
  if Float.is_finite v then v else bad Invalid_request "field %S must be finite" field_names.(f)

let utilization fields f =
  let u = finite f (get_num fields f) in
  if u < 0. || u >= 1. then bad Invalid_request "field %S = %g outside [0, 1)" field_names.(f) u;
  (* -0 is the load 0: one shape, one cache entry, one computation *)
  if Float.equal u 0. then 0. else u

let admit_params_of ~require_deadline fields =
  let hf = finite f_h (get_num fields f_h) in
  if not (Float.is_integer hf) then
    bad Invalid_request "field \"h\" = %g is not an integer" hf;
  (* the range is checked on the float: [int_of_float] of 1e20 overflows *)
  if hf < 1. || hf > float_of_int max_hops then
    bad Invalid_request "field \"h\" = %.0f outside [1, %d]" hf max_hops;
  let h = int_of_float hf in
  let u_through = utilization fields f_u0 in
  let u_cross = utilization fields f_uc in
  if u_through +. u_cross >= 1. then
    bad Unstable "total utilization %g >= 1 — no finite bound exists"
      (u_through +. u_cross);
  let epsilon = get_num_opt fields f_eps ~default:default_epsilon in
  if Float.is_nan epsilon || epsilon <= 0. || epsilon >= 1. then
    bad Invalid_request "field \"eps\" must be in (0, 1)";
  let deadline =
    if require_deadline then finite f_deadline (get_num fields f_deadline)
    else finite f_deadline (get_num_opt fields f_deadline ~default:1.)
  in
  if deadline <= 0. then bad Invalid_request "field \"deadline\" = %g must be > 0" deadline;
  let ratio = get_num_opt fields f_edf_ratio ~default:default_edf_ratio in
  if not (Float.is_finite ratio) || ratio <= 0. then
    bad Invalid_request "field \"edf_ratio\" must be finite and > 0";
  let sched_name = get_str_opt fields f_sched ~default:"fifo" in
  let scheduler =
    match Scheduler.Kind.of_string ~ratio sched_name with
    | Some s -> s
    | None -> bad Invalid_request "unknown scheduler %S" sched_name
  in
  let budget_ms =
    match fields.(f_budget_ms) with
    | None -> None
    | Some (Sjson.Num v) when Float.is_finite v && v > 0. -> Some v
    | Some _ -> bad Invalid_request "field \"budget_ms\" must be a number > 0"
  in
  { h; u_through; u_cross; epsilon; deadline; scheduler; budget_ms }

let request_of ~debug_ops fields =
  match fields.(f_op) with
  | None -> bad Invalid_request "missing field \"op\""
  | Some (Sjson.Str "admit") -> Admit (admit_params_of ~require_deadline:true fields)
  | Some (Sjson.Str "check") -> Check (admit_params_of ~require_deadline:false fields)
  | Some (Sjson.Str "stats") -> Stats
  | Some (Sjson.Str "health") -> Health
  | Some (Sjson.Str "metrics") -> Metrics
  | Some (Sjson.Str "debug-fail") when debug_ops -> Debug_fail
  | Some (Sjson.Str op) -> bad Invalid_request "unknown op %S" op
  | Some other -> bad Invalid_request "field \"op\" must be a string, got %s" (Sjson.type_name other)

let extract_id fields =
  match fields.(f_id) with
  | Some (Sjson.Str s) -> Some s
  | Some (Sjson.Num v) when Float.is_finite v && Float.equal (Float.rem v 1.) 0. ->
    Some (Printf.sprintf "%.0f" v)
  | _ -> None

let parse ?(max_bytes = 65_536) ~debug_ops line =
  if String.length line > max_bytes then
    ( None,
      Error
        {
          kind = Invalid_request;
          detail =
            Printf.sprintf "oversized request: %d bytes (limit %d)" (String.length line)
              max_bytes;
        } )
  else
    match Sjson.fields field_keys line with
    | Error msg -> (None, Error { kind = Parse_error; detail = msg })
    | Ok fields ->
      let id = extract_id fields in
      let result =
        match request_of ~debug_ops fields with
        | req -> Ok req
        | exception Bad (kind, detail) -> Error { kind; detail }
      in
      (id, result)

(* ---------------- rendering ---------------- *)

type mode = Exact | Approx

(* ---- the field writer ----
   Every response is written into one [Buffer]: [open_reply] puts down
   the echoed [id] (when there is one) and the leading ["status"] field,
   each later field brings its own separating comma, and [close_reply]
   adds the ["trace"] field last.  Strings and numbers go through
   [Telemetry.Json]'s buffer writers, so the bytes are exactly those of
   [Telemetry.Json.obj] over the same fields. *)

module J = Telemetry.Json

(* Keys are the literal field names below, none of which needs escaping;
   the stats counters, named at run time, go through [J.add_string]. *)
let key buf k =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf k;
  Buffer.add_string buf "\":"

let str_field buf k v =
  key buf k;
  J.add_string buf v

let num_field buf k x =
  key buf k;
  J.add_number buf x

let int_field buf k n =
  key buf k;
  J.add_int buf n

let bool_field buf k b =
  key buf k;
  Buffer.add_string buf (if b then "true" else "false")

(* [id] (echoed client correlation id) leads, [trace] (server-assigned
   request trace id, also in the access log) closes, so clients can join
   a response line against the daemon's own telemetry. *)
let open_reply ?id status =
  let buf = Buffer.create 192 in
  Buffer.add_char buf '{';
  (match id with
  | None -> ()
  | Some i ->
    Buffer.add_string buf "\"id\":";
    J.add_string buf i;
    Buffer.add_char buf ',');
  Buffer.add_string buf "\"status\":";
  J.add_string buf status;
  buf

let close_reply ?trace buf =
  (match trace with None -> () | Some s -> str_field buf "trace" s);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* The admit reply is the hot one: its constant runs are written in one
   piece each, the same bytes as the field-by-field writer's. *)
let admit_head admitted =
  if admitted then ",\"op\":\"admit\",\"admit\":true,\"bound_ms\":"
  else ",\"op\":\"admit\",\"admit\":false,\"bound_ms\":"

let admit_mode_cache mode cache_hit =
  match (mode, cache_hit) with
  | Exact, true -> ",\"mode\":\"exact\",\"cache\":\"hit\",\"elapsed_ms\":"
  | Exact, false -> ",\"mode\":\"exact\",\"cache\":\"miss\",\"elapsed_ms\":"
  | Approx, true -> ",\"mode\":\"approx\",\"cache\":\"hit\",\"elapsed_ms\":"
  | Approx, false -> ",\"mode\":\"approx\",\"cache\":\"miss\",\"elapsed_ms\":"

let render_admit ?id ?trace ?bound_text ~admitted ~bound_ms ~deadline_ms ~mode ~cache_hit
    ~elapsed_ms () =
  let b = open_reply ?id "ok" in
  Buffer.add_string b (admit_head admitted);
  (match bound_text with Some s -> Buffer.add_string b s | None -> J.add_number b bound_ms);
  num_field b "deadline_ms" deadline_ms;
  Buffer.add_string b (admit_mode_cache mode cache_hit);
  J.add_number b elapsed_ms;
  close_reply ?trace b

let render_check ?id ?trace ~findings () =
  let b = open_reply ?id "ok" in
  str_field b "op" "check";
  bool_field b "ok" (match findings with [] -> true | _ :: _ -> false);
  key b "findings";
  Buffer.add_char b '[';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      J.add_string b f)
    findings;
  Buffer.add_char b ']';
  close_reply ?trace b

let render_error ?id ?trace ~kind ~detail () =
  let b = open_reply ?id "error" in
  str_field b "code" (error_code kind);
  str_field b "detail" detail;
  int_field b "exit_hint" (exit_hint kind);
  close_reply ?trace b

let render_shed ?id ?trace ~retry_after_ms () =
  let b = open_reply ?id "shed" in
  str_field b "code" (error_code Overloaded);
  num_field b "retry_after_ms" retry_after_ms;
  int_field b "exit_hint" (exit_hint Overloaded);
  close_reply ?trace b

let render_timeout ?id ?trace ~elapsed_ms ~budget_ms () =
  let b = open_reply ?id "timeout" in
  str_field b "code" (error_code Deadline_exceeded);
  num_field b "elapsed_ms" elapsed_ms;
  num_field b "budget_ms" budget_ms;
  int_field b "exit_hint" (exit_hint Deadline_exceeded);
  close_reply ?trace b

let render_stats ?id ?trace ~uptime_s ~served ~cache_len ~cache_capacity
    ~cache_hits ~cache_misses ~shed ~timeouts ~errors ~counters () =
  let lookups = cache_hits + cache_misses in
  let hit_ratio =
    if lookups = 0 then 0. else float_of_int cache_hits /. float_of_int lookups
  in
  let b = open_reply ?id "ok" in
  str_field b "op" "stats";
  num_field b "uptime_s" uptime_s;
  int_field b "served" served;
  int_field b "cache_len" cache_len;
  int_field b "cache_capacity" cache_capacity;
  int_field b "cache_hits" cache_hits;
  int_field b "cache_misses" cache_misses;
  num_field b "cache_hit_ratio" hit_ratio;
  int_field b "shed" shed;
  int_field b "timeouts" timeouts;
  int_field b "errors" errors;
  key b "counters";
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      J.add_string b k;
      Buffer.add_char b ':';
      J.add_int b v)
    counters;
  Buffer.add_char b '}';
  close_reply ?trace b

let render_health ?id ?trace ~uptime_s () =
  let b = open_reply ?id "ok" in
  str_field b "op" "health";
  num_field b "uptime_s" uptime_s;
  close_reply ?trace b

let render_metrics ?id ?trace ~prometheus () =
  let b = open_reply ?id "ok" in
  str_field b "op" "metrics";
  str_field b "prometheus" prometheus;
  close_reply ?trace b
