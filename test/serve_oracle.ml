(* Byte-identity oracles for lib/serve: the JSON reader, the request
   reader and the response renderers as they were before the serve hit
   path was made allocation-light.  The JSON reader is the byte-by-byte
   recursive descent with one boxed [Some c] per peeked byte; the request
   reader validates the tree [Serve.Sjson.parse] builds; the renderers
   build every response with [Telemetry.Json.obj] over [Printf]-formatted
   strings and numbers.  test_serve.ml checks
   that the production [Serve.Sjson.parse], [Serve.Protocol.parse] and
   [Serve.Protocol.render_*] agree with these. *)

module Sjson = struct
  (* Recursive-descent JSON reader.  Totality strategy: one internal [Fail]
     exception caught at the single entry point, an explicit depth counter
     against stack exhaustion, and index arithmetic only through [peek]/
     [advance] so out-of-bounds reads become parse errors instead of
     [Invalid_argument]. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Fail of string

  type state = { src : string; len : int; mutable pos : int }

  let fail st msg = raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))
  let peek st = if st.pos < st.len then Some st.src.[st.pos] else None
  let advance st = st.pos <- st.pos + 1

  let expect st c =
    match peek st with
    | Some d when Char.equal d c -> advance st
    | Some d -> fail st (Printf.sprintf "expected '%c', found '%c'" c d)
    | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

  let skip_ws st =
    let continue = ref true in
    while !continue do
      match peek st with
      | Some (' ' | '\t' | '\n' | '\r') -> advance st
      | _ -> continue := false
    done

  let is_digit c = c >= '0' && c <= '9'

  (* literal [true] / [false] / [null] *)
  let expect_word st w v =
    String.iter (fun c -> expect st c) w;
    v

  let hex_digit st =
    match peek st with
    | Some c when is_digit c -> advance st; Char.code c - Char.code '0'
    | Some c when c >= 'a' && c <= 'f' -> advance st; Char.code c - Char.code 'a' + 10
    | Some c when c >= 'A' && c <= 'F' -> advance st; Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"

  let hex4 st =
    let a = hex_digit st in
    let b = hex_digit st in
    let c = hex_digit st in
    let d = hex_digit st in
    (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> advance st; Buffer.contents buf
      | Some '\\' ->
        advance st;
        (match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
          advance st;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* high surrogate: a low surrogate must follow *)
              expect st '\\';
              expect st 'u';
              let lo = hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate"
              else
                add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
            else add_utf8 buf cp
          | _ -> fail st "bad escape character"));
        go ()
      | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
      | Some c -> advance st; Buffer.add_char buf c; go ()
    in
    go ()

  (* JSON number grammar: -? int frac? exp?; the scan enforces the grammar
     shape (so "-", "01", "1." and "0x1" all fail) and [float_of_string]
     does the value conversion.  Overflow to [infinity] is preserved. *)
  let parse_number st =
    let start = st.pos in
    (match peek st with Some '-' -> advance st | _ -> ());
    (match peek st with
    | Some '0' -> advance st
    | Some c when is_digit c ->
      while (match peek st with Some d when is_digit d -> true | _ -> false) do
        advance st
      done
    | _ -> fail st "malformed number");
    (match peek st with
    | Some '.' ->
      advance st;
      (match peek st with
      | Some c when is_digit c -> ()
      | _ -> fail st "malformed number: no digits after '.'");
      while (match peek st with Some d when is_digit d -> true | _ -> false) do
        advance st
      done
    | _ -> ());
    (match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      (match peek st with
      | Some c when is_digit c -> ()
      | _ -> fail st "malformed number: empty exponent");
      while (match peek st with Some d when is_digit d -> true | _ -> false) do
        advance st
      done
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some v -> v
    | None -> fail st "malformed number"

  let rec parse_value st depth =
    if depth <= 0 then fail st "nesting too deep";
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some 't' -> expect_word st "true" (Bool true)
    | Some 'f' -> expect_word st "false" (Bool false)
    | Some 'n' -> expect_word st "null" Null
    | Some '"' -> Str (parse_string st)
    | Some '[' ->
      advance st;
      skip_ws st;
      (match peek st with
      | Some ']' -> advance st; Arr []
      | _ ->
        let rec items acc =
          let v = parse_value st (depth - 1) in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; items (v :: acc)
          | Some ']' -> advance st; Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items [])
    | Some '{' ->
      advance st;
      skip_ws st;
      (match peek st with
      | Some '}' -> advance st; Obj []
      | _ ->
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth - 1) in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; fields ((k, v) :: acc)
          | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        fields [])
    | Some ('-' | '0' .. '9') -> Num (parse_number st)
    | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

  let parse ?(max_depth = 64) src =
    let st = { src; len = String.length src; pos = 0 } in
    match parse_value st max_depth with
    | v ->
      skip_ws st;
      if st.pos <> st.len then Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
    | exception Fail msg -> Error msg
end

module Render = struct
  (* [Telemetry.Json] with [escape] and [number] written by [Printf],
     apart from the buffer writers [Telemetry.Json.add_string] and
     [add_number] the production renderers use, so the renderers below
     check those writers' bytes *)
  module J = struct
    include Telemetry.Json

    let escape s =
      let buf = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf

    let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
  end
  module P = Serve.Protocol

  let str s = "\"" ^ J.escape s ^ "\""
  let bool b = if b then "true" else "false"

  (* [id] (echoed client correlation id) leads, [trace] (server-assigned
     request trace id, also in the access log) closes, so clients can join
     a response line against the daemon's own telemetry. *)
  let with_ids id trace fields =
    let fields = match trace with None -> fields | Some s -> fields @ [ ("trace", str s) ] in
    match id with None -> fields | Some i -> ("id", str i) :: fields

  let render_admit ?id ?trace ~admitted ~bound_ms ~deadline_ms ~mode ~cache_hit
      ~elapsed_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "admit");
           ("admit", bool admitted);
           ("bound_ms", J.number bound_ms);
           ("deadline_ms", J.number deadline_ms);
           ("mode", str (match mode with P.Exact -> "exact" | P.Approx -> "approx"));
           ("cache", str (if cache_hit then "hit" else "miss"));
           ("elapsed_ms", J.number elapsed_ms);
         ])

  let render_check ?id ?trace ~findings () =
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "check");
           ("ok", bool (match findings with [] -> true | _ :: _ -> false));
           ("findings", J.arr (List.map str findings));
         ])

  let render_error ?id ?trace ~kind ~detail () =
    J.obj
      (with_ids id trace
         [
           ("status", str "error");
           ("code", str (P.error_code kind));
           ("detail", str detail);
           ("exit_hint", string_of_int (P.exit_hint kind));
         ])

  let render_shed ?id ?trace ~retry_after_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "shed");
           ("code", str (P.error_code P.Overloaded));
           ("retry_after_ms", J.number retry_after_ms);
           ("exit_hint", string_of_int (P.exit_hint P.Overloaded));
         ])

  let render_timeout ?id ?trace ~elapsed_ms ~budget_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "timeout");
           ("code", str (P.error_code P.Deadline_exceeded));
           ("elapsed_ms", J.number elapsed_ms);
           ("budget_ms", J.number budget_ms);
           ("exit_hint", string_of_int (P.exit_hint P.Deadline_exceeded));
         ])

  let render_stats ?id ?trace ~uptime_s ~served ~cache_len ~cache_capacity
      ~cache_hits ~cache_misses ~shed ~timeouts ~errors ~counters () =
    let lookups = cache_hits + cache_misses in
    let hit_ratio =
      if lookups = 0 then 0. else float_of_int cache_hits /. float_of_int lookups
    in
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "stats");
           ("uptime_s", J.number uptime_s);
           ("served", string_of_int served);
           ("cache_len", string_of_int cache_len);
           ("cache_capacity", string_of_int cache_capacity);
           ("cache_hits", string_of_int cache_hits);
           ("cache_misses", string_of_int cache_misses);
           ("cache_hit_ratio", J.number hit_ratio);
           ("shed", string_of_int shed);
           ("timeouts", string_of_int timeouts);
           ("errors", string_of_int errors);
           ( "counters",
             J.obj (List.map (fun (k, v) -> (k, string_of_int v)) counters) );
         ])

  let render_health ?id ?trace ~uptime_s () =
    J.obj
      (with_ids id trace
         [ ("status", str "ok"); ("op", str "health"); ("uptime_s", J.number uptime_s) ])

  let render_metrics ?id ?trace ~prometheus () =
    J.obj
      (with_ids id trace
         [ ("status", str "ok"); ("op", str "metrics"); ("prometheus", str prometheus) ])
end

module Request = struct
  (* The request reader over the parsed tree: [Sjson.parse], then each
     field looked up with [Sjson.member] — the pre-rewrite
     [Serve.Protocol.parse], verbatim apart from the opened types. *)
  open Serve.Protocol
  module Sjson = Serve.Sjson

  exception Bad of error_kind * string

  let bad kind fmt = Printf.ksprintf (fun s -> raise (Bad (kind, s))) fmt

  let default_epsilon = 1e-9
  let default_edf_ratio = 10.
  let max_hops = 10_000

  let get_num json field =
    match Sjson.member field json with
    | None -> bad Invalid_request "missing field %S" field
    | Some (Sjson.Num v) -> v
    | Some other ->
      bad Invalid_request "field %S must be a number, got %s" field (Sjson.type_name other)

  let get_num_opt json field ~default =
    match Sjson.member field json with
    | None -> default
    | Some (Sjson.Num v) -> v
    | Some other ->
      bad Invalid_request "field %S must be a number, got %s" field (Sjson.type_name other)

  let get_str_opt json field ~default =
    match Sjson.member field json with
    | None -> default
    | Some (Sjson.Str s) -> s
    | Some other ->
      bad Invalid_request "field %S must be a string, got %s" field (Sjson.type_name other)

  let finite field v =
    if Float.is_finite v then v else bad Invalid_request "field %S must be finite" field

  let utilization json field =
    let u = finite field (get_num json field) in
    if u < 0. || u >= 1. then bad Invalid_request "field %S = %g outside [0, 1)" field u;
    (* -0 is the load 0: one shape, one cache entry, one computation *)
    if Float.equal u 0. then 0. else u

  let admit_params_of ~require_deadline json =
    let hf = finite "h" (get_num json "h") in
    if not (Float.is_integer hf) then
      bad Invalid_request "field \"h\" = %g is not an integer" hf;
    (* the range is checked on the float: [int_of_float] of 1e20 overflows *)
    if hf < 1. || hf > float_of_int max_hops then
      bad Invalid_request "field \"h\" = %.0f outside [1, %d]" hf max_hops;
    let h = int_of_float hf in
    let u_through = utilization json "u0" in
    let u_cross = utilization json "uc" in
    if u_through +. u_cross >= 1. then
      bad Unstable "total utilization %g >= 1 — no finite bound exists"
        (u_through +. u_cross);
    let epsilon = get_num_opt json "eps" ~default:default_epsilon in
    if Float.is_nan epsilon || epsilon <= 0. || epsilon >= 1. then
      bad Invalid_request "field \"eps\" must be in (0, 1)";
    let deadline =
      if require_deadline then finite "deadline" (get_num json "deadline")
      else finite "deadline" (get_num_opt json "deadline" ~default:1.)
    in
    if deadline <= 0. then bad Invalid_request "field \"deadline\" = %g must be > 0" deadline;
    let ratio = get_num_opt json "edf_ratio" ~default:default_edf_ratio in
    if not (Float.is_finite ratio) || ratio <= 0. then
      bad Invalid_request "field \"edf_ratio\" must be finite and > 0";
    let sched_name = get_str_opt json "sched" ~default:"fifo" in
    let scheduler =
      match Scheduler.Kind.of_string ~ratio sched_name with
      | Some s -> s
      | None -> bad Invalid_request "unknown scheduler %S" sched_name
    in
    let budget_ms =
      match Sjson.member "budget_ms" json with
      | None -> None
      | Some (Sjson.Num v) when Float.is_finite v && v > 0. -> Some v
      | Some _ -> bad Invalid_request "field \"budget_ms\" must be a number > 0"
    in
    { h; u_through; u_cross; epsilon; deadline; scheduler; budget_ms }

  let request_of ~debug_ops json =
    match Sjson.member "op" json with
    | None -> bad Invalid_request "missing field \"op\""
    | Some (Sjson.Str "admit") -> Admit (admit_params_of ~require_deadline:true json)
    | Some (Sjson.Str "check") -> Check (admit_params_of ~require_deadline:false json)
    | Some (Sjson.Str "stats") -> Stats
    | Some (Sjson.Str "health") -> Health
    | Some (Sjson.Str "metrics") -> Metrics
    | Some (Sjson.Str "debug-fail") when debug_ops -> Debug_fail
    | Some (Sjson.Str op) -> bad Invalid_request "unknown op %S" op
    | Some other -> bad Invalid_request "field \"op\" must be a string, got %s" (Sjson.type_name other)

  let extract_id json =
    match Sjson.member "id" json with
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
      match Sjson.parse line with
      | Error msg -> (None, Error { kind = Parse_error; detail = msg })
      | Ok json ->
        let id = extract_id json in
        let result =
          match request_of ~debug_ops json with
          | req -> Ok req
          | exception Bad (kind, detail) -> Error { kind; detail }
        in
        (id, result)
end
