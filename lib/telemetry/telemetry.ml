(* Zero-dependency observability: metric registry, spans, flight-recorder
   rings, pluggable sinks.

   The enabled flag is the single hot-path gate: every recording entry
   point loads it and branches before doing any work, so instrumentation
   left in tight loops costs one predictable branch when telemetry is off.

   Domain-safety contract (for the lib/parallel execution layer):

   - counters, gauges and histograms are lock-free atomics, so worker
     domains running instrumented kernels concurrently never lose an
     update and the registry totals stay exact (and, because the work
     itself is deterministic, identical across worker counts);
   - the span stack is domain-local, so a span opened inside a worker
     nests against that worker's own spans, never against another
     domain's;
   - span/point events are recorded into a per-domain bounded ring (one
     writer per ring, lock-free publication through an atomic write
     index), never pushed to the sink inline.  [flush] merges all rings
     by timestamp into one ordered stream and hands it to the sink from
     the calling domain, so sinks see a single-domain, time-ordered
     stream no matter how many domains recorded — parallel pools need no
     demotion while tracing. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type kv = string * value

let enabled = ref false
let is_enabled () = !enabled
let on = enabled
let now () = Unix.gettimeofday ()
let dom_id () = (Domain.self () :> int)

(* ---------------- JSON / CSV emission ---------------- *)

module Json = struct
  external format_float : string -> float -> string = "caml_format_float"

  let needs_escape c = Char.equal c '"' || Char.equal c '\\' || Char.code c < 0x20

  (* [String.exists needs_escape], without the closure it allocates *)
  let rec has_escape s i =
    i < String.length s && (needs_escape s.[i] || has_escape s (i + 1))

  let hex_digit n = "0123456789abcdef".[n]

  let add_escaped_char buf c =
    match c with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 0xf))
    | c -> Buffer.add_char buf c

  let add_string buf s =
    Buffer.add_char buf '"';
    if has_escape s 0 then String.iter (add_escaped_char buf) s
    else Buffer.add_string buf s;
    Buffer.add_char buf '"'

  (* [string_of_int n] straight into the buffer; [add_digits] takes
     n <= 0 so that [min_int] has no positive counterpart to overflow *)
  let rec add_digits buf n =
    if n <= -10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.chr (Char.code '0' - (n mod 10)))

  let add_int buf n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf n
    end
    else add_digits buf (-n)

  (* An integral x with 1 <= |x| < 1e15 has at most 15 digits, all of
     which "%.17g" prints and nothing else, so it skips the C formatter.
     Zero stays there: "%.17g" writes -0 as "-0". *)
  let add_number buf x =
    if not (Float.is_finite x) then Buffer.add_string buf "null"
    else if Float.is_integer x && Float.abs x >= 1. && Float.abs x < 1e15 then
      add_int buf (int_of_float x)
    else Buffer.add_string buf (format_float "%.17g" x)

  let contents size write =
    let buf = Buffer.create size in
    write buf;
    Buffer.contents buf

  let escape s =
    if has_escape s 0 then
      contents (String.length s + 8) (fun buf -> String.iter (add_escaped_char buf) s)
    else s

  let number x = contents 24 (fun buf -> add_number buf x)

  let of_value = function
    | Int i -> string_of_int i
    | Float x -> number x
    | Str s -> "\"" ^ escape s ^ "\""
    | Bool b -> if b then "true" else "false"

  let obj fields =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ v) fields)
    ^ "}"

  let arr items = "[" ^ String.concat "," items ^ "]"
end

module Csv = struct
  let cell v = if Float.is_finite v then Printf.sprintf "%.6g" v else ""
  let row vs = String.concat "," (List.map cell vs)
end

(* ---------------- sinks ---------------- *)

module Sink = struct
  type event =
    | Span_start of {
        ts : float;
        dom : int;
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
    | Metric of { kind : string; name : string; fields : kv list }

  type t = { emit : event -> unit; flush : unit -> unit }

  let make ~emit ~flush = { emit; flush }
  let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

  let pp_attrs ppf = function
    | [] -> ()
    | attrs ->
      Format.fprintf ppf " {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf ppf " ";
          let s =
            match v with
            | Int n -> string_of_int n
            | Float x -> Printf.sprintf "%g" x
            | Str s -> s
            | Bool b -> string_of_bool b
          in
          Format.fprintf ppf "%s=%s" k s)
        attrs;
      Format.fprintf ppf "}"

  let fmt ?ppf () =
    let ppf = match ppf with Some p -> p | None -> Format.err_formatter in
    let indent d = String.make (2 * d) ' ' in
    let pp_dom ppf d = if d <> 0 then Format.fprintf ppf "[d%d] " d in
    let emit = function
      | Span_start { ts = _; dom; name; depth; attrs } ->
        Format.fprintf ppf "%s%a> %s%a@." (indent depth) pp_dom dom name
          pp_attrs attrs
      | Span_end { ts = _; dom; name; depth; elapsed_ms; attrs } ->
        Format.fprintf ppf "%s%a< %s %.3fms%a@." (indent depth) pp_dom dom name
          elapsed_ms pp_attrs attrs
      | Point { ts = _; dom; span = _; depth; name; attrs } ->
        Format.fprintf ppf "%s%a. %s%a@." (indent depth) pp_dom dom name
          pp_attrs attrs
      | Metric { kind; name; fields } ->
        Format.fprintf ppf "# %s %s%a@." kind name pp_attrs fields
    in
    { emit; flush = (fun () -> Format.pp_print_flush ppf ()) }

  let jsonl oc =
    let epoch = now () in
    let ts_field ts = ("ts", Json.number (ts -. epoch)) in
    let dom_field dom = ("dom", string_of_int dom) in
    let attr_fields attrs = List.map (fun (k, v) -> (k, Json.of_value v)) attrs in
    let line fields =
      output_string oc (Json.obj fields);
      output_char oc '\n'
    in
    let emit = function
      | Span_start { ts; dom; name; depth; attrs } ->
        line
          ([ ("type", "\"span_start\""); ts_field ts; dom_field dom;
             ("name", Json.of_value (Str name)); ("depth", string_of_int depth) ]
          @ attr_fields attrs)
      | Span_end { ts; dom; name; depth; elapsed_ms; attrs } ->
        line
          ([ ("type", "\"span_end\""); ts_field ts; dom_field dom;
             ("name", Json.of_value (Str name)); ("depth", string_of_int depth);
             ("elapsed_ms", Json.number elapsed_ms) ]
          @ attr_fields attrs)
      | Point { ts; dom; span; depth = _; name; attrs } ->
        let span_field =
          match span with
          | None -> []
          | Some s -> [ ("span", Json.of_value (Str s)) ]
        in
        line
          ([ ("type", "\"event\""); ts_field ts; dom_field dom;
             ("name", Json.of_value (Str name)) ]
          @ span_field @ attr_fields attrs)
      | Metric { kind; name; fields } ->
        line
          ([ ("type", Json.of_value (Str kind));
             ("name", Json.of_value (Str name)) ]
          @ attr_fields fields)
    in
    { emit; flush = (fun () -> flush oc) }

  let tee sinks =
    {
      emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
      flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
    }
end

let sink = ref Sink.null

(* ---------------- flight-recorder rings ---------------- *)

module Ring = struct
  (* One ring per recording domain, single writer (the owning domain).
     The slot array is published through [r_w]: the writer stores the
     event first, then bumps the atomic write index, so any index a
     reader observes covers fully-written slots.  Readers (the merge in
     [flush]) re-read [r_w] after copying and discard anything that may
     have been overwritten mid-copy, so a drain racing a live writer
     yields a consistent suffix rather than torn data.  When the ring
     wraps, the oldest events are overwritten — flight-recorder
     semantics: after a crash the tail survives, and the merge reports
     how many events fell off the front. *)

  type t = {
    r_dom : int;
    r_cap : int;
    r_slots : Sink.event array;
    r_w : int Atomic.t;  (* total events ever recorded to this ring *)
    mutable r_read : int;  (* drained up to; only touched under rings_mutex *)
  }

  let default_capacity = 32768
  let dummy = Sink.Metric { kind = ""; name = ""; fields = [] }

  let make ~dom ~cap =
    (* round up to a power of two so [record] can mask instead of
       divide — an integer division on every event is measurable in the
       ring's ns/record cost *)
    let cap =
      let rec up n = if n >= cap then n else up (n * 2) in
      up 1
    in
    {
      r_dom = dom;
      r_cap = cap;
      r_slots = Array.make cap dummy;
      r_w = Atomic.make 0;
      r_read = 0;
    }

  let record r ev =
    let i = Atomic.get r.r_w in
    r.r_slots.(i land (r.r_cap - 1)) <- ev;
    Atomic.set r.r_w (i + 1)
  [@@zero_alloc_check]
end

let rings_mutex = Mutex.create ()
let rings : Ring.t list ref = ref []
let ring_cap = ref Ring.default_capacity

let ring_key : Ring.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = Ring.make ~dom:(dom_id ()) ~cap:!ring_cap in
      Mutex.lock rings_mutex;
      rings := r :: !rings;
      Mutex.unlock rings_mutex;
      r)

let record ev = Ring.record (Domain.DLS.get ring_key) ev [@@zero_alloc_check]

let ring_stats () =
  Mutex.lock rings_mutex;
  let rs = !rings in
  Mutex.unlock rings_mutex;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (List.map (fun r -> (r.Ring.r_dom, Atomic.get r.Ring.r_w)) rs)

let event_ts = function
  | Sink.Span_start { ts; _ } | Sink.Span_end { ts; _ } | Sink.Point { ts; _ }
    ->
    ts
  | Sink.Metric _ -> 0.

let event_dom = function
  | Sink.Span_start { dom; _ } | Sink.Span_end { dom; _ }
  | Sink.Point { dom; _ } ->
    dom
  | Sink.Metric _ -> 0

(* Drain every ring and merge into one timestamp-ordered stream.  Ties
   (identical wall-clock stamps) break by (domain, ring order), so the
   merged stream is deterministic given the recorded events.  Holding
   [rings_mutex] for the whole drain serializes concurrent flushers;
   writers never take the lock, so a drain can race a live writer — the
   per-ring re-check above keeps that safe. *)
let drain_rings () =
  Mutex.lock rings_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock rings_mutex)
    (fun () ->
      let out = ref [] in
      List.iter
        (fun r ->
          let w = Atomic.get r.Ring.r_w in
          let lo = max r.Ring.r_read (w - r.Ring.r_cap) in
          let copied = ref [] in
          for i = w - 1 downto lo do
            copied := (i, r.Ring.r_slots.(i mod r.Ring.r_cap)) :: !copied
          done;
          let w' = Atomic.get r.Ring.r_w in
          let lo' = max lo (w' - r.Ring.r_cap) in
          let kept = List.filter (fun (i, _) -> i >= lo') !copied in
          let dropped = lo' - r.Ring.r_read in
          r.Ring.r_read <- w;
          (match kept with
          | (_, first) :: _ when dropped > 0 ->
            out :=
              ( event_ts first,
                r.Ring.r_dom,
                min_int,
                Sink.Point
                  {
                    ts = event_ts first;
                    dom = r.Ring.r_dom;
                    span = None;
                    depth = 0;
                    name = "telemetry.ring.dropped";
                    attrs = [ ("count", Int dropped) ];
                  } )
              :: !out
          | _ -> ());
          List.iter
            (fun (i, ev) -> out := (event_ts ev, event_dom ev, i, ev) :: !out)
            kept)
        !rings;
      List.map
        (fun (_, _, _, ev) -> ev)
        (List.sort
           (fun (ta, da, ia, _) (tb, db, ib, _) ->
             let c = Float.compare ta tb in
             if c <> 0 then c
             else
               let c = Int.compare da db in
               if c <> 0 then c else Int.compare ia ib)
           !out))

let flush () =
  if !enabled then begin
    List.iter !sink.Sink.emit (drain_rings ());
    !sink.Sink.flush ()
  end

(* ---------------- metric registry ---------------- *)

(* Atomic update by compare-and-swap.  The value read is the exact box the
   CAS compares against (physical equality), so the loop terminates as soon
   as no other domain raced the update. *)
let atomic_update a f =
  let rec go () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (f cur)) then go ()
  in
  go ()

type counter = { c_name : string; c_value : int Atomic.t }

type gauge = {
  g_name : string;
  g_last : float Atomic.t;
  g_max : float Atomic.t;
}

(* Base-2 log buckets: bucket [i] holds x with 2^(i-65) <= x < 2^(i-64)
   (frexp exponent clamped to [-64, 64]); bucket 0 holds x <= 0. *)
let hist_buckets = 130

type histogram = {
  hg_name : string;
  hg_counts : int Atomic.t array;
  hg_n : int Atomic.t;
  hg_sum : float Atomic.t;
  hg_min : float Atomic.t;
  hg_max : float Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* The registry itself is the one shared structure an Atomic cannot cover:
   spans auto-register their histogram on first use, which can happen in a
   worker domain, so registration and whole-registry reads take a lock. *)
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register name mk =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = mk () in
        Hashtbl.replace registry name m;
        m)

module Counter = struct
  type t = counter

  let make name =
    match register name (fun () -> C { c_name = name; c_value = Atomic.make 0 }) with
    | C c -> c
    | _ -> invalid_arg ("Telemetry.Counter.make: " ^ name ^ " is not a counter")

  let add c by = if !enabled then ignore (Atomic.fetch_and_add c.c_value by)
  let incr c = add c 1
  let value c = Atomic.get c.c_value
end

module Gauge = struct
  type t = gauge

  let make name =
    match
      register name (fun () ->
          G
            {
              g_name = name;
              g_last = Atomic.make Float.nan;
              g_max = Atomic.make Float.neg_infinity;
            })
    with
    | G g -> g
    | _ -> invalid_arg ("Telemetry.Gauge.make: " ^ name ^ " is not a gauge")

  let set g v =
    if !enabled then begin
      Atomic.set g.g_last v;
      atomic_update g.g_max (fun m -> if v > m then v else m)
    end

  let value g = Atomic.get g.g_last
  let max_value g = Atomic.get g.g_max
end

module Histogram = struct
  type t = histogram

  let make name =
    match
      register name (fun () ->
          H
            {
              hg_name = name;
              hg_counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
              hg_n = Atomic.make 0;
              hg_sum = Atomic.make 0.;
              hg_min = Atomic.make Float.infinity;
              hg_max = Atomic.make Float.neg_infinity;
            })
    with
    | H h -> h
    | _ ->
      invalid_arg ("Telemetry.Histogram.make: " ^ name ^ " is not a histogram")

  let bucket_of x =
    if not (x > 0.) then 0
    else
      let (_, e) = Float.frexp x in
      let i = e + 65 in
      if i < 1 then 1 else if i >= hist_buckets then hist_buckets - 1 else i

  (* [frexp x = (m, e)] with [m] in [0.5, 1), so bucket [i = e + 65] holds
     x in [2^(e-1), 2^e) and its tight upper bound is 2^e = 2^(i - 65). *)
  let bucket_upper i = if i = 0 then 0. else Float.ldexp 1. (i - 65)

  let observe h x =
    if !enabled && not (Float.is_nan x) then begin
      ignore (Atomic.fetch_and_add h.hg_counts.(bucket_of x) 1);
      ignore (Atomic.fetch_and_add h.hg_n 1);
      atomic_update h.hg_sum (fun s -> s +. x);
      atomic_update h.hg_min (fun m -> if x < m then x else m);
      atomic_update h.hg_max (fun m -> if x > m then x else m)
    end

  let count h = Atomic.get h.hg_n
  let sum h = Atomic.get h.hg_sum

  let buckets h =
    let acc = ref [] in
    for i = hist_buckets - 1 downto 0 do
      let c = Atomic.get h.hg_counts.(i) in
      if c > 0 then acc := (bucket_upper i, c) :: !acc
    done;
    !acc

  let quantile_of_buckets ~max_v ~count buckets q =
    if count = 0 then Float.nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = Stdlib.max 1 (int_of_float (Float.round (q *. float_of_int count))) in
      let rec go acc = function
        | [] -> max_v
        | (upper, c) :: rest ->
          let acc = acc + c in
          if acc >= target then Float.min upper max_v else go acc rest
      in
      go 0 buckets
    end

  let quantile h q =
    quantile_of_buckets ~max_v:(Atomic.get h.hg_max) ~count:(Atomic.get h.hg_n) (buckets h) q
end

(* ---------------- spans and events ---------------- *)

(* Domain-local: a span opened inside a pool worker nests against that
   worker's spans only.  The main domain keeps the CLI-visible tree. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

(* Every span close feeds a histogram and a counter derived from the span
   name.  Resolving them through the registry each time costs two mutex
   acquisitions plus two string concatenations — and the mutex is shared
   across domains, so a traced parallel sweep would serialize on it.
   Span-name cardinality is tiny, so a lock-free association list in an
   atomic serves repeat lookups without synchronisation and falls back to
   the registry only the first time a name is seen.  [reset] zeroes
   metrics in place without removing them from the registry, so cached
   pairs never go stale. *)
let span_metrics : (string * (histogram * counter)) list Atomic.t =
  Atomic.make []

let rec span_metrics_for name =
  let rec find = function
    | [] -> None
    | (n, v) :: tl -> if String.equal n name then Some v else find tl
  in
  let cache = Atomic.get span_metrics in
  match find cache with
  | Some pair -> pair
  | None ->
    let pair =
      ( Histogram.make ("span." ^ name ^ ".ms"),
        Counter.make ("span." ^ name ^ ".calls") )
    in
    (* a lost race just retries; the registry dedupes the underlying
       metrics, so whichever entry wins the CAS points at the same
       objects *)
    if Atomic.compare_and_set span_metrics cache ((name, pair) :: cache)
    then pair
    else span_metrics_for name

let span ?(attrs = []) name f =
  if not !enabled then f ()
  else begin
    let stack = stack () in
    let dom = dom_id () in
    let depth = List.length !stack in
    let t0 = now () in
    record (Sink.Span_start { ts = t0; dom; name; depth; attrs });
    stack := name :: !stack;
    let close extra =
      let t1 = now () in
      let elapsed_ms = (t1 -. t0) *. 1000. in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      (* histogram/counter before the enabled-recheck: shutdown inside the
         span would otherwise lose the closing sample *)
      let hist, calls = span_metrics_for name in
      Histogram.observe hist elapsed_ms;
      Counter.incr calls;
      record (Sink.Span_end { ts = t1; dom; name; depth; elapsed_ms; attrs = extra })
    in
    match f () with
    | v ->
      close [];
      v
    | exception e ->
      close [ ("error", Str (Printexc.to_string e)) ];
      raise e
  end

let event ?(attrs = []) name =
  if !enabled then begin
    let stack = stack () in
    record
      (Sink.Point
         {
           ts = now ();
           dom = dom_id ();
           span = (match !stack with [] -> None | s :: _ -> Some s);
           depth = List.length !stack;
           name;
           attrs;
         })
  end

(* ---------------- snapshots ---------------- *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_buckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float * float) list;
  histograms : (string * histogram_view) list;
}

let hist_view h =
  let n = Atomic.get h.hg_n in
  {
    h_count = n;
    h_sum = Atomic.get h.hg_sum;
    h_min = (if n = 0 then Float.nan else Atomic.get h.hg_min);
    h_max = (if n = 0 then Float.nan else Atomic.get h.hg_max);
    h_p50 = Histogram.quantile h 0.5;
    h_p90 = Histogram.quantile h 0.9;
    h_p99 = Histogram.quantile h 0.99;
    h_buckets = Histogram.buckets h;
  }

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> counters := (c.c_name, Atomic.get c.c_value) :: !counters
          | G g ->
            gauges :=
              (g.g_name, Atomic.get g.g_last, Atomic.get g.g_max) :: !gauges
          | H h -> histograms := (h.hg_name, hist_view h) :: !histograms)
        registry);
  {
    counters = List.sort (fun (a, _) (b, _) -> String.compare a b) !counters;
    gauges = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !gauges;
    histograms =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !histograms;
  }

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c_value 0
          | G g ->
            Atomic.set g.g_last Float.nan;
            Atomic.set g.g_max Float.neg_infinity
          | H h ->
            Array.iter (fun b -> Atomic.set b 0) h.hg_counts;
            Atomic.set h.hg_n 0;
            Atomic.set h.hg_sum 0.;
            Atomic.set h.hg_min Float.infinity;
            Atomic.set h.hg_max Float.neg_infinity)
        registry)

(* ---------------- Prometheus text exposition ---------------- *)

module Prometheus = struct
  (* Registry names use dots and optional trailing labels:
     "serve.request_latency_ms{outcome=exact}".  Exposition mangles the
     base ([^a-zA-Z0-9_:] -> '_') and renders labels with quoted values;
     histograms become cumulative _bucket/_sum/_count series with a
     closing le="+Inf", counters gain the conventional _total suffix. *)

  let sanitize base =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      base

  let split_labels name =
    let n = String.length name in
    match String.index_opt name '{' with
    | Some i when n > 0 && Char.equal name.[n - 1] '}' ->
      let base = String.sub name 0 i in
      let inner = String.sub name (i + 1) (n - i - 2) in
      let labels =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some j ->
              Some
                ( String.sub kv 0 j,
                  String.sub kv (j + 1) (String.length kv - j - 1) )
            | None -> None)
          (if String.length inner = 0 then []
           else String.split_on_char ',' inner)
      in
      (sanitize base, labels)
    | _ -> (sanitize name, [])

  let render_labels = function
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               sanitize k ^ "=\"" ^ Json.escape v ^ "\"")
             labels)
      ^ "}"

  let number x =
    if Float.is_nan x then "NaN"
    else if Float.is_finite x then Printf.sprintf "%.17g" x
    else if x > 0. then "+Inf"
    else "-Inf"

  (* Emit # HELP / # TYPE once per family: label-variants of one base
     name arrive adjacent (the snapshot is name-sorted). *)
  let header buf seen base kind =
    if not (List.mem base !seen) then begin
      seen := base :: !seen;
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s deltanet %s\n# TYPE %s %s\n" base kind
           base kind)
    end

  let render () =
    let snap = snapshot () in
    let buf = Buffer.create 4096 in
    let seen = ref [] in
    List.iter
      (fun (name, v) ->
        let base, labels = split_labels name in
        let base = base ^ "_total" in
        header buf seen base "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" base (render_labels labels) v))
      snap.counters;
    List.iter
      (fun (name, last, mx) ->
        if not (Float.is_nan last) then begin
          let base, labels = split_labels name in
          header buf seen base "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" base (render_labels labels)
               (number last));
          let mbase = base ^ "_max" in
          header buf seen mbase "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" mbase (render_labels labels)
               (number mx))
        end)
      snap.gauges;
    List.iter
      (fun (name, hv) ->
        let base, labels = split_labels name in
        header buf seen base "histogram";
        let cum = ref 0 in
        List.iter
          (fun (upper, count) ->
            cum := !cum + count;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" base
                 (render_labels (labels @ [ ("le", number upper) ]))
                 !cum))
          hv.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" base
             (render_labels (labels @ [ ("le", "+Inf") ]))
             hv.h_count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" base (render_labels labels)
             (number hv.h_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" base (render_labels labels)
             hv.h_count))
      snap.histograms;
    Buffer.contents buf

  let write_file path =
    let text = render () in
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    (match
       output_string oc text;
       close_out oc
     with
    | () -> ()
    | exception e ->
      (try close_out_noerr oc with _ -> ());
      raise e);
    Unix.rename tmp path
end

(* ---------------- lifecycle ---------------- *)

let at_exit_registered = ref false

let configure ?sink:(s = Sink.null) ?ring_capacity () =
  (match ring_capacity with
  | Some c when c < 16 ->
    invalid_arg "Telemetry.configure: ring_capacity must be >= 16"
  | Some c -> ring_cap := c
  | None -> ());
  sink := s;
  stack () := [];
  (* Discard events a previous run left in the rings: a fresh configure
     starts a fresh trace. *)
  Mutex.lock rings_mutex;
  List.iter
    (fun r -> r.Ring.r_read <- Atomic.get r.Ring.r_w)
    !rings;
  Mutex.unlock rings_mutex;
  enabled := true;
  (* A long-running process that dies between explicit shutdowns must not
     lose buffered JSONL rows to the channel buffer; one process-wide
     at_exit hook (registered on first configure only, so repeated
     configure/shutdown cycles in tests don't pile up handlers) drains
     whatever sink is live at exit time. *)
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit flush
  end

let bucket_field hv =
  ( "buckets",
    Str
      (String.concat ";"
         (List.map
            (fun (upper, count) -> Printf.sprintf "%.17g:%d" upper count)
            hv.h_buckets)) )

let shutdown () =
  if !enabled then begin
    (* the flight recorder's tail first, then the registry rows *)
    List.iter !sink.Sink.emit (drain_rings ());
    (* only metrics that saw activity: a quiet registry row says nothing *)
    let snap = snapshot () in
    List.iter
      (fun (name, v) ->
        if v <> 0 then
          !sink.Sink.emit
            (Sink.Metric { kind = "counter"; name; fields = [ ("value", Int v) ] }))
      snap.counters;
    List.iter
      (fun (name, last, mx) ->
        if not (Float.is_nan last) then
          !sink.Sink.emit
            (Sink.Metric
               { kind = "gauge"; name;
                 fields = [ ("value", Float last); ("max", Float mx) ] }))
      snap.gauges;
    List.iter
      (fun (name, hv) ->
        if hv.h_count > 0 then
          !sink.Sink.emit
          (Sink.Metric
             {
               kind = "histogram";
               name;
               fields =
                 [
                   ("count", Int hv.h_count);
                   ("sum", Float hv.h_sum);
                   ("min", Float hv.h_min);
                   ("max", Float hv.h_max);
                   ("p50", Float hv.h_p50);
                   ("p90", Float hv.h_p90);
                   ("p99", Float hv.h_p99);
                   bucket_field hv;
                 ];
             }))
      snap.histograms;
    !sink.Sink.flush ();
    enabled := false;
    sink := Sink.null
  end
