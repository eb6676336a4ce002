(* Offline telemetry analyzer: replay one or more JSONL trace/metric
   files (the --metrics output of any deltanet subcommand, including a
   serve soak) into aggregated span statistics, counter rates and a
   serve-mode SLO view.

   The reader is deliberately forgiving: a trace that went through the
   flight-recorder ring may have lost its oldest events, so a span_end
   whose span_start fell off the front is aggregated as an "orphan"
   root-level call instead of being dropped or crashing the replay, and
   unparseable lines are counted, not fatal. *)

module J = Serve.Sjson

(* ---------------- aggregation state ---------------- *)

type span_node = {
  sn_name : string;
  mutable sn_calls : int;
  mutable sn_total_ms : float;
  mutable sn_child_ms : float;
  mutable sn_samples : float list;
  sn_children : (string, span_node) Hashtbl.t;
}

let make_node name =
  {
    sn_name = name;
    sn_calls = 0;
    sn_total_ms = 0.;
    sn_child_ms = 0.;
    sn_samples = [];
    sn_children = Hashtbl.create 8;
  }

type hist_row = {
  mutable hr_count : int;
  mutable hr_sum : float;
  mutable hr_max : float;
  mutable hr_buckets : (float * int) list;  (* ascending upper bounds *)
}

type t = {
  root : span_node;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float * float) Hashtbl.t;  (* last, max-of-max *)
  hists : (string, hist_row) Hashtbl.t;
  events : (string, int) Hashtbl.t;
  access : (string, float list) Hashtbl.t;  (* outcome -> latency samples *)
  mutable duration_s : float;
  mutable files : int;
  mutable lines : int;
  mutable bad_lines : int;
  mutable orphan_ends : int;
  mutable dropped : int;
}

let create () =
  {
    root = make_node "";
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 32;
    events = Hashtbl.create 32;
    access = Hashtbl.create 8;
    duration_s = 0.;
    files = 0;
    lines = 0;
    bad_lines = 0;
    orphan_ends = 0;
    dropped = 0;
  }

(* ---------------- field helpers ---------------- *)

let str_mem json field =
  match J.member field json with Some (J.Str s) -> Some s | _ -> None

let num_mem json field =
  match J.member field json with Some (J.Num v) -> Some v | _ -> None

let int_mem json field =
  match num_mem json field with
  | Some v when Float.is_finite v -> Some (int_of_float v)
  | _ -> None

let parse_buckets s =
  List.filter_map
    (fun pair ->
      match String.index_opt pair ':' with
      | None -> None
      | Some i -> (
        match
          ( float_of_string_opt (String.sub pair 0 i),
            int_of_string_opt
              (String.sub pair (i + 1) (String.length pair - i - 1)) )
        with
        | Some u, Some c -> Some (u, c)
        | _ -> None))
    (String.split_on_char ';' s)

let merge_buckets a b =
  (* both ascending by upper bound; counts add on equal bounds *)
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ua, ca) :: ta, (ub, cb) :: tb ->
      let c = Float.compare ua ub in
      if c = 0 then (ua, ca + cb) :: go ta tb
      else if c < 0 then (ua, ca) :: go ta b
      else (ub, cb) :: go a tb
  in
  go a b

(* ---------------- percentiles ---------------- *)

let exact_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let exact_percentiles samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  (exact_percentile a 0.5, exact_percentile a 0.95, exact_percentile a 0.99)

(* ---------------- replay ---------------- *)

type open_span = { os_node : span_node; mutable os_child_ms : float }

let find_child parent name =
  match Hashtbl.find_opt parent.sn_children name with
  | Some n -> n
  | None ->
    let n = make_node name in
    Hashtbl.replace parent.sn_children name n;
    n

let close_span node ~elapsed_ms ~child_ms =
  node.sn_calls <- node.sn_calls + 1;
  node.sn_total_ms <- node.sn_total_ms +. elapsed_ms;
  node.sn_child_ms <- node.sn_child_ms +. child_ms;
  node.sn_samples <- elapsed_ms :: node.sn_samples

let bump tbl key by =
  Hashtbl.replace tbl key
    (match Hashtbl.find_opt tbl key with Some v -> v + by | None -> by)

let add_channel t ic =
  t.files <- t.files + 1;
  (* one replay stack per recording domain: the merged stream interleaves
     domains, but nesting is a per-domain property *)
  let stacks : (int, open_span list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks dom s;
      s
  in
  let ts_min = ref Float.infinity and ts_max = ref Float.neg_infinity in
  let see_ts json =
    match num_mem json "ts" with
    | Some ts ->
      if ts < !ts_min then ts_min := ts;
      if ts > !ts_max then ts_max := ts
    | None -> ()
  in
  let handle json =
    match str_mem json "type" with
    | Some "span_start" ->
      see_ts json;
      let name = Option.value ~default:"?" (str_mem json "name") in
      let dom = Option.value ~default:0 (int_mem json "dom") in
      let stack = stack_of dom in
      let parent =
        match !stack with [] -> t.root | top :: _ -> top.os_node
      in
      stack := { os_node = find_child parent name; os_child_ms = 0. } :: !stack
    | Some "span_end" ->
      see_ts json;
      let name = Option.value ~default:"?" (str_mem json "name") in
      let dom = Option.value ~default:0 (int_mem json "dom") in
      let elapsed_ms = Option.value ~default:0. (num_mem json "elapsed_ms") in
      let stack = stack_of dom in
      (match !stack with
      | top :: rest when String.equal top.os_node.sn_name name ->
        stack := rest;
        close_span top.os_node ~elapsed_ms ~child_ms:top.os_child_ms;
        (match rest with
        | parent :: _ -> parent.os_child_ms <- parent.os_child_ms +. elapsed_ms
        | [] -> ())
      | _ ->
        (* start lost to the ring: aggregate at the root, flat *)
        t.orphan_ends <- t.orphan_ends + 1;
        close_span (find_child t.root name) ~elapsed_ms ~child_ms:0.)
    | Some "event" ->
      see_ts json;
      let name = Option.value ~default:"?" (str_mem json "name") in
      bump t.events name 1;
      if String.equal name "serve.access" then begin
        match (str_mem json "outcome", num_mem json "elapsed_ms") with
        | Some outcome, Some ms ->
          Hashtbl.replace t.access outcome
            (ms
            ::
            (match Hashtbl.find_opt t.access outcome with
            | Some l -> l
            | None -> []))
        | _ -> ()
      end
      else if String.equal name "telemetry.ring.dropped" then
        t.dropped <- t.dropped + Option.value ~default:0 (int_mem json "count")
    | Some "counter" -> (
      match (str_mem json "name", int_mem json "value") with
      | Some name, Some v -> bump t.counters name v
      | _ -> t.bad_lines <- t.bad_lines + 1)
    | Some "gauge" -> (
      match (str_mem json "name", num_mem json "value") with
      | Some name, Some v ->
        let mx = Option.value ~default:v (num_mem json "max") in
        let mx =
          match Hashtbl.find_opt t.gauges name with
          | Some (_, old_mx) -> Float.max old_mx mx
          | None -> mx
        in
        Hashtbl.replace t.gauges name (v, mx)
      | _ -> t.bad_lines <- t.bad_lines + 1)
    | Some "histogram" -> (
      match (str_mem json "name", int_mem json "count") with
      | Some name, Some count ->
        let sum = Option.value ~default:0. (num_mem json "sum") in
        let mx = Option.value ~default:Float.nan (num_mem json "max") in
        let buckets =
          match str_mem json "buckets" with
          | Some s -> parse_buckets s
          | None -> []
        in
        (match Hashtbl.find_opt t.hists name with
        | Some hr ->
          hr.hr_count <- hr.hr_count + count;
          hr.hr_sum <- hr.hr_sum +. sum;
          hr.hr_max <-
            (if Float.is_nan hr.hr_max then mx else Float.max hr.hr_max mx);
          hr.hr_buckets <- merge_buckets hr.hr_buckets buckets
        | None ->
          Hashtbl.replace t.hists name
            { hr_count = count; hr_sum = sum; hr_max = mx; hr_buckets = buckets })
      | _ -> t.bad_lines <- t.bad_lines + 1)
    | _ -> t.bad_lines <- t.bad_lines + 1
  in
  (try
     while true do
       let line = input_line ic in
       if String.length (String.trim line) > 0 then begin
         t.lines <- t.lines + 1;
         match J.parse line with
         | Ok json -> handle json
         | Error _ -> t.bad_lines <- t.bad_lines + 1
       end
     done
   with End_of_file -> ());
  (* truncated trace: whatever is still open was cut off mid-span *)
  Hashtbl.iter (fun _ s -> t.orphan_ends <- t.orphan_ends + List.length !s) stacks;
  if Float.is_finite !ts_min && !ts_max > !ts_min then
    t.duration_s <- t.duration_s +. (!ts_max -. !ts_min)

let add_file t path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> add_channel t ic)

(* ---------------- derived views ---------------- *)

type span_stat = {
  s_name : string;
  s_calls : int;
  s_total_ms : float;
  s_self_ms : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

let by_name t =
  let acc : (string, int ref * float ref * float ref * float list ref) Hashtbl.t
      =
    Hashtbl.create 32
  in
  let rec walk node =
    if not (String.equal node.sn_name "") then begin
      let calls, total, self, samples =
        match Hashtbl.find_opt acc node.sn_name with
        | Some r -> r
        | None ->
          let r = (ref 0, ref 0., ref 0., ref []) in
          Hashtbl.replace acc node.sn_name r;
          r
      in
      calls := !calls + node.sn_calls;
      total := !total +. node.sn_total_ms;
      self := !self +. (node.sn_total_ms -. node.sn_child_ms);
      samples := node.sn_samples @ !samples
    end;
    Hashtbl.iter (fun _ c -> walk c) node.sn_children
  in
  walk t.root;
  let rows =
    Hashtbl.fold
      (fun name (calls, total, self, samples) rows ->
        let p50, p95, p99 = exact_percentiles !samples in
        {
          s_name = name;
          s_calls = !calls;
          s_total_ms = !total;
          s_self_ms = !self;
          s_p50 = p50;
          s_p95 = p95;
          s_p99 = p99;
        }
        :: rows)
      acc []
  in
  List.sort (fun a b -> Float.compare b.s_total_ms a.s_total_ms) rows

let hot_spans ?(top = 10) t =
  let rows =
    List.sort
      (fun a b -> Float.compare b.s_self_ms a.s_self_ms)
      (by_name t)
  in
  List.filteri (fun i _ -> i < top) rows

let counter_rows t =
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.counters [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

type serve_row = {
  sv_outcome : string;
  sv_count : int;
  sv_p50 : float;
  sv_p95 : float;
  sv_p99 : float;
  sv_source : string;  (* "access" (exact samples) or "histogram" (buckets) *)
}

let latency_prefix = "serve.request_latency_ms{outcome="

let serve_rows t =
  (* prefer the access log (exact samples); fall back to the
     outcome-labelled histogram dumps when the trace has only metrics *)
  let from_access =
    Hashtbl.fold
      (fun outcome samples acc ->
        let p50, p95, p99 = exact_percentiles samples in
        {
          sv_outcome = outcome;
          sv_count = List.length samples;
          sv_p50 = p50;
          sv_p95 = p95;
          sv_p99 = p99;
          sv_source = "access";
        }
        :: acc)
      t.access []
  in
  let from_hist =
    Hashtbl.fold
      (fun name hr acc ->
        let pl = String.length latency_prefix and nl = String.length name in
        if nl > pl + 1 && String.equal (String.sub name 0 pl) latency_prefix
        then begin
          let outcome = String.sub name pl (nl - pl - 1) in
          let q =
            Telemetry.Histogram.quantile_of_buckets ~max_v:hr.hr_max ~count:hr.hr_count
              hr.hr_buckets
          in
          {
            sv_outcome = outcome;
            sv_count = hr.hr_count;
            sv_p50 = q 0.5;
            sv_p95 = q 0.95;
            sv_p99 = q 0.99;
            sv_source = "histogram";
          }
          :: acc
        end
        else acc)
      t.hists []
  in
  let rows = if from_access <> [] then from_access else from_hist in
  List.sort (fun a b -> String.compare a.sv_outcome b.sv_outcome) rows

let serve_rates t =
  let c name =
    match Hashtbl.find_opt t.counters name with Some v -> v | None -> 0
  in
  let requests = c "serve.requests" in
  let frac n = if requests = 0 then 0. else float_of_int n /. float_of_int requests in
  ( requests,
    frac (c "serve.shed"),
    frac (c "serve.timeout"),
    frac (c "serve.errors") )

(* ---------------- rendering ---------------- *)

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" v

let render_text ?(top = 10) t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "Trace report: %d file%s, %d line%s" t.files
    (if t.files = 1 then "" else "s")
    t.lines
    (if t.lines = 1 then "" else "s");
  if t.bad_lines > 0 then pf " (%d unparseable)" t.bad_lines;
  pf "\n  duration %.3f s" t.duration_s;
  if t.dropped > 0 then pf "  [%d events dropped by the ring]" t.dropped;
  if t.orphan_ends > 0 then pf "  [%d orphan span ends]" t.orphan_ends;
  pf "\n";
  let names = by_name t in
  if names <> [] then begin
    pf "\nSpans (per name, sorted by total time):\n";
    pf "  %-36s %8s %12s %12s %9s %9s %9s\n" "name" "calls" "total ms"
      "self ms" "p50 ms" "p95 ms" "p99 ms";
    List.iter
      (fun s ->
        pf "  %-36s %8d %12.3f %12.3f %9s %9s %9s\n" s.s_name s.s_calls
          s.s_total_ms s.s_self_ms (ms s.s_p50) (ms s.s_p95) (ms s.s_p99))
      names;
    pf "\nHot spans (top %d by self time):\n" top;
    List.iter
      (fun s -> pf "  %-36s %12.3f ms self (%d calls)\n" s.s_name s.s_self_ms s.s_calls)
      (hot_spans ~top t);
    pf "\nSpan tree:\n";
    let rec walk depth node =
      if not (String.equal node.sn_name "") then
        pf "  %s%s  calls=%d total=%.3fms self=%.3fms\n"
          (String.make (2 * depth) ' ')
          node.sn_name node.sn_calls node.sn_total_ms
          (node.sn_total_ms -. node.sn_child_ms);
      let kids =
        List.sort
          (fun a b -> Float.compare b.sn_total_ms a.sn_total_ms)
          (Hashtbl.fold (fun _ c acc -> c :: acc) node.sn_children [])
      in
      List.iter (walk (if String.equal node.sn_name "" then depth else depth + 1)) kids
    in
    walk 0 t.root
  end;
  let counters = counter_rows t in
  if counters <> [] then begin
    pf "\nCounters:\n";
    pf "  %-44s %14s %14s\n" "name" "value" "rate/s";
    List.iter
      (fun (name, v) ->
        let rate =
          if t.duration_s > 0. then
            Printf.sprintf "%14.1f" (float_of_int v /. t.duration_s)
          else Printf.sprintf "%14s" "-"
        in
        pf "  %-44s %14d %s\n" name v rate)
      counters
  end;
  let rows = serve_rows t in
  if rows <> [] then begin
    let requests, shed, timeout, error = serve_rates t in
    pf "\nServe (request latency per outcome):\n";
    pf "  %-10s %10s %9s %9s %9s   source\n" "outcome" "count" "p50 ms"
      "p95 ms" "p99 ms";
    List.iter
      (fun r ->
        pf "  %-10s %10d %9s %9s %9s   %s\n" r.sv_outcome r.sv_count
          (ms r.sv_p50) (ms r.sv_p95) (ms r.sv_p99) r.sv_source)
      rows;
    if requests > 0 then
      pf "  requests=%d  shed=%.2f%%  timeout=%.2f%%  error=%.2f%%\n" requests
        (100. *. shed) (100. *. timeout) (100. *. error)
  end;
  Buffer.contents buf

module Tj = Telemetry.Json

let render_json ?(top = 10) t =
  let num = Tj.number in
  let str s = "\"" ^ Tj.escape s ^ "\"" in
  let span_row s =
    Tj.obj
      [
        ("name", str s.s_name);
        ("calls", string_of_int s.s_calls);
        ("total_ms", num s.s_total_ms);
        ("self_ms", num s.s_self_ms);
        ("p50_ms", num s.s_p50);
        ("p95_ms", num s.s_p95);
        ("p99_ms", num s.s_p99);
      ]
  in
  let requests, shed, timeout, error = serve_rates t in
  Tj.obj
    [
      ("files", string_of_int t.files);
      ("lines", string_of_int t.lines);
      ("bad_lines", string_of_int t.bad_lines);
      ("duration_s", num t.duration_s);
      ("dropped_events", string_of_int t.dropped);
      ("orphan_span_ends", string_of_int t.orphan_ends);
      ("spans", Tj.arr (List.map span_row (by_name t)));
      ("hot_spans", Tj.arr (List.map span_row (hot_spans ~top t)));
      ( "counters",
        Tj.obj
          (List.map (fun (k, v) -> (k, string_of_int v)) (counter_rows t)) );
      ( "serve",
        Tj.obj
          [
            ("requests", string_of_int requests);
            ("shed_rate", num shed);
            ("timeout_rate", num timeout);
            ("error_rate", num error);
            ( "outcomes",
              Tj.arr
                (List.map
                   (fun r ->
                     Tj.obj
                       [
                         ("outcome", str r.sv_outcome);
                         ("count", string_of_int r.sv_count);
                         ("p50_ms", num r.sv_p50);
                         ("p95_ms", num r.sv_p95);
                         ("p99_ms", num r.sv_p99);
                         ("source", str r.sv_source);
                       ])
                   (serve_rows t)) );
          ] );
    ]
