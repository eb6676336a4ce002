(* Serve transcript golden: drive [Serve.Engine.handle_batch] over a
   fixed list of request batches and print every request, every reply
   and every [serve.access] event, then the engine's serve.* counters and
   latency histograms.  The only masked bytes are the 8-hex trace prefix,
   which the engine derives from the pid.

   The clock is scripted: it reads 2^-14 s per request the engine has
   taken in so far ([Engine.served]), so every elapsed time, budget
   check, shed and timeout below is a function of a request's place in
   its batch, never of how often the engine reads the clock.

   The requests reach every error code.

   Telemetry runs with a collecting sink, so the counters count and the
   histograms fill; the sink keeps only the access-log points.

   dune diffs the output against serve_golden.expected; after an intended
   change, `dune promote` rewrites the expected file. *)

module Engine = Serve.Engine

let step_s = Float.ldexp 1. (-14)

let make_engine cfg =
  let engine = ref None in
  let now () =
    match !engine with None -> 0. | Some e -> float_of_int (Engine.served e) *. step_s
  in
  let e = Engine.create ~now cfg in
  engine := Some e;
  e

(* "0123abcd-000042" -> "XXXXXXXX-000042", wherever a trace id appears *)
let mask s =
  let b = Bytes.of_string s in
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  let n = Bytes.length b in
  let i = ref 0 in
  while !i + 9 <= n do
    let run = ref true in
    for k = 0 to 7 do
      if not (is_hex (Bytes.get b (!i + k))) then run := false
    done;
    let boundary = !i = 0 || not (is_hex (Bytes.get b (!i - 1))) in
    if !run && boundary && Char.equal (Bytes.get b (!i + 8)) '-' then begin
      Bytes.blit_string "XXXXXXXX" 0 b !i 8;
      i := !i + 9
    end
    else incr i
  done;
  Bytes.to_string b

let access = ref []

let sink =
  Telemetry.Sink.make
    ~emit:(function
      | Telemetry.Sink.Point { name = "serve.access"; attrs; _ } -> access := attrs :: !access
      | _ -> ())
    ~flush:(fun () -> ())

let show_attr (k, v) =
  let v =
    match v with
    | Telemetry.Str s -> mask s
    | Telemetry.Int n -> string_of_int n
    | Telemetry.Float x -> Printf.sprintf "%.17g" x
    | Telemetry.Bool b -> string_of_bool b
  in
  k ^ "=" ^ v

let show_request l =
  if String.length l > 200 then Printf.sprintf "<%d-byte line>" (String.length l)
  else if String.exists (fun c -> Char.code c < 0x20) l then "(escaped) " ^ String.escaped l
  else l

let batch_no = ref 0

let run e lines =
  incr batch_no;
  Printf.printf "== batch %d\n" !batch_no;
  List.iter (fun l -> Printf.printf "> %s\n" (show_request l)) lines;
  List.iter (fun r -> Printf.printf "< %s\n" (mask r)) (Engine.handle_batch e lines);
  Telemetry.flush ();
  List.iter
    (fun attrs -> Printf.printf "  access %s\n" (String.concat " " (List.map show_attr attrs)))
    (List.rev !access);
  access := []

let one e l = run e [ l ]

let section title = Printf.printf "\n# %s\n" title

let admit ?(id = "") fields =
  let id = if String.equal id "" then "" else Printf.sprintf "\"id\":%S," id in
  Printf.sprintf "{\"op\":\"admit\",%s%s}" id fields

let summary () =
  let snap = Telemetry.snapshot () in
  section "serve counters and latency histograms";
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"serve." name then Printf.printf "counter %s %d\n" name v)
    snap.Telemetry.counters;
  List.iter
    (fun (name, h) ->
      if String.starts_with ~prefix:"serve." name then
        Printf.printf "histogram %s count=%d sum=%.17g\n" name h.Telemetry.h_count
          h.Telemetry.h_sum)
    snap.Telemetry.histograms

let () =
  Telemetry.configure ~sink ~ring_capacity:(1 lsl 18) ();
  let cfg = { Engine.default_config with Engine.debug_ops = true; max_line_bytes = 512 } in
  let e = make_engine cfg in
  section "a miss, then a hit, per scheduler; the eps/edf_ratio/sched defaults";
  let shapes =
    [
      "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"sched\":\"fifo\",\"eps\":1e-9,\"edf_ratio\":10";
      "\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":50,\"sched\":\"bmux\"";
      "\"h\":10,\"u0\":0.15,\"uc\":0.35,\"deadline\":200,\"sched\":\"sp\"";
      "\"h\":7,\"u0\":0.13000000000000001,\"uc\":0.28999999999999998,\"deadline\":57,\"sched\":\"edf\"";
      "\"h\":7,\"u0\":0.13,\"uc\":0.29,\"deadline\":57,\"sched\":\"edf\",\"edf_ratio\":10";
      "\"h\":20,\"u0\":0.1,\"uc\":0.6,\"deadline\":30,\"sched\":\"edf\",\"edf_ratio\":0.5";
      "\"h\":1,\"u0\":0.5,\"uc\":0.4,\"deadline\":10,\"eps\":1e-6";
      "\"h\":2,\"u0\":-0,\"uc\":0,\"deadline\":0.5";
    ]
  in
  List.iteri
    (fun i s ->
      one e (admit ~id:(Printf.sprintf "m%d" i) s);
      one e (admit ~id:(Printf.sprintf "h%d" i) s))
    shapes;
  section "two requests on one new shape in one batch: both compute, the second is a hit";
  run e
    [
      admit ~id:"d1" "\"h\":5,\"u0\":0.25,\"uc\":0.25,\"deadline\":40";
      admit ~id:"d2" "\"h\":5,\"u0\":0.25,\"uc\":0.25,\"deadline\":40";
    ];
  section "id echo: strings, integral numbers; other ids are dropped";
  List.iter (one e)
    [
      "{\"op\":\"health\",\"id\":7}";
      "{\"op\":\"health\",\"id\":-3}";
      "{\"op\":\"health\",\"id\":1e20}";
      "{\"op\":\"health\",\"id\":-0}";
      "{\"op\":\"health\",\"id\":7.5}";
      "{\"op\":\"health\",\"id\":1e999}";
      "{\"op\":\"health\",\"id\":null}";
      "{\"op\":\"health\",\"id\":true}";
      "{\"op\":\"health\",\"id\":[\"a\"]}";
      "{\"op\":\"health\",\"id\":\"quote\\\" back\\\\ nl\\n \\u00e9\"}";
      "{\"op\":\"health\",\"id\":\"\"}";
      "{\"op\":\"admit\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"id\":\"late\"}";
      "{\"op\":\"admit\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"id\":42}";
    ];
  section "duplicate keys: the first binding wins";
  List.iter (one e)
    [
      "{\"op\":\"health\",\"op\":\"admit\",\"id\":\"dup-op\"}";
      "{\"op\":\"admit\",\"id\":\"a\",\"id\":\"b\",\"h\":4,\"h\":99999,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"deadline\":-1}";
      "{\"op\":\"admit\",\"h\":4,\"u0\":0.2,\"u0\":\"x\",\"uc\":0.1,\"deadline\":25,\"sched\":\"sp\",\"sched\":\"fifo\"}";
      "{\"op\":\"admit\",\"h\":\"4\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25}";
    ];
  section "unknown and nested keys are read and dropped; escaped keys; whitespace";
  List.iter (one e)
    [
      "{\"op\":\"admit\",\"x\":{\"h\":1,\"op\":\"stats\"},\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25}";
      "{\"zz\":[1,[2,[3,{\"a\":null}]],\"s\",true,false,-0.5e-3],\"op\":\"admit\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"extra\":{}}";
      "{\"\\u006fp\":\"health\",\"i\\u0064\":\"escaped-keys\"}";
      "{\"op\\u0000\":\"health\",\"op\":\"stats\",\"id\":\"nul-in-key\"}";
      "{\"o\\\"p\":\"health\",\"op\":\"health\",\"id\":\"quote-in-key\"}";
      " \t\r\n{ \"op\" :\n\"health\" , \"id\"\t:\t\"ws\" }\n ";
      "{\"op\":\"admit\",\"\":1,\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"hh\":1,\"u\":2,\"ops\":3}";
      "{\"op\":\"admit\",\"h\":[4],\"u0\":0.2,\"uc\":0.1,\"deadline\":25}";
      "{\"op\":\"admit\",\"h\":4,\"u0\":{\"v\":0.2},\"uc\":0.1,\"deadline\":25}";
      "{\"op\":\"admit\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"sched\":{\"x\":1}}";
      "{\"op\":[\"admit\"]}";
      "{\"op\":null}";
      "{}";
      "[1,2]";
      "42";
      "\"admit\"";
      "null";
    ];
  section "parse errors: a syntax error anywhere wins over validation";
  List.iter (one e)
    [
      "";
      "   ";
      "{";
      "nul";
      "{\"op\":\"admit\",}";
      "{\"op\":\"bogus\",\"h\":tru}";
      "{\"op\":\"admit\",\"h\":4,\"zz\":[1,}";
      "{\"op\":\"health\"} x";
      "{\"op\":\"health\",\"id\":\"a\\qb\"}";
      "{\"op\":\"health\",\"id\":\"\\ud800\"}";
      "{\"op\":\"health\",\"id\":01}";
      "{\"op\":\"health\",\"id\":1.}";
      "{\"op\":\"health\",\"id\":NaN}";
      "{\"op\":\"health\" \"id\":1}";
      "{\"op\":\"health\",\"id\":\"raw\ttab\"}";
      "{op:\"health\"}";
      String.make 70 '[' ^ String.make 70 ']';
      "{\"a\":" ^ String.make 63 '[' ^ String.make 63 ']' ^ ",\"op\":\"health\"}";
    ];
  section "invalid requests";
  List.iter (one e)
    [
      "{\"id\":\"no-op\"}";
      "{\"op\":\"bogus\",\"id\":\"o\"}";
      "{\"op\":\"debug-fail\",\"id\":\"poison\"}";
      admit ~id:"no-h" "\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      admit ~id:"frac-h" "\"h\":2.5,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      admit ~id:"big-h" "\"h\":1e20,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      admit ~id:"inf-h" "\"h\":1e999,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      admit ~id:"zero-h" "\"h\":0,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      admit ~id:"u0-range" "\"h\":4,\"u0\":1,\"uc\":0.1,\"deadline\":25";
      admit ~id:"uc-neg" "\"h\":4,\"u0\":0.2,\"uc\":-0.1,\"deadline\":25";
      admit ~id:"uc-str" "\"h\":4,\"u0\":0.2,\"uc\":\"0.1\",\"deadline\":25";
      admit ~id:"eps-range" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"eps\":1";
      admit ~id:"eps-null" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"eps\":null";
      admit ~id:"no-deadline" "\"h\":4,\"u0\":0.2,\"uc\":0.1";
      admit ~id:"deadline-0" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":0";
      admit ~id:"deadline-inf" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":-1e999";
      admit ~id:"ratio-0" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"edf_ratio\":0";
      admit ~id:"sched" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"sched\":\"wfq\"";
      admit ~id:"sched-num" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"sched\":1";
      admit ~id:"budget-0" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"budget_ms\":0";
      admit ~id:"budget-str" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"budget_ms\":\"1\"";
      "{\"op\":\"admit\",\"id\":\"oversized\",\"pad\":\"" ^ String.make 600 'p' ^ "\"}";
    ];
  section "unstable: total load >= 1, and a shape with no stable s";
  List.iter (one e)
    [
      admit ~id:"u-total" "\"h\":4,\"u0\":0.6,\"uc\":0.4,\"deadline\":25";
      admit ~id:"u-s" "\"h\":2,\"u0\":0.5,\"uc\":0.49995,\"deadline\":10";
      admit ~id:"u-s" "\"h\":2,\"u0\":0.5,\"uc\":0.49995,\"deadline\":10";
    ];
  section "check";
  List.iter (one e)
    [
      "{\"op\":\"check\",\"id\":\"c1\",\"h\":3,\"u0\":0.3,\"uc\":0.2}";
      "{\"op\":\"check\",\"id\":\"c2\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":5,\"eps\":0.5}";
      "{\"op\":\"check\",\"id\":\"c3\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":0}";
    ];
  section "a poisoned request in a batch: isolated as internal, the rest answered";
  run e
    [
      admit ~id:"p1" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      "{\"op\":\"debug-fail\",\"id\":\"poison\"}";
      "{\"op\":\"health\",\"id\":\"after\"}";
    ];
  section "stats and health";
  one e "{\"op\":\"stats\",\"id\":\"s1\"}";
  one e "{\"op\":\"health\"}";
  (* the degradation ladder on a fresh engine: its service-time
     estimators start from their seeds (exact 50 ms, approx 0.5 ms), and
     one clock tick is 2^-14 s = 0.06103515625 ms *)
  let e = make_engine { Engine.default_config with Engine.max_queue = 2 } in
  section "degraded: a 0.1 ms budget cannot fit an exact search";
  let shape = "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"budget_ms\":0.1" in
  one e (admit ~id:"a-miss" shape);
  one e (admit ~id:"a-hit" shape);
  one e (admit ~id:"a-edf" "\"h\":7,\"u0\":0.13,\"uc\":0.29,\"deadline\":57,\"sched\":\"edf\",\"budget_ms\":0.1");
  one e (admit ~id:"a-nos" "\"h\":2,\"u0\":0.5,\"uc\":0.49995,\"deadline\":10,\"budget_ms\":0.1");
  one e (admit ~id:"a-long" "\"h\":1000,\"u0\":0,\"uc\":0.9998,\"deadline\":100,\"sched\":\"edf\",\"budget_ms\":0.1");
  section "timeout: answered at the third tick past a 0.1 ms budget; the retry hits";
  let shape = "\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":50,\"sched\":\"bmux\",\"budget_ms\":0.1" in
  run e [ admit ~id:"t1" shape; "{\"op\":\"health\"}"; "{\"op\":\"health\"}" ];
  one e (admit ~id:"t2" shape);
  section "shed: by the predicted wait, then past max_queue = 2";
  run e
    [
      admit ~id:"x1" "\"h\":6,\"u0\":0.2,\"uc\":0.3,\"deadline\":80";
      admit ~id:"x2" "\"h\":6,\"u0\":0.2,\"uc\":0.3,\"deadline\":80,\"budget_ms\":0.1";
    ];
  run e
    [
      admit ~id:"q1" "\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":10";
      admit ~id:"q2" "\"h\":3,\"u0\":0.1,\"uc\":0.1,\"deadline\":10";
      admit ~id:"q3" "\"h\":4,\"u0\":0.1,\"uc\":0.1,\"deadline\":10";
      admit ~id:"q4" "\"h\":6,\"u0\":0.2,\"uc\":0.3,\"deadline\":80";
    ];
  section "debug ops off: debug-fail is an unknown op";
  one e "{\"op\":\"debug-fail\",\"id\":\"off\"}";
  one e "{\"op\":\"stats\",\"id\":\"s2\"}";
  summary ();
  Telemetry.shutdown ()
