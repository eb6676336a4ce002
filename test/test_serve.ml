(* Tests for lib/serve: the total JSON reader, the wire protocol, the
   bounded LRU, the engine's degradation ladder (deadlines, shedding,
   approx fallback, supervision) under an injected clock, the daemon loop
   and load generator in process, and a live daemon round trip through
   the CLI.  The fuzz section hammers the
   protocol surface: any byte string must come back as a structured
   response, never an exception or a hang. *)

module Sjson = Serve.Sjson
module P = Serve.Protocol
module Cache = Serve.Cache
module Engine = Serve.Engine

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let parse_resp line =
  match Sjson.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let str_field j k =
  match Sjson.member k j with
  | Some (Sjson.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S" k

let num_field j k =
  match Sjson.member k j with
  | Some (Sjson.Num v) -> v
  | _ -> Alcotest.failf "missing number field %S" k

let admit_field j =
  match Sjson.member "admit" j with Some (Sjson.Bool b) -> b | _ -> Alcotest.fail "missing admit"

(* deterministic clocks for the engine tests *)
let const_clock v () = v

let queue_clock vs =
  let q = ref vs in
  fun () ->
    match !q with
    | [] -> 0.
    | [ x ] -> x
    | x :: tl ->
      q := tl;
      x

(* ---------------- Sjson ---------------- *)

let sjson_ok s =
  match Sjson.parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "Sjson rejected %S: %s" s m

let test_sjson_values () =
  (match sjson_ok "null" with Sjson.Null -> () | _ -> Alcotest.fail "null");
  (match sjson_ok " true " with
  | Sjson.Bool true -> ()
  | _ -> Alcotest.fail "true");
  (match sjson_ok "-12.5e2" with
  | Sjson.Num v -> check (Alcotest.float 1e-9) "-12.5e2" (-1250.) v
  | _ -> Alcotest.fail "number");
  (match sjson_ok "[1, 2, [3]]" with
  | Sjson.Arr [ Sjson.Num _; Sjson.Num _; Sjson.Arr [ Sjson.Num _ ] ] -> ()
  | _ -> Alcotest.fail "array");
  (match sjson_ok "{\"a\": {\"b\": false}}" with
  | Sjson.Obj [ ("a", Sjson.Obj [ ("b", Sjson.Bool false) ]) ] -> ()
  | _ -> Alcotest.fail "object");
  (* overflowing literals are kept as infinity: the protocol layer, not
     the reader, owns the finiteness policy *)
  (match sjson_ok "1e999" with
  | Sjson.Num v -> check Alcotest.bool "1e999 -> inf" true (Float.equal v Float.infinity)
  | _ -> Alcotest.fail "1e999")

let test_sjson_strings () =
  (match sjson_ok "\"a\\u0041\\n\\\\\"" with
  | Sjson.Str s -> check Alcotest.string "escapes" "aA\n\\" s
  | _ -> Alcotest.fail "escapes");
  (* surrogate pair: U+1F600 encodes to four UTF-8 bytes *)
  (match sjson_ok "\"\\ud83d\\ude00\"" with
  | Sjson.Str s -> check Alcotest.int "surrogate pair utf8 length" 4 (String.length s)
  | _ -> Alcotest.fail "surrogate")

let test_sjson_member () =
  let j = sjson_ok "{\"k\": 1, \"k\": 2}" in
  match Sjson.member "k" j with
  | Some (Sjson.Num v) -> check (Alcotest.float 0.) "first binding wins" 1. v
  | _ -> Alcotest.fail "member"

let test_sjson_rejects () =
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "Sjson accepted %S" s)
    [
      "";
      "{";
      "[1,";
      "01";
      "1.";
      "-";
      "+1";
      "0x1";
      "nan";
      "NaN";
      "Infinity";
      "tru";
      "\"ab";
      "\"\\q\"";
      "{\"a\":1,}";
      "[1 2]";
      "1 2";
      "{}x";
      String.make 80 '[' ^ String.make 80 ']' (* past max_depth *);
    ]

(* ---------------- protocol ---------------- *)

let admit_line = "{\"op\":\"admit\",\"id\":\"q\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25}"

let test_protocol_admit_defaults () =
  let id, r = P.parse ~debug_ops:false admit_line in
  check Alcotest.(option string) "id" (Some "q") id;
  match r with
  | Ok (P.Admit p) ->
    check Alcotest.int "h" 4 p.P.h;
    check (Alcotest.float 1e-15) "eps default" 1e-9 p.P.epsilon;
    check (Alcotest.float 0.) "deadline" 25. p.P.deadline;
    (match p.P.scheduler with P.Fifo -> () | _ -> Alcotest.fail "fifo default");
    check Alcotest.bool "no budget" true (p.P.budget_ms = None)
  | _ -> Alcotest.fail "expected admit"

let test_protocol_numeric_id () =
  let id, _ = P.parse ~debug_ops:false "{\"op\":\"health\",\"id\":7}" in
  check Alcotest.(option string) "integral id" (Some "7") id

let test_protocol_edf () =
  match P.parse ~debug_ops:false
          "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":9,\"sched\":\"edf\",\"edf_ratio\":4}"
  with
  | _, Ok (P.Admit { P.scheduler = P.Edf { cross_over_through }; _ }) ->
    check (Alcotest.float 0.) "edf ratio" 4. cross_over_through
  | _ -> Alcotest.fail "expected EDF admit"

let expect_error ?(debug_ops = false) name kind line =
  match P.parse ~debug_ops line with
  | _, Error e ->
    check Alcotest.string name (P.error_code kind) (P.error_code e.P.kind)
  | _, Ok _ -> Alcotest.failf "%s: %S was accepted" name line

let test_protocol_validation () =
  expect_error "not json" P.Parse_error "][";
  expect_error "missing op" P.Invalid_request "{}";
  expect_error "non-object" P.Invalid_request "null";
  expect_error "unknown op" P.Invalid_request "{\"op\":\"frob\"}";
  expect_error "op not a string" P.Invalid_request "{\"op\":3}";
  expect_error "missing h" P.Invalid_request "{\"op\":\"admit\",\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "fractional h" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2.5,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "h out of range" P.Invalid_request
    "{\"op\":\"admit\",\"h\":0,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "u0 out of range" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":1.5,\"uc\":0.1,\"deadline\":5}";
  expect_error "u0 overflows to inf" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":1e999,\"uc\":0.1,\"deadline\":5}";
  expect_error "missing deadline" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1}";
  expect_error "bad eps" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"eps\":2}";
  expect_error "bad scheduler" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"sched\":\"wfq\"}";
  expect_error "bad budget" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"budget_ms\":0}";
  expect_error "unstable load" P.Unstable
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.6,\"uc\":0.5,\"deadline\":5}";
  expect_error "debug op gated off" P.Invalid_request "{\"op\":\"debug-fail\"}";
  (* check works without a deadline — it validates shape, not admission *)
  (match P.parse ~debug_ops:false "{\"op\":\"check\",\"h\":2,\"u0\":0.1,\"uc\":0.1}" with
  | _, Ok (P.Check _) -> ()
  | _ -> Alcotest.fail "check without deadline");
  match P.parse ~debug_ops:false ~max_bytes:64 (String.make 65 'a') with
  | _, Error { P.kind = P.Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "oversized line"

let error_detail line =
  match P.parse ~debug_ops:false line with
  | _, Error e -> e
  | _, Ok _ -> Alcotest.failf "%S was accepted" line

let test_protocol_h_range () =
  (* [int_of_float] overflows on these; the range check sees the float *)
  List.iter
    (fun (h, shown) ->
      let e =
        error_detail
          (Printf.sprintf "{\"op\":\"admit\",\"h\":%s,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}" h)
      in
      check Alcotest.string (h ^ " kind") "invalid-request" (P.error_code e.P.kind);
      check Alcotest.string (h ^ " detail")
        (Printf.sprintf "field \"h\" = %s outside [1, 10000]" shown)
        e.P.detail)
    [
      ("1e20", "100000000000000000000");
      ("-1e19", "-10000000000000000000");
      ("0", "0");
      ("10001", "10001");
    ];
  check Alcotest.string "fractional h" "field \"h\" = 2.5 is not an integer"
    (error_detail "{\"op\":\"admit\",\"h\":2.5,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}").P.detail

let test_protocol_exit_hints () =
  List.iter
    (fun (kind, hint) -> check Alcotest.int (P.error_code kind) hint (P.exit_hint kind))
    [
      (P.Parse_error, 2);
      (P.Invalid_request, 2);
      (P.Unstable, 3);
      (P.Overloaded, 1);
      (P.Deadline_exceeded, 1);
      (P.Internal, 1);
    ]

let test_protocol_render_round_trip () =
  (* every renderer's output must be readable by the protocol's own
     parser — the daemon's output is somebody else's input *)
  let r1 =
    P.render_admit ~id:"a" ~admitted:true ~bound_ms:3.5 ~deadline_ms:10. ~mode:P.Exact
      ~cache_hit:false ~elapsed_ms:0.2 ()
  in
  let j1 = parse_resp r1 in
  check Alcotest.string "status" "ok" (str_field j1 "status");
  check Alcotest.string "mode" "exact" (str_field j1 "mode");
  check (Alcotest.float 1e-9) "bound" 3.5 (num_field j1 "bound_ms");
  let j2 = parse_resp (P.render_error ~id:"e\"scape" ~kind:P.Parse_error ~detail:"bad \"quote\"" ()) in
  check Alcotest.string "escaped id" "e\"scape" (str_field j2 "id");
  check Alcotest.string "code" "parse-error" (str_field j2 "code");
  check (Alcotest.float 0.) "hint" 2. (num_field j2 "exit_hint");
  let j3 = parse_resp (P.render_shed ~retry_after_ms:7.5 ()) in
  check Alcotest.string "shed status" "shed" (str_field j3 "status");
  check (Alcotest.float 0.) "retry hint" 7.5 (num_field j3 "retry_after_ms");
  let j4 = parse_resp (P.render_timeout ~elapsed_ms:12. ~budget_ms:10. ()) in
  check Alcotest.string "timeout status" "timeout" (str_field j4 "status");
  let j5 =
    parse_resp
      (P.render_stats ~trace:"t-1" ~uptime_s:1. ~served:3 ~cache_len:2
         ~cache_capacity:8 ~cache_hits:3 ~cache_misses:1 ~shed:2 ~timeouts:1
         ~errors:4 ~counters:[ ("serve.requests", 3) ] ())
  in
  check (Alcotest.float 0.) "served" 3. (num_field j5 "served");
  check (Alcotest.float 1e-9) "hit ratio" 0.75 (num_field j5 "cache_hit_ratio");
  check (Alcotest.float 0.) "shed count" 2. (num_field j5 "shed");
  check Alcotest.string "trace echoed" "t-1" (str_field j5 "trace");
  match Sjson.member "counters" j5 with
  | Some (Sjson.Obj [ ("serve.requests", Sjson.Num 3.) ]) -> ()
  | _ -> Alcotest.fail "stats counters object"

(* ---------------- cache ---------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  (* touching a makes b the LRU, so inserting c evicts b *)
  check Alcotest.(option int) "hit a" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  check Alcotest.int "bounded" 2 (Cache.length c);
  check Alcotest.(option int) "a survives" (Some 1) (Cache.find c "a");
  check Alcotest.(option int) "b evicted" None (Cache.find c "b");
  (* overwrite refreshes without growing *)
  Cache.put c "a" 10;
  check Alcotest.int "overwrite keeps length" 2 (Cache.length c);
  check Alcotest.(option int) "overwritten" (Some 10) (Cache.find c "a")

let test_cache_mem_no_refresh () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  check Alcotest.bool "mem a" true (Cache.mem c "a");
  (* mem did not refresh a, so a is still the LRU and gets evicted *)
  Cache.put c "c" 3;
  check Alcotest.bool "a evicted" false (Cache.mem c "a");
  check Alcotest.bool "b kept" true (Cache.mem c "b")

let test_cache_validation () =
  raises_invalid "capacity 0" (fun () -> Cache.create ~capacity:0)

let test_cache_soak () =
  (* the daemon's memory bound at unit level: 10^4 distinct keys through a
     small cache never grow it past capacity *)
  let c = Cache.create ~capacity:64 in
  for i = 0 to 9_999 do
    let key = Printf.sprintf "shape-%d" i in
    (match Cache.find c key with Some _ -> () | None -> Cache.put c key i);
    if Cache.length c > 64 then Alcotest.failf "cache grew past capacity at %d" i
  done;
  check Alcotest.int "cache pinned at capacity" 64 (Cache.length c)

(* ---------------- engine ---------------- *)

let mk_engine ?(cfg = Engine.default_config) ?(clock = const_clock 0.) () =
  Engine.create ~now:clock cfg

let admit_req ?(extra = "") ~id ~u0 () =
  Printf.sprintf "{\"op\":\"admit\",\"id\":%S,\"h\":3,\"u0\":%.4f,\"uc\":0.2,\"deadline\":500%s}"
    id u0 extra

let test_engine_validation () =
  raises_invalid "budget" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.budget_ms = 0. } ());
  raises_invalid "queue" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.max_queue = 0 } ());
  raises_invalid "grids" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.s_points = 1 } ())

let test_engine_admit_and_cache () =
  let e = mk_engine () in
  let j1 = parse_resp (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ())) in
  check Alcotest.string "status" "ok" (str_field j1 "status");
  check Alcotest.string "mode" "exact" (str_field j1 "mode");
  check Alcotest.string "first is a miss" "miss" (str_field j1 "cache");
  check Alcotest.string "id echo" "r1" (str_field j1 "id");
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"r2" ~u0:0.3 ())) in
  check Alcotest.string "repeat is a hit" "hit" (str_field j2 "cache");
  check Alcotest.string "hit stays exact" "exact" (str_field j2 "mode");
  check (Alcotest.float 1e-9) "memoized bound is identical"
    (num_field j1 "bound_ms") (num_field j2 "bound_ms");
  check Alcotest.int "one shape cached" 1 (Engine.cache_length e);
  check Alcotest.int "served" 2 (Engine.served e)

let test_engine_signed_zero_one_entry () =
  let e = mk_engine () in
  let admit ~u0 rest =
    parse_resp
      (Engine.handle_line e
         (Printf.sprintf "{\"op\":\"admit\",\"h\":3,\"u0\":%s,\"uc\":0.2,%s}" u0 rest))
  in
  let j1 = admit ~u0:"-0" "\"deadline\":500" in
  check Alcotest.string "-0 misses" "miss" (str_field j1 "cache");
  check Alcotest.int "one entry" 1 (Engine.cache_length e);
  let j2 = admit ~u0:"0" "\"deadline\":500" in
  check Alcotest.string "0 hits the -0 entry" "hit" (str_field j2 "cache");
  check Alcotest.int "still one entry" 1 (Engine.cache_length e);
  check (Alcotest.float 0.) "same bound" (num_field j1 "bound_ms") (num_field j2 "bound_ms");
  (* an underflowed EDF d0 = deadline / h: ratio 2 gives the gap -0, ratio
     0.5 gives +0 — one shape *)
  let edf ratio =
    Printf.sprintf "\"deadline\":5e-324,\"sched\":\"edf\",\"edf_ratio\":%s" ratio
  in
  let j3 = admit ~u0:"0.1" (edf "2") in
  check Alcotest.string "gap -0 misses" "miss" (str_field j3 "cache");
  let j4 = admit ~u0:"0.1" (edf "0.5") in
  check Alcotest.string "gap +0 hits" "hit" (str_field j4 "cache");
  check Alcotest.int "two entries" 2 (Engine.cache_length e)

let test_engine_shape_key () =
  (* every shape field splits the cache key; the deadline splits it only
     through the EDF gap *)
  let e = mk_engine () in
  let cache line = str_field (parse_resp (Engine.handle_line e line)) "cache" in
  let base = "\"h\":3,\"u0\":0.1,\"uc\":0.2,\"deadline\":500" in
  let admit fields = Printf.sprintf "{\"op\":\"admit\",%s}" fields in
  check Alcotest.string "base" "miss" (cache (admit base));
  List.iteri
    (fun i fields ->
      check Alcotest.string fields "miss" (cache (admit fields));
      check Alcotest.int (fields ^ " adds an entry") (i + 2) (Engine.cache_length e))
    [
      "\"h\":4,\"u0\":0.1,\"uc\":0.2,\"deadline\":500";
      "\"h\":3,\"u0\":0.11,\"uc\":0.2,\"deadline\":500";
      "\"h\":3,\"u0\":0.1,\"uc\":0.21,\"deadline\":500";
      base ^ ",\"eps\":1e-6";
      base ^ ",\"sched\":\"bmux\"";
      base ^ ",\"sched\":\"sp\"";
      base ^ ",\"sched\":\"edf\"";
      base ^ ",\"sched\":\"edf\",\"edf_ratio\":4";
    ];
  check Alcotest.string "deadline alone" "hit"
    (cache (admit "\"h\":3,\"u0\":0.1,\"uc\":0.2,\"deadline\":50"))

let test_engine_degrade_and_soundness () =
  let e = mk_engine () in
  (* a 1 ms budget cannot fit the predicted exact cost: the request
     degrades to the cached-kernel approx bound *)
  let ja =
    parse_resp (Engine.handle_line e (admit_req ~id:"a" ~u0:0.31 ~extra:",\"budget_ms\":1" ()))
  in
  check Alcotest.string "degraded mode" "approx" (str_field ja "mode");
  let b_approx = num_field ja "bound_ms" in
  (* same shape with the full budget: exact optimization *)
  let je = parse_resp (Engine.handle_line e (admit_req ~id:"b" ~u0:0.31 ())) in
  check Alcotest.string "exact mode" "exact" (str_field je "mode");
  let b_exact = num_field je "bound_ms" in
  check Alcotest.bool "both finite" true
    (Float.is_finite b_approx && Float.is_finite b_exact && b_exact > 0.);
  (* soundness of the ladder: the degraded answer is never tighter *)
  check Alcotest.bool
    (Printf.sprintf "approx (%g) >= exact (%g)" b_approx b_exact)
    true
    (b_approx >= b_exact *. 0.999)

let test_engine_shed () =
  let cfg = { Engine.default_config with Engine.max_queue = 1 } in
  let e = mk_engine ~cfg () in
  match
    Engine.handle_batch e
      [ admit_req ~id:"one" ~u0:0.30 (); admit_req ~id:"two" ~u0:0.35 () ]
  with
  | [ r1; r2 ] ->
    check Alcotest.string "first served" "ok" (str_field (parse_resp r1) "status");
    let j2 = parse_resp r2 in
    check Alcotest.string "second shed" "shed" (str_field j2 "status");
    check Alcotest.string "shed id" "two" (str_field j2 "id");
    check Alcotest.bool "retry hint positive" true (num_field j2 "retry_after_ms" > 0.)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_engine_timeout_warms_cache () =
  (* clock script: create, batch start, plan, exact-phase start/end (the
     per-job service-time sample), then 1 s elapsed at render time — the
     exact compute blows its 250 ms budget *)
  let e = mk_engine ~clock:(queue_clock [ 0.; 0.; 0.; 0.; 0.; 1. ]) () in
  let j1 = parse_resp (Engine.handle_line e (admit_req ~id:"t1" ~u0:0.3 ())) in
  check Alcotest.string "timeout status" "timeout" (str_field j1 "status");
  check Alcotest.string "timeout code" "deadline-exceeded" (str_field j1 "code");
  check (Alcotest.float 1e-6) "elapsed" 1000. (num_field j1 "elapsed_ms");
  (* the timed-out bound was still memoized: the retry is a free hit *)
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"t2" ~u0:0.3 ())) in
  check Alcotest.string "retry ok" "ok" (str_field j2 "status");
  check Alcotest.string "retry is a hit" "hit" (str_field j2 "cache")

let test_engine_supervision () =
  let cfg = { Engine.default_config with Engine.debug_ops = true } in
  let e = mk_engine ~cfg () in
  match
    Engine.handle_batch e
      [ "{\"op\":\"debug-fail\",\"id\":\"poison\"}"; admit_req ~id:"ok" ~u0:0.3 () ]
  with
  | [ r1; r2 ] ->
    let j1 = parse_resp r1 in
    check Alcotest.string "poison isolated" "error" (str_field j1 "status");
    check Alcotest.string "internal code" "internal" (str_field j1 "code");
    check Alcotest.string "poison id" "poison" (str_field j1 "id");
    let j2 = parse_resp r2 in
    check Alcotest.string "neighbour survives" "ok" (str_field j2 "status");
    (* the engine keeps serving after the fault *)
    check Alcotest.string "engine alive" "ok"
      (str_field (parse_resp (Engine.handle_line e (admit_req ~id:"after" ~u0:0.3 ()))) "status")
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_engine_batch_order () =
  let e = mk_engine () in
  let lines =
    [
      "{\"op\":\"health\",\"id\":1}";
      "{\"op\":\"stats\",\"id\":\"s\"}";
      "{\"op\":\"admit\",\"id\":\"bad\",\"h\":0,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
      "{\"op\":\"admit\",\"id\":\"hot\",\"h\":5,\"u0\":0.6,\"uc\":0.5,\"deadline\":5}";
      admit_req ~id:"fine" ~u0:0.2 ();
    ]
  in
  let rs = Engine.handle_batch e lines in
  check Alcotest.int "arity" (List.length lines) (List.length rs);
  let js = List.map parse_resp rs in
  (* responses come back in request order with ids intact — the stats
     response is the one op that does not echo an id *)
  List.iter
    (fun (i, id) -> check Alcotest.string ("id at " ^ string_of_int i) id (str_field (List.nth js i) "id"))
    [ (0, "1"); (2, "bad"); (3, "hot"); (4, "fine") ];
  check Alcotest.string "stats in place" "stats" (str_field (List.nth js 1) "op");
  let j3 = List.nth js 2 in
  check Alcotest.string "invalid typed" "invalid-request" (str_field j3 "code");
  let j4 = parse_resp (List.nth rs 3) in
  check Alcotest.string "unstable typed" "unstable" (str_field j4 "code");
  check (Alcotest.float 0.) "unstable exit hint" 3. (num_field j4 "exit_hint")

let test_engine_soak () =
  (* 10^4 distinct shapes through a 32-entry cache on the degraded path:
     memory stays bounded and every response is structured *)
  let cfg = { Engine.default_config with Engine.cache_entries = 32 } in
  let e = mk_engine ~cfg () in
  let last = ref "" in
  for i = 0 to 9_999 do
    let u0 = 0.05 +. (0.85 *. float_of_int i /. 10_000.) in
    let line =
      Printf.sprintf
        "{\"op\":\"admit\",\"h\":2,\"u0\":%.6f,\"uc\":0.05,\"deadline\":100,\"budget_ms\":1}" u0
    in
    last := Engine.handle_line e line;
    if Engine.cache_length e > 32 then Alcotest.failf "cache grew past capacity at %d" i
  done;
  check Alcotest.int "cache bounded over soak" 32 (Engine.cache_length e);
  check Alcotest.int "all served" 10_000 (Engine.served e);
  let j = parse_resp !last in
  check Alcotest.string "soak tail ok" "ok" (str_field j "status");
  check Alcotest.string "soak runs degraded" "approx" (str_field j "mode")

(* ---------------- fuzz ---------------- *)

let valid_base = "{\"op\":\"admit\",\"id\":\"x\",\"h\":3,\"u0\":0.30,\"uc\":0.20,\"deadline\":50}"

let gen_fuzz_line =
  QCheck.Gen.(
    oneof
      [
        (* arbitrary printable bytes *)
        string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 200);
        (* json-ish soup: braces, digits, quotes, escapes *)
        (let alphabet = "{}[]\",:0123456789eE+-.truefalsenul\\ " in
         map
           (fun cs -> String.concat "" (List.map (String.make 1) cs))
           (list_size (int_bound 120)
              (map (String.get alphabet) (int_bound (String.length alphabet - 1)))));
        (* single-byte mutations of a valid request *)
        map2
          (fun pos c ->
            let b = Bytes.of_string valid_base in
            Bytes.set b (pos mod Bytes.length b) c;
            Bytes.to_string b)
          (int_bound 10_000)
          (map Char.chr (int_range 32 126));
        (* truncations of a valid request *)
        map (fun n -> String.sub valid_base 0 (n mod String.length valid_base)) (int_bound 10_000);
      ])

let arb_fuzz = QCheck.make ~print:String.escaped gen_fuzz_line

let prop_protocol_total =
  QCheck.Test.make ~name:"protocol parse is total and typed" ~count:(Qc.count 500) arb_fuzz
    (fun line ->
      match P.parse ~debug_ops:false line with
      | _, Ok _ -> true
      | _, Error { P.kind; _ } -> List.mem (P.exit_hint kind) [ 1; 2; 3 ])

let prop_sjson_total =
  QCheck.Test.make ~name:"sjson parse is total" ~count:(Qc.count 500) arb_fuzz (fun line ->
      match Sjson.parse line with Ok _ | Error _ -> true)

let fuzz_engine = lazy (mk_engine ())

let prop_engine_structured =
  QCheck.Test.make ~name:"engine answers any line with structured JSON" ~count:(Qc.count 150)
    arb_fuzz (fun line ->
      let e = Lazy.force fuzz_engine in
      match Sjson.parse (Engine.handle_line e line) with
      | Error _ -> false
      | Ok j -> (
        match Sjson.member "status" j with
        | Some (Sjson.Str s) -> List.mem s [ "ok"; "error"; "shed"; "timeout" ]
        | _ -> false))

let test_engine_nasty_corpus () =
  let e = mk_engine () in
  let expect code line =
    let j = parse_resp (Engine.handle_line e line) in
    check Alcotest.string (Printf.sprintf "%S -> %s" (String.sub line 0 (min 40 (String.length line))) code)
      code (str_field j "code")
  in
  expect "parse-error" "";
  expect "parse-error" "{";
  expect "parse-error" "{\"op\":\"admit\",\"h\":5";
  expect "parse-error" "not json at all";
  expect "parse-error" "{\"op\":\"admit\",\"h\":NaN}";
  expect "parse-error" (String.make 100 '[');
  expect "invalid-request" "null";
  expect "invalid-request" "42";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":1e999,\"uc\":0.1,\"deadline\":10}";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":-0.1,\"uc\":0.1,\"deadline\":10}";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":0.1,\"uc\":0.1}";
  expect "invalid-request" "{\"op\":\"debug-fail\"}";
  expect "invalid-request" (String.make 70_000 'a');
  expect "unstable" "{\"op\":\"admit\",\"h\":5,\"u0\":0.6,\"uc\":0.5,\"deadline\":10}"

(* ---------------- daemon round trip ---------------- *)

let read_all ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let test_daemon_round_trip () =
  (* the test binary runs in _build/default/test; the CLI is a declared
     dep one directory over *)
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let cmd = Printf.sprintf "%s serve 2>/dev/null" (Filename.quote cli) in
    let ic, oc = Unix.open_process cmd in
    let send l =
      output_string oc l;
      output_char oc '\n'
    in
    send "{\"op\":\"health\",\"id\":\"h1\"}";
    send "{\"op\":\"admit\",\"id\":\"a1\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}";
    send "{\"op\":\"admit\",\"id\":\"a2\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}";
    send "this is not json";
    send "{\"op\":\"check\",\"id\":\"c1\",\"h\":3,\"u0\":0.3,\"uc\":0.2}";
    close_out oc;
    let lines = read_all ic in
    let status = Unix.close_process (ic, oc) in
    check Alcotest.int "daemon exits 0"
      0
      (match status with Unix.WEXITED n -> n | _ -> -1);
    (* five responses in request order, then the drain stats line *)
    check Alcotest.int "responses + drain stats" 6 (List.length lines);
    let js = List.map parse_resp lines in
    let nth = List.nth js in
    check Alcotest.string "health" "ok" (str_field (nth 0) "status");
    check Alcotest.string "health id" "h1" (str_field (nth 0) "id");
    check Alcotest.string "admit a1" "admit" (str_field (nth 1) "op");
    check Alcotest.string "a2 correlated" "a2" (str_field (nth 2) "id");
    check Alcotest.string "a2 is a cache hit" "hit" (str_field (nth 2) "cache");
    check Alcotest.string "garbage typed" "parse-error" (str_field (nth 3) "code");
    check Alcotest.string "check answered" "check" (str_field (nth 4) "op");
    check Alcotest.string "drain stats" "stats" (str_field (nth 5) "op");
    check Alcotest.bool "stats counted the burst" true (num_field (nth 5) "served" >= 5.)
  end

(* ---------------- daemon loop and load generator (in process) ---------------- *)

module Daemon = Serve.Daemon
module Loadgen = Serve.Loadgen

let with_temp_file suffix f =
  let path = Filename.temp_file "serve-daemon" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [Daemon.run] from [fd] into a temp file; the response lines, parsed *)
let run_daemon ?stop ?snapshot ?(cfg = Daemon.default_config) fd =
  with_temp_file ".out" (fun out ->
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Daemon.run ?stop ?snapshot cfg fd oc);
      let ic = open_in out in
      let lines = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_all ic) in
      List.map parse_resp lines)

(* the whole input is on disk before the loop starts: it ends at EOF *)
let run_daemon_on ?snapshot ?cfg input =
  with_temp_file ".in" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> run_daemon ?snapshot ?cfg fd))

let has_field j k v =
  match Sjson.member k j with Some (Sjson.Str s) -> String.equal s v | _ -> false

let last js = List.nth js (List.length js - 1)

let test_daemon_burst_no_loss () =
  (* regression: a sustained burst whose buffered size passes the 2x
     line-bound cap (here ~260 KB of valid lines) must answer every
     request — the cap applies to the trailing partial line, never to
     complete buffered lines — and one multi-read oversized line must
     come back as exactly one typed error *)
  let n = 3_000 in
  let input = Buffer.create 300_000 in
  for i = 1 to n do
    Printf.bprintf input
      "{\"op\":\"admit\",\"id\":\"b%d\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}\n" i
  done;
  (* one 200 KB line: larger than the cap, so it is discarded across
     several reads — the client must still see exactly one response *)
  Buffer.add_string input (String.make 200_000 'x');
  Buffer.add_string input "\n{\"op\":\"health\",\"id\":\"tail\"}\n";
  let js = run_daemon_on (Buffer.contents input) in
  (* n admits + 1 oversized error + 1 health + the drain stats line *)
  check Alcotest.int "one response per request" (n + 3) (List.length js);
  let count pred = List.length (List.filter pred js) in
  check Alcotest.int "exactly one oversized error" 1
    (count (fun j -> has_field j "status" "error"));
  check Alcotest.int "nothing shed" 0 (count (fun j -> has_field j "status" "shed"));
  let stats = last js in
  check Alcotest.string "drain stats" "stats" (str_field stats "op");
  (* the oversized line is either discarded before parsing (never
     reaches the engine: n + 1 served) or — when its newline lands in
     the same read burst — extracted complete and rejected by the
     protocol's max_bytes check (n + 2 served); both are one typed
     error for one request *)
  let served = num_field stats "served" in
  check Alcotest.bool
    (Printf.sprintf "served %g within [n+1, n+2]" served)
    true
    (served >= float_of_int (n + 1) && served <= float_of_int (n + 2))

let test_daemon_overlong_complete_line () =
  (* over the line bound but under the 2x cap, newline in the same read:
     the line reaches the engine whole and gets the protocol's max_bytes
     error — one response, and the lines around it are untouched *)
  let cfg =
    {
      Daemon.default_config with
      Daemon.engine = { Engine.default_config with Engine.max_line_bytes = 1024 };
    }
  in
  let input =
    "{\"op\":\"health\",\"id\":\"before\"}\n" ^ String.make 1500 'a'
    ^ "\n{\"op\":\"health\",\"id\":\"after\"}\n"
  in
  match run_daemon_on ~cfg input with
  | [ before; err; after; stats ] ->
    check Alcotest.string "before" "before" (str_field before "id");
    check Alcotest.string "typed error" "invalid-request" (str_field err "code");
    check Alcotest.string "max_bytes detail" "oversized request: 1500 bytes (limit 1024)"
      (str_field err "detail");
    check Alcotest.string "after" "after" (str_field after "id");
    check (Alcotest.float 0.) "engine saw all three" 3. (num_field stats "served")
  | js -> Alcotest.failf "expected 4 response lines, got %d" (List.length js)

let test_daemon_unterminated_last_line () =
  (* a writer cut before its last newline still gets an answer at drain;
     the prom snapshot is written and a raised snapshot flag is lowered *)
  with_temp_file ".prom" (fun prom ->
      Sys.remove prom;
      let cfg = { Daemon.default_config with Daemon.prom = Some prom } in
      let snapshot = Atomic.make true in
      let input = "{\"op\":\"health\",\"id\":\"h1\"}\n{\"op\":\"health\",\"id\":\"last\"}" in
      (match run_daemon_on ~snapshot ~cfg input with
      | [ h1; tail; stats ] ->
        check Alcotest.string "h1" "h1" (str_field h1 "id");
        check Alcotest.string "unterminated line answered" "last" (str_field tail "id");
        check Alcotest.string "ok" "ok" (str_field tail "status");
        check Alcotest.string "drain stats" "stats" (str_field stats "op")
      | js -> Alcotest.failf "expected 3 response lines, got %d" (List.length js));
      check Alcotest.bool "snapshot flag lowered" false (Atomic.get snapshot);
      check Alcotest.bool "prom snapshot written" true (Sys.file_exists prom))

let test_daemon_batch1_order () =
  (* the load generator's own stream, salted with malformed lines, answered
     one line per batch: response i answers request i *)
  let lg = { Loadgen.default_config with Loadgen.requests = 40; shapes = 4; malformed = 0.2 } in
  let lines = ref [] in
  Loadgen.iter lg (fun l -> lines := l :: !lines);
  let lines = List.rev !lines in
  let cfg = { Daemon.default_config with Daemon.batch = 1 } in
  let js = run_daemon_on ~cfg (String.concat "\n" lines ^ "\n") in
  check Alcotest.int "one response per request + stats" 41 (List.length js);
  List.iteri
    (fun i (line, j) ->
      let admit = String.starts_with ~prefix:"{\"op\":\"admit\",\"id\"" line in
      if admit then
        check Alcotest.string (Printf.sprintf "response %d id" i) (Printf.sprintf "r%d" i)
          (str_field j "id")
      else
        check Alcotest.string (Printf.sprintf "response %d is an error" i) "error"
          (str_field j "status"))
    (List.combine lines (List.filteri (fun i _ -> i < 40) js));
  check Alcotest.bool "stream salted with malformed lines" true
    (List.exists (fun l -> not (String.starts_with ~prefix:"{\"op\":\"admit\",\"id\"" l)) lines)

let test_daemon_stop_mid_stream () =
  (* the writer never closes: only the stop flag — raised here by a signal
     handler, as the CLI's SIGTERM handler does — ends the loop; the lines
     already read are answered, then the cut-off partial line, then stats *)
  let (rd, wr) = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      let input =
        "{\"op\":\"health\",\"id\":\"h1\"}\n{\"op\":\"health\",\"id\":\"h2\"}\n{\"op\":\"heal"
      in
      ignore (Unix.write_substring wr input 0 (String.length input));
      let stop = Atomic.make false in
      (* the first alarm raises stop; a second one, a second later, means
         the loop ignored it and aborts the run instead of hanging *)
      let alarms = ref 0 in
      let previous =
        Sys.signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               incr alarms;
               if !alarms = 1 then Atomic.set stop true else raise Exit))
      in
      let timer it_value it_interval =
        ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval; it_value })
      in
      timer 0.3 1.0;
      let js =
        Fun.protect
          ~finally:(fun () ->
            timer 0. 0.;
            Sys.set_signal Sys.sigalrm previous)
          (fun () ->
            try run_daemon ~stop rd
            with Exit -> Alcotest.fail "the loop kept running after stop was raised")
      in
      check Alcotest.bool "stop raised" true (Atomic.get stop);
      match js with
      | [ h1; h2; partial; stats ] ->
        check Alcotest.string "h1" "h1" (str_field h1 "id");
        check Alcotest.string "h2" "h2" (str_field h2 "id");
        check Alcotest.string "partial line answered" "parse-error" (str_field partial "code");
        check Alcotest.string "drain stats" "stats" (str_field stats "op");
        check (Alcotest.float 0.) "served" 3. (num_field stats "served")
      | js -> Alcotest.failf "expected 4 response lines, got %d" (List.length js))

let test_daemon_loadgen_validation () =
  let run cfg () = run_daemon_on ~cfg "" in
  raises_invalid "batch" (run { Daemon.default_config with Daemon.batch = 0 });
  raises_invalid "prom interval" (run { Daemon.default_config with Daemon.prom_interval = 0. });
  raises_invalid "prom interval nan"
    (run { Daemon.default_config with Daemon.prom_interval = Float.nan });
  let gen cfg () = Loadgen.iter cfg (fun _ -> Alcotest.fail "emitted before validating") in
  let d = Loadgen.default_config in
  raises_invalid "requests" (gen { d with Loadgen.requests = -1 });
  raises_invalid "shapes" (gen { d with Loadgen.shapes = 0 });
  raises_invalid "malformed" (gen { d with Loadgen.malformed = 1.5 });
  raises_invalid "malformed nan" (gen { d with Loadgen.malformed = Float.nan });
  raises_invalid "deadline nan" (gen { d with Loadgen.deadline_ms = Float.nan });
  raises_invalid "deadline inf" (gen { d with Loadgen.deadline_ms = Float.infinity });
  raises_invalid "deadline 0" (gen { d with Loadgen.deadline_ms = 0. })

let test_loadgen_golden () =
  (* MD5 of the newline-terminated stream, pinned from the CLI's stdout
     before the generator moved into the library; the first config is the
     CI serve-smoke stream *)
  let digest cfg =
    let b = Buffer.create 65_536 in
    Loadgen.iter cfg (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n');
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let d = Loadgen.default_config in
  check Alcotest.string "-n 400 --shapes 40 --malformed 0.1 --seed 7"
    "e984eaedecef5bc5c3243c8f8b95e184"
    (digest { d with Loadgen.requests = 400; shapes = 40; malformed = 0.1; seed = 7 });
  check Alcotest.string "defaults" "2a3f133ca19ddc15ef5da1469e827c12" (digest d);
  check Alcotest.string "-n 2000 --shapes 50 --seed 7 -s edf"
    "bfdd522ee715f52209fe9632eaf68f5d"
    (digest
       {
         d with
         Loadgen.requests = 2000;
         shapes = 50;
         seed = 7;
         scheduler = P.Edf { cross_over_through = 10. };
       })

(* ---------------- observability: metrics verb, trace ids, SLO tallies ---------------- *)

let test_engine_metrics_and_trace () =
  let e = mk_engine () in
  let j = parse_resp (Engine.handle_line e "{\"op\":\"metrics\",\"id\":\"m1\"}") in
  check Alcotest.string "metrics op" "metrics" (str_field j "op");
  check Alcotest.string "status ok" "ok" (str_field j "status");
  check Alcotest.string "id echo" "m1" (str_field j "id");
  (* the exposition rides inside the response; registry may be quiet but
     the field must exist *)
  ignore (str_field j "prometheus");
  let t0 = str_field j "trace" in
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ())) in
  let t1 = str_field j2 "trace" in
  check Alcotest.bool "trace ids non-empty" true
    (String.length t0 > 0 && String.length t1 > 0);
  check Alcotest.bool "trace ids unique per request" true
    (not (String.equal t0 t1))

let test_engine_slo_telemetry () =
  Telemetry.reset ();
  let events = ref [] in
  let sink =
    Telemetry.Sink.make
      ~emit:(fun ev -> events := ev :: !events)
      ~flush:(fun () -> ())
  in
  Telemetry.configure ~sink ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let e = mk_engine () in
      ignore (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ()));
      Telemetry.flush ();
      let snap = Telemetry.snapshot () in
      check Alcotest.bool "outcome-labelled latency histogram recorded" true
        (List.exists
           (fun (n, hv) ->
             String.equal n "serve.request_latency_ms{outcome=exact}"
             && hv.Telemetry.h_count = 1)
           snap.Telemetry.histograms);
      check Alcotest.bool "access event carries trace + outcome attrs" true
        (List.exists
           (function
             | Telemetry.Sink.Point { name = "serve.access"; attrs; _ } ->
               List.mem_assoc "trace" attrs && List.mem_assoc "outcome" attrs
             | _ -> false)
           !events))

(* ---------------- byte identity against the pre-rewrite reader and writer ---------------- *)

module O = Serve_oracle

let rec same_tree (a : Sjson.t) (b : O.Sjson.t) =
  match (a, b) with
  | Sjson.Null, O.Sjson.Null -> true
  | Sjson.Bool x, O.Sjson.Bool y -> Bool.equal x y
  | Sjson.Num x, O.Sjson.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Sjson.Str x, O.Sjson.Str y -> String.equal x y
  | Sjson.Arr xs, O.Sjson.Arr ys -> List.compare_lengths xs ys = 0 && List.for_all2 same_tree xs ys
  | Sjson.Obj xs, O.Sjson.Obj ys ->
    List.compare_lengths xs ys = 0
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_tree x y) xs ys
  | _ -> false

let same_parse line =
  match (Sjson.parse line, O.Sjson.parse line) with
  | Ok a, Ok b -> same_tree a b
  | Error m, Error n -> String.equal m n
  | _ -> false

let prop_sjson_oracle =
  QCheck.Test.make ~name:"sjson parse = pre-rewrite reader (tree or message)" ~count:(Qc.count 1000)
    arb_fuzz same_parse

(* Numbers around the reader's integer shortcut: up to 20 digits, signs,
   leading zeros, fractions and exponents, bare and inside an array. *)
let gen_number_text =
  QCheck.Gen.(
    let digits = string_size ~gen:(map Char.chr (int_range 48 57)) (int_range 1 20) in
    map
      (fun (((sign, d), frac), (exp, wrap)) ->
        let t = sign ^ d ^ frac ^ exp in
        if wrap then "[" ^ t ^ "," ^ t ^ "]" else t)
      (pair
         (pair (pair (oneofl [ ""; "-" ]) digits) (oneofl [ ""; ".5"; ".000"; "." ]))
         (pair (oneofl [ ""; ""; "e3"; "E-2"; "e+400"; "e" ]) bool)))

let prop_sjson_oracle_numbers =
  QCheck.Test.make ~name:"sjson numbers = pre-rewrite reader, bit for bit" ~count:(Qc.count 1000)
    (QCheck.make ~print:Fun.id gen_number_text)
    same_parse

(* Floats from raw bit patterns (subnormals, both zeros, both infinities,
   NaNs) plus integral values on both sides of the writer's integer
   shortcut. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits ui64);
        (1, map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64);
        ( 2,
          oneofl
            [
              0.; -0.; 1.; -1.; 0.5; 5e-324; -5e-324; Float.infinity; Float.neg_infinity;
              Float.nan; -.Float.nan; 999_999_999_999_999.; 1e15; -1e15; 1e17; 12.; 100.; 0.013;
            ] );
        (2, map float_of_int (int_range (-2_000_000_000_000_000) 2_000_000_000_000_000));
        (2, map float_of_int small_signed_int);
      ])

(* Client-controlled text: quotes, backslashes, every control byte, DEL,
   stray high bytes and well-formed UTF-8. *)
let gen_text =
  QCheck.Gen.(
    let byte =
      frequency
        [
          (4, map Char.chr (int_range 32 126));
          (1, oneofl [ '"'; '\\'; '\127' ]);
          (1, map Char.chr (int_bound 31));
          (1, map Char.chr (int_range 128 255));
        ]
    in
    map (String.concat "")
      (list_size (int_bound 6)
         (oneof [ string_size ~gen:byte (int_bound 6); oneofl [ "\xc3\xa9"; "\xe2\x88\x86"; "\xf0\x9f\x98\x80" ] ])))

let gen_int = QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ 0; -1; min_int; max_int ] ])

(* String bodies with raw control bytes, stray quotes and backslashes
   (valid and broken escapes alike) and UTF-8: the reader's plain-run
   shortcut and its byte-by-byte fallback must split them as before. *)
let prop_sjson_oracle_strings =
  QCheck.Test.make ~name:"sjson strings = pre-rewrite reader (tree or message)"
    ~count:(Qc.count 1000)
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         map2
           (fun a b -> Printf.sprintf "{\"%s\":\"%s\"}" a b)
           gen_text
           (oneof [ gen_text; map (fun t -> t ^ "\\u00e9\\n" ^ t) gen_text ])))
    same_parse

type render_case = {
  id : string option;
  trace : string option;
  x : float;
  y : float;
  z : float;
  flag : bool;
  text : string;
  texts : string list;
  ints : int array;
  counters : (string * int) list;
  kind : P.error_kind;
  mode : P.mode;
}

let gen_render_case =
  QCheck.Gen.(
    let opt_text = opt gen_text in
    fun st ->
      {
        id = opt_text st;
        trace = opt_text st;
        x = gen_float st;
        y = gen_float st;
        z = gen_float st;
        flag = bool st;
        text = gen_text st;
        texts = list_size (int_bound 4) gen_text st;
        ints = Array.init 8 (fun _ -> gen_int st);
        counters = list_size (int_bound 4) (pair gen_text gen_int) st;
        kind =
          oneofl
            [
              P.Parse_error; P.Invalid_request; P.Unstable; P.Overloaded;
              P.Deadline_exceeded; P.Internal;
            ]
            st;
        mode = oneofl [ P.Exact; P.Approx ] st;
      })

let print_render_case c =
  Printf.sprintf "id=%s trace=%s x=%h y=%h z=%h text=%S"
    (Option.value ~default:"-" (Option.map String.escaped c.id))
    (Option.value ~default:"-" (Option.map String.escaped c.trace))
    c.x c.y c.z c.text

let renders_match c =
  let id = c.id and trace = c.trace in
  let pairs =
    [
      ( "admit",
        P.render_admit ?id ?trace ~admitted:c.flag ~bound_ms:c.x ~deadline_ms:c.y ~mode:c.mode
          ~cache_hit:(not c.flag) ~elapsed_ms:c.z (),
        O.Render.render_admit ?id ?trace ~admitted:c.flag ~bound_ms:c.x ~deadline_ms:c.y
          ~mode:c.mode ~cache_hit:(not c.flag) ~elapsed_ms:c.z () );
      ( "check",
        P.render_check ?id ?trace ~findings:c.texts (),
        O.Render.render_check ?id ?trace ~findings:c.texts () );
      ( "error",
        P.render_error ?id ?trace ~kind:c.kind ~detail:c.text (),
        O.Render.render_error ?id ?trace ~kind:c.kind ~detail:c.text () );
      ( "shed",
        P.render_shed ?id ?trace ~retry_after_ms:c.x (),
        O.Render.render_shed ?id ?trace ~retry_after_ms:c.x () );
      ( "timeout",
        P.render_timeout ?id ?trace ~elapsed_ms:c.y ~budget_ms:c.z (),
        O.Render.render_timeout ?id ?trace ~elapsed_ms:c.y ~budget_ms:c.z () );
      ( "stats",
        (let i = c.ints in
         P.render_stats ?id ?trace ~uptime_s:c.x ~served:i.(0) ~cache_len:i.(1)
           ~cache_capacity:i.(2) ~cache_hits:i.(3) ~cache_misses:i.(4) ~shed:i.(5)
           ~timeouts:i.(6) ~errors:i.(7) ~counters:c.counters ()),
        let i = c.ints in
        O.Render.render_stats ?id ?trace ~uptime_s:c.x ~served:i.(0) ~cache_len:i.(1)
          ~cache_capacity:i.(2) ~cache_hits:i.(3) ~cache_misses:i.(4) ~shed:i.(5)
          ~timeouts:i.(6) ~errors:i.(7) ~counters:c.counters () );
      ( "health",
        P.render_health ?id ?trace ~uptime_s:c.y (),
        O.Render.render_health ?id ?trace ~uptime_s:c.y () );
      ( "metrics",
        P.render_metrics ?id ?trace ~prometheus:c.text (),
        O.Render.render_metrics ?id ?trace ~prometheus:c.text () );
    ]
  in
  List.for_all
    (fun (name, got, want) ->
      String.equal got want
      || QCheck.Test.fail_reportf "render_%s:\n got  %S\n want %S" name got want)
    pairs

let prop_render_oracle =
  QCheck.Test.make ~name:"every render_* = Telemetry.Json.obj renderer, byte for byte"
    ~count:(Qc.count 1000)
    (QCheck.make ~print:print_render_case gen_render_case)
    renders_match

(* ---------------- the one-pass request reader against the tree reader ---------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_params (a : P.admit_params) (b : P.admit_params) =
  a.P.h = b.P.h
  && same_float a.P.u_through b.P.u_through
  && same_float a.P.u_cross b.P.u_cross
  && same_float a.P.epsilon b.P.epsilon
  && same_float a.P.deadline b.P.deadline
  && (match (a.P.scheduler, b.P.scheduler) with
     | P.Edf { cross_over_through = x }, P.Edf { cross_over_through = y } -> same_float x y
     | x, y -> x = y)
  && Option.equal same_float a.P.budget_ms b.P.budget_ms

let same_request a b =
  match (a, b) with
  | P.Admit x, P.Admit y | P.Check x, P.Check y -> same_params x y
  | P.Stats, P.Stats | P.Health, P.Health | P.Metrics, P.Metrics
  | P.Debug_fail, P.Debug_fail ->
    true
  | _ -> false

let reads_match ~debug_ops line =
  let id, got = P.parse ~debug_ops line in
  let id', want = O.Request.parse ~debug_ops line in
  Option.equal String.equal id id'
  && (match (got, want) with
     | Ok a, Ok b -> same_request a b
     | Error e, Error e' -> e.P.kind = e'.P.kind && String.equal e.P.detail e'.P.detail
     | _ -> false)
  || QCheck.Test.fail_reportf "the readers differ on %S" line

(* Request-shaped lines: the protocol's keys and unknown ones, shuffled
   and repeated, spelled plainly or with \u escapes, with whitespace
   between tokens; values from the valid range, [gen_number_text] and
   every other JSON type, with nested arrays and objects. *)
let gen_request_line =
  QCheck.Gen.(
    let ws = oneofl [ ""; ""; ""; " "; "\t"; "\n "; "\r\n" ] in
    let nested =
      oneofl
        [ "[]"; "{}"; "[1,[2,{\"h\":3}]]"; "{\"op\":\"stats\",\"a\":[null]}"; "[\"\\u00e9\"]" ]
    in
    let other =
      oneofl [ "null"; "true"; "false"; "\"x\""; "\"\""; "-0"; "1e999"; "-1e999"; "0.5e-3" ]
    in
    let num =
      oneof
        [
          gen_number_text;
          map string_of_int (int_range (-2) 12);
          map (Printf.sprintf "%.17g") (float_bound_inclusive 1.);
        ]
    in
    let strings l = oneofl (List.map (Printf.sprintf "%S") l) in
    let value = function
      | "op" ->
        oneof
          [
            strings [ "admit"; "check"; "stats"; "health"; "metrics"; "debug-fail"; "bogus" ];
            other;
            nested;
          ]
      | "sched" -> oneof [ strings [ "fifo"; "bmux"; "sp"; "edf"; "wfq"; "EDF" ]; other; num ]
      | "id" -> oneof [ oneofl [ "\"q\""; "\"e\\\"s\\\\c\""; "7"; "-3"; "7.5"; "1e20" ]; other; num ]
      | _ -> frequency [ (4, num); (1, other); (1, nested) ]
    in
    let keys =
      [ "op"; "id"; "h"; "u0"; "uc"; "eps"; "deadline"; "edf_ratio"; "sched"; "budget_ms" ]
      @ [ "x"; "hh"; "o"; "ops"; ""; "u1" ]
    in
    let escape k =
      String.concat ""
        (List.map (fun c -> Printf.sprintf "\\u%04x" (Char.code c)) (List.of_seq (String.to_seq k)))
    in
    let member =
      oneofl keys >>= fun k ->
      map2
        (fun escaped v -> ((if escaped then escape k else k), v))
        (frequency [ (5, return false); (1, return true) ])
        (value k)
    in
    (* mostly the required fields, so validation gets past its first checks *)
    let base =
      map2 ( @ )
        (list_size (int_bound 4) member)
        (return [ ("op", "\"admit\""); ("h", "4"); ("u0", "0.2"); ("uc", "0.1"); ("deadline", "25") ])
    in
    map2
      (fun members (w1, w2) ->
        let member (k, v) = Printf.sprintf "%s\"%s\"%s:%s%s" w1 k w2 w1 v in
        w1 ^ "{" ^ String.concat ("," ^ w2) (List.map member members) ^ "}" ^ w2)
      (frequency [ (2, base >>= shuffle_l); (1, list_size (int_bound 8) member) ])
      (pair ws ws))

let prop_request_oracle =
  QCheck.Test.make ~name:"Protocol.parse = tree reader (id, request bits or error)"
    ~count:(Qc.count 1000)
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(frequency [ (1, gen_fuzz_line); (3, gen_request_line) ]))
    (fun line -> reads_match ~debug_ops:false line && reads_match ~debug_ops:true line)

(* ---------------- the memoized bound text ---------------- *)

(* The text a cache entry keeps next to its bound writes the same reply
   as the bound itself, on both sides of the writer's integer shortcut
   and at the edges of the float range *)
let test_bound_text () =
  List.iter
    (fun x ->
      let reply ?bound_text () =
        P.render_admit ?bound_text ~trace:"t" ~admitted:false ~bound_ms:x ~deadline_ms:10.
          ~mode:P.Exact ~cache_hit:true ~elapsed_ms:0.25 ()
      in
      check Alcotest.string (Printf.sprintf "%h" x) (reply ())
        (reply ~bound_text:(Telemetry.Json.number x) ()))
    [
      42.; -3.; 1.; 0.; -0.; 0.5; 26.318707236023435; 999_999_999_999_999.; 1e15; -1e15;
      1e15 +. 2.; 5e-324; -5e-324; 2.2250738585072009e-308; Float.max_float; -.Float.max_float;
      1e300; Float.infinity; Float.neg_infinity; Float.nan;
    ]

(* A hit replies with the bytes its miss did, apart from the cache tag,
   the elapsed time and the trace id: the memoized text is the computed
   bound's *)
let test_hit_reply_equals_miss () =
  let rec find_from r sub i =
    if i + String.length sub > String.length r then None
    else if String.equal (String.sub r i (String.length sub)) sub then Some i
    else find_from r sub (i + 1)
  in
  (* each field's value up to its closing delimiter becomes "_" *)
  let mask r =
    List.fold_left
      (fun r (field, stop) ->
        let key = Printf.sprintf "\"%s\":" field in
        match find_from r key 0 with
        | None -> r
        | Some i ->
          let j = i + String.length key in
          let k = Option.value ~default:(String.length r) (String.index_from_opt r j stop) in
          String.sub r 0 j ^ "_" ^ String.sub r k (String.length r - k))
      r
      [ ("cache", ','); ("elapsed_ms", ','); ("trace", '}') ]
  in
  let e = mk_engine () in
  List.iter
    (fun shape ->
      let line = Printf.sprintf "{\"op\":\"admit\",\"id\":\"m\",%s}" shape in
      let miss = Engine.handle_line e line in
      let hit = Engine.handle_line e line in
      check Alcotest.string (shape ^ ": a miss") "miss" (str_field (parse_resp miss) "cache");
      check Alcotest.string (shape ^ ": a hit") "hit" (str_field (parse_resp hit) "cache");
      check Alcotest.string shape (mask miss) (mask hit))
    [
      "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      "\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":50,\"sched\":\"bmux\"";
      "\"h\":10,\"u0\":0.15,\"uc\":0.35,\"deadline\":200,\"sched\":\"sp\"";
      "\"h\":7,\"u0\":0.13,\"uc\":0.29,\"deadline\":57,\"sched\":\"edf\"";
      "\"h\":2,\"u0\":0,\"uc\":0,\"deadline\":0.5";
      "\"h\":5,\"u0\":0.31,\"uc\":0.2,\"deadline\":40,\"budget_ms\":1";
      "\"h\":20,\"u0\":0.1,\"uc\":0.6,\"deadline\":30,\"sched\":\"edf\",\"edf_ratio\":0.5,\"budget_ms\":1";
    ]

let test_trace_id () =
  List.iter
    (fun seq ->
      check Alcotest.string (string_of_int seq)
        (Printf.sprintf "%s-%06d" "0badcafe" seq)
        (Engine.trace_id "0badcafe" seq))
    [ 0; 1; 42; 999_999; 1_000_000; 12_345_678; max_int ];
  raises_invalid "negative seq" (fun () -> Engine.trace_id "p" (-1))

(* ---------------- allocation on the hit path ---------------- *)

(* perfbench's hot-line format: %.17g loads, an integral deadline *)
let hot_admit_line =
  "{\"op\":\"admit\",\"h\":7,\"u0\":0.13000000000000001,\"uc\":0.28999999999999998,\"deadline\":57,\"sched\":\"edf\"}"

let minor_words_per_call n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Each budget is the measured count (OCaml 5.1) plus 25%: the tree
   reader 117 words, the protocol's one-pass reader 84, a cached hit
   204. *)
let test_hit_path_allocation () =
  check Alcotest.bool "telemetry is off (its recording allocates)" false (Telemetry.is_enabled ());
  let budget what ~words ~max =
    if words > max then Alcotest.failf "%s: %.1f minor words (budget %.0f)" what words max
  in
  budget "Sjson.parse, hot line"
    ~words:(minor_words_per_call 1_000 (fun () -> Sjson.parse hot_admit_line))
    ~max:150.;
  budget "Protocol.parse, hot line"
    ~words:
      (minor_words_per_call 1_000 (fun () -> P.parse ~debug_ops:false hot_admit_line))
    ~max:105.;
  let e = Engine.create Engine.default_config in
  check Alcotest.string "warm-up misses" "miss" (str_field (parse_resp (Engine.handle_line e hot_admit_line)) "cache");
  check Alcotest.string "then hits" "hit" (str_field (parse_resp (Engine.handle_line e hot_admit_line)) "cache");
  budget "handle_batch, per cached hit"
    ~words:(minor_words_per_call 1_000 (fun () -> Engine.handle_batch e [ hot_admit_line ]))
    ~max:255.

(* ---------------- the degraded mode is the production search ---------------- *)

(* [Admission.decide] at [s_points] on an admit line's request, built as
   the engine builds it: the scenario at the request's loads and eps,
   and for EDF the gap anchored at deadline / h *)
let decide_line ~s_points line =
  let module Admission = Deltanet.Admission in
  let module Scenario = Deltanet.Scenario in
  match P.parse ~debug_ops:false line with
  | _, Ok (P.Admit p) ->
    let sc = Scenario.of_utilization ~h:p.P.h ~u_through:p.P.u_through ~u_cross:p.P.u_cross in
    Admission.decide ~s_points
      {
        Admission.base = { sc with Scenario.epsilon = p.P.epsilon };
        guarantee = { Admission.deadline = p.P.deadline; epsilon = p.P.epsilon };
      }
      ~scheduler:
        (Scheduler.Kind.two_class ~d_through:(p.P.deadline /. float_of_int p.P.h) p.P.scheduler)
  | _ -> Alcotest.failf "not an admit request: %s" line

(* [e2e.gamma.evals] over [f], counted under the null sink *)
let gamma_evals f =
  Telemetry.reset ();
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let x = f () in
      let counters = (Telemetry.snapshot ()).Telemetry.counters in
      (x, Option.value ~default:0 (List.assoc_opt "e2e.gamma.evals" counters)))

(* An exact-answered miss runs one s x gamma search, [Admission.decide]'s
   at the engine's s-grid, and nothing else. *)
let test_engine_exact_miss_one_search () =
  let line = "{\"op\":\"admit\",\"h\":6,\"u0\":0.2,\"uc\":0.3,\"deadline\":80}" in
  let reply, engine_evals = gamma_evals (fun () -> Engine.handle_line (mk_engine ()) line) in
  let j = parse_resp reply in
  check Alcotest.string "a miss" "miss" (str_field j "cache");
  check Alcotest.string "answered exactly" "exact" (str_field j "mode");
  let d, decide_evals =
    gamma_evals (fun () -> decide_line ~s_points:Engine.default_config.Engine.s_points line)
  in
  check Alcotest.bool "decide did search" true (decide_evals > 0);
  check Alcotest.int "the miss's gamma evaluations = decide's" decide_evals engine_evals;
  check (Alcotest.float 0.) "the bound is decide's" d.Deltanet.Admission.bound (num_field j "bound_ms")

let degraded_line ~id shape = Printf.sprintf "{\"op\":\"admit\",\"id\":%S,%s,\"budget_ms\":1}" id shape

(* A 1 ms budget cannot fit the predicted exact cost, so every request
   below degrades: its reply's bound is [Admission.decide] at
   [approx_s_points], bit for bit, on the miss that computes it and on
   the hit that reads its memo.  FIFO, BMUX, SP, the anchored EDF gap
   (both signs), a long path and a non-default eps. *)
let test_engine_approx_is_decide () =
  List.iter
    (fun shape ->
      let line = degraded_line ~id:"d" shape in
      let d = decide_line ~s_points:Engine.approx_s_points line in
      let e = mk_engine () in
      List.iter
        (fun cache ->
          let j = parse_resp (Engine.handle_line e line) in
          check Alcotest.string (shape ^ ": approx") "approx" (str_field j "mode");
          check Alcotest.string (shape ^ ": cache") cache (str_field j "cache");
          check Alcotest.bool (shape ^ ": admit") d.Deltanet.Admission.admitted (admit_field j);
          check Alcotest.string (shape ^ ": bound bits")
            (Printf.sprintf "%h" d.Deltanet.Admission.bound)
            (Printf.sprintf "%h" (num_field j "bound_ms")))
        [ "miss"; "hit" ])
    [
      "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25";
      "\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":50,\"sched\":\"bmux\"";
      "\"h\":10,\"u0\":0.15,\"uc\":0.35,\"deadline\":200,\"sched\":\"sp\"";
      "\"h\":7,\"u0\":0.13,\"uc\":0.29,\"deadline\":57,\"sched\":\"edf\"";
      "\"h\":20,\"u0\":0.1,\"uc\":0.6,\"deadline\":30,\"sched\":\"edf\",\"edf_ratio\":0.5";
      "\"h\":1,\"u0\":0.5,\"uc\":0.4,\"deadline\":10,\"eps\":1e-6";
    ];
  (* a degraded miss runs exactly that one search, and two degraded
     requests on one new shape in one batch both compute it *)
  let line = degraded_line ~id:"a" "\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25" in
  let d, decide_evals = gamma_evals (fun () -> decide_line ~s_points:Engine.approx_s_points line) in
  let one, one_evals = gamma_evals (fun () -> Engine.handle_batch (mk_engine ()) [ line ]) in
  let two, two_evals = gamma_evals (fun () -> Engine.handle_batch (mk_engine ()) [ line; line ]) in
  check Alcotest.bool "decide did search" true (decide_evals > 0);
  check Alcotest.int "a degraded miss's gamma evaluations = decide's" decide_evals one_evals;
  check Alcotest.int "two in one batch: two searches" (2 * decide_evals) two_evals;
  List.iter2
    (fun r cache ->
      let j = parse_resp r in
      check Alcotest.string "approx" "approx" (str_field j "mode");
      check Alcotest.string "cache" cache (str_field j "cache");
      check Alcotest.string "bound bits"
        (Printf.sprintf "%h" d.Deltanet.Admission.bound)
        (Printf.sprintf "%h" (num_field j "bound_ms")))
    (one @ two) [ "miss"; "miss"; "hit" ]

(* A degraded bound whose diagnostic is not [Converged] is not memoized:
   at eps = 5e-324 the search finds no finite bound on any s (Unstable,
   infinity), so the reply refuses with a null bound and the next request
   on the shape searches again.  A converged approx bound is memoized and
   its hit searches nothing. *)
let test_engine_approx_memo_converged_only () =
  let unstable = degraded_line ~id:"u" "\"h\":2,\"u0\":0.2,\"uc\":0.1,\"deadline\":25,\"eps\":5e-324" in
  let d, decide_evals = gamma_evals (fun () -> decide_line ~s_points:Engine.approx_s_points unstable) in
  check Alcotest.bool "decide: not converged" false (Deltanet.Diag.ok d.Deltanet.Admission.diag);
  check Alcotest.bool "decide: infinite bound" true (Float.equal d.Deltanet.Admission.bound Float.infinity);
  check Alcotest.bool "decide did search" true (decide_evals > 0);
  let e = mk_engine () in
  List.iter
    (fun cache ->
      let r, evals = gamma_evals (fun () -> Engine.handle_line e unstable) in
      let j = parse_resp r in
      check Alcotest.string (cache ^ ": approx") "approx" (str_field j "mode");
      check Alcotest.string (cache ^ ": cache") cache (str_field j "cache");
      check Alcotest.bool (cache ^ ": refused") false (admit_field j);
      check Alcotest.bool (cache ^ ": null bound") true
        (match Sjson.member "bound_ms" j with Some Sjson.Null -> true | _ -> false);
      check Alcotest.int (cache ^ ": searched again") decide_evals evals)
    [ "miss"; "hit" ];
  let fine = degraded_line ~id:"f" "\"h\":2,\"u0\":0.2,\"uc\":0.1,\"deadline\":25" in
  let _, miss_evals = gamma_evals (fun () -> Engine.handle_line e fine) in
  let r, hit_evals = gamma_evals (fun () -> Engine.handle_line e fine) in
  check Alcotest.bool "converged: the miss searched" true (miss_evals > 0);
  check Alcotest.string "converged: a hit" "hit" (str_field (parse_resp r) "cache");
  check Alcotest.int "converged: the hit reads the memo" 0 hit_evals

(* A degraded request at the edges the protocol admits gets a typed
   reply: one hop at loads 0 and at the stability edge, eps from the
   least subnormal to near 1, every scheduler and EDF gaps of extreme
   deadlines (ratio 2 gives -d0, ratio 0.5 gives +d0/2), and the hop cap
   with a gap of -1e300.  A shape with a stable s answers in approx mode
   with [Admission.decide]'s bound, which is never NaN: a finite bound
   by its bits, an infinite one as null.  The other shapes get the
   "unstable" error. *)
let test_engine_degraded_edges () =
  let e = mk_engine () in
  let n = ref 0 in
  let request shape =
    let line = degraded_line ~id:"edge" shape in
    let j = parse_resp (Engine.handle_line e line) in
    match str_field j "status" with
    | "error" -> check Alcotest.string (shape ^ ": typed error") "unstable" (str_field j "code")
    | "ok" ->
      incr n;
      check Alcotest.string (shape ^ ": approx") "approx" (str_field j "mode");
      let d = decide_line ~s_points:Engine.approx_s_points line in
      let bound = d.Deltanet.Admission.bound in
      if Float.is_nan bound then Alcotest.failf "%s: NaN bound" shape;
      (match Sjson.member "bound_ms" j with
      | Some (Sjson.Num v) ->
        check Alcotest.string (shape ^ ": bound bits") (Printf.sprintf "%h" bound)
          (Printf.sprintf "%h" v)
      | Some Sjson.Null ->
        check Alcotest.bool (shape ^ ": null is infinite") true (Float.equal bound Float.infinity)
      | _ -> Alcotest.failf "%s: no bound_ms" shape)
    | other -> Alcotest.failf "%s: status %s" shape other
  in
  List.iter
    (fun (u0, uc) ->
      List.iter
        (fun eps ->
          List.iter
            (fun sched ->
              request (Printf.sprintf "\"h\":1,\"u0\":%.17g,\"uc\":%.17g,\"eps\":%.17g,%s" u0 uc eps sched))
            [
              "\"deadline\":25";
              "\"deadline\":25,\"sched\":\"bmux\"";
              "\"deadline\":25,\"sched\":\"sp\"";
              "\"deadline\":25,\"sched\":\"edf\",\"edf_ratio\":1";
              "\"deadline\":1e300,\"sched\":\"edf\",\"edf_ratio\":0.5";
              "\"deadline\":1e300,\"sched\":\"edf\",\"edf_ratio\":2";
              "\"deadline\":1e-300,\"sched\":\"edf\",\"edf_ratio\":2";
            ])
        [ 5e-324; 1e-300; 1e-9; 1. -. epsilon_float ])
    [ (0., 0.); (0., 0.9998); (0.9998, 0.); (0.5, 0.4998); (1e-300, 1e-300) ];
  check Alcotest.int "one-hop requests answered in approx mode" 140 !n;
  request "\"h\":10000,\"u0\":0.5,\"uc\":0.4998,\"deadline\":1e304,\"sched\":\"edf\",\"edf_ratio\":2";
  check Alcotest.int "the hop cap answered in approx mode" 141 !n

(* A shape with no stable s is refused on every miss, whichever mode the
   plan would pick, with the bytes the eager engine sent *)
let test_engine_no_stable_s_refused () =
  let shape = "\"h\":2,\"u0\":0.5,\"uc\":0.49995,\"deadline\":10" in
  let want =
    "{\"id\":\"u\",\"status\":\"error\",\"code\":\"unstable\",\"detail\":\"no stable \
     effective-bandwidth parameter exists\",\"exit_hint\":3,\"trace\":\""
  in
  let e = mk_engine () in
  List.iter
    (fun (what, line) ->
      List.iter
        (fun _ ->
          let r = Engine.handle_line e line in
          let n = String.length want in
          if not (String.length r > n && String.equal (String.sub r 0 n) want) then
            Alcotest.failf "%s: %s" what r)
        [ 1; 2 ])
    [
      ("exact", Printf.sprintf "{\"op\":\"admit\",\"id\":\"u\",%s}" shape);
      ("approx", degraded_line ~id:"u" shape);
    ];
  check Alcotest.int "never cached" 0 (Engine.cache_length e)

let suite =
  [
    Alcotest.test_case "sjson values" `Quick test_sjson_values;
    Alcotest.test_case "sjson strings" `Quick test_sjson_strings;
    Alcotest.test_case "sjson duplicate keys" `Quick test_sjson_member;
    Alcotest.test_case "sjson rejects" `Quick test_sjson_rejects;
    Alcotest.test_case "protocol admit defaults" `Quick test_protocol_admit_defaults;
    Alcotest.test_case "protocol numeric id" `Quick test_protocol_numeric_id;
    Alcotest.test_case "protocol edf" `Quick test_protocol_edf;
    Alcotest.test_case "protocol validation" `Quick test_protocol_validation;
    Alcotest.test_case "protocol exit hints" `Quick test_protocol_exit_hints;
    Alcotest.test_case "protocol render round trip" `Quick test_protocol_render_round_trip;
    Alcotest.test_case "cache LRU semantics" `Quick test_cache_lru;
    Alcotest.test_case "cache mem is pure" `Quick test_cache_mem_no_refresh;
    Alcotest.test_case "cache validation" `Quick test_cache_validation;
    Alcotest.test_case "cache bounded soak" `Quick test_cache_soak;
    Alcotest.test_case "engine config validation" `Quick test_engine_validation;
    Alcotest.test_case "engine admit + cache hit" `Quick test_engine_admit_and_cache;
    Alcotest.test_case "engine degrade soundness" `Quick test_engine_degrade_and_soundness;
    Alcotest.test_case "engine sheds past the queue bound" `Quick test_engine_shed;
    Alcotest.test_case "engine timeout warms the cache" `Quick test_engine_timeout_warms_cache;
    Alcotest.test_case "engine survives a poisoned request" `Quick test_engine_supervision;
    Alcotest.test_case "engine batch order + correlation" `Quick test_engine_batch_order;
    Alcotest.test_case "engine bounded soak (10k shapes)" `Slow test_engine_soak;
    QCheck_alcotest.to_alcotest prop_sjson_total;
    QCheck_alcotest.to_alcotest prop_protocol_total;
    QCheck_alcotest.to_alcotest prop_engine_structured;
    Alcotest.test_case "engine nasty corpus" `Quick test_engine_nasty_corpus;
    Alcotest.test_case "daemon round trip" `Quick test_daemon_round_trip;
    Alcotest.test_case "daemon burst loses nothing past the cap" `Quick
      test_daemon_burst_no_loss;
    Alcotest.test_case "daemon overlong complete line" `Quick
      test_daemon_overlong_complete_line;
    Alcotest.test_case "daemon answers an unterminated last line" `Quick
      test_daemon_unterminated_last_line;
    Alcotest.test_case "daemon batch 1 keeps request order" `Quick test_daemon_batch1_order;
    Alcotest.test_case "daemon stop mid-stream drains" `Quick test_daemon_stop_mid_stream;
    Alcotest.test_case "daemon + loadgen config validation" `Quick
      test_daemon_loadgen_validation;
    Alcotest.test_case "loadgen stream golden" `Quick test_loadgen_golden;
    Alcotest.test_case "engine metrics verb + per-request trace ids" `Quick
      test_engine_metrics_and_trace;
    Alcotest.test_case "engine records outcome SLO telemetry" `Quick
      test_engine_slo_telemetry;
    (* Added after the cases above so their Alcotest indices stay put. *)
    Alcotest.test_case "protocol h range checked on the float" `Quick test_protocol_h_range;
    Alcotest.test_case "engine: -0 and 0 share one entry" `Quick
      test_engine_signed_zero_one_entry;
    Alcotest.test_case "engine: every shape field splits the key" `Quick test_engine_shape_key;
    QCheck_alcotest.to_alcotest prop_sjson_oracle;
    QCheck_alcotest.to_alcotest prop_sjson_oracle_numbers;
    QCheck_alcotest.to_alcotest prop_sjson_oracle_strings;
    QCheck_alcotest.to_alcotest prop_render_oracle;
    Alcotest.test_case "trace id = %s-%06d" `Quick test_trace_id;
    Alcotest.test_case "hit path allocation budget" `Quick test_hit_path_allocation;
    Alcotest.test_case "engine: a degraded request at the protocol's edges gets a typed reply"
      `Quick test_engine_degraded_edges;
    Alcotest.test_case "engine: an exact miss runs one s x gamma search" `Quick
      test_engine_exact_miss_one_search;
    Alcotest.test_case "engine: approx replies = Admission.decide at approx_s_points" `Quick
      test_engine_approx_is_decide;
    Alcotest.test_case "engine: no stable s refused in both modes" `Quick
      test_engine_no_stable_s_refused;
    QCheck_alcotest.to_alcotest prop_request_oracle;
    Alcotest.test_case "memoized bound text = the bound's own" `Quick test_bound_text;
    Alcotest.test_case "engine: a hit replies with its miss's bytes" `Quick
      test_hit_reply_equals_miss;
    Alcotest.test_case "engine: only a converged approx bound is memoized" `Quick
      test_engine_approx_memo_converged_only;
  ]
