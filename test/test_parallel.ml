(* The parallel execution layer: pool semantics (ordering, chunk
   boundaries, error propagation, lifecycle), seed derivation, the
   default pool — and the load-bearing determinism
   guarantee: bit-for-bit identical results at every jobs setting, for
   the pure maps, the sweep drivers, and the replication harness
   (including checkpoint/resume after a partial parallel run).  The
   sim-vs-bounds cross-validation now covers every sweep point in
   test_netsim.ml. *)

module Pool = Parallel.Pool
module Seeds = Parallel.Seeds
module Default = Parallel.Default
module Replicate = Netsim.Replicate
module Tandem = Netsim.Tandem
module Scenario = Deltanet.Scenario
module Classes = Scheduler.Classes

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let bits = Int64.bits_of_float

let check_bitwise name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" name a b

(* run [k] with the default pool at [n] jobs, restoring the previous
   setting afterwards *)
let with_jobs n k =
  let prev = Default.jobs () in
  Default.set_jobs n;
  Fun.protect ~finally:(fun () -> Default.set_jobs prev) k

(* ---------------- pool: map semantics ---------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = Array.init 100 Fun.id in
      let got = Pool.map p (fun x -> x * x) xs in
      Alcotest.(check (array int)) "order preserved" (Array.map (fun x -> x * x) xs) got)

let test_map_empty () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map p (fun x -> x + 1) [||]))

let test_map_singleton () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "singleton" [| 43 |] (Pool.map p (fun x -> x + 1) [| 42 |]))

(* chunk-boundary sizes n = jobs*k +- 1 and every small n *)
let test_map_chunk_boundaries () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          List.iter
            (fun k ->
              List.iter
                (fun n ->
                  if n >= 0 then begin
                    let xs = Array.init n (fun i -> i * 3) in
                    let got = Pool.map p (fun x -> x - 1) xs in
                    Alcotest.(check (array int))
                      (Printf.sprintf "jobs=%d n=%d" jobs n)
                      (Array.map (fun x -> x - 1) xs)
                      got
                  end)
                [ (jobs * k) - 1; jobs * k; (jobs * k) + 1 ])
            [ 0; 1; 3; 4; 5 ]))
    [ 1; 2; 3; 4; 8 ]

let test_map_matches_across_jobs () =
  let xs = Array.init 197 (fun i -> float_of_int i /. 7.) in
  let f x = (sin x *. cos (x *. 3.)) +. sqrt (x +. 1.) in
  let seq = Array.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let got = Pool.map p f xs in
          Array.iteri
            (fun i v ->
              check_bitwise (Printf.sprintf "jobs=%d index %d" jobs i) seq.(i) v)
            got))
    [ 1; 2; 4; 8 ]

let test_map_list () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "map_list" [ 2; 4; 6; 8; 10 ]
        (Pool.map_list p (fun x -> 2 * x) [ 1; 2; 3; 4; 5 ]))

(* ---------------- pool: errors ---------------- *)

let test_error_index () =
  Pool.with_pool ~jobs:4 (fun p ->
      match Pool.map p (fun x -> if x = 37 then failwith "boom" else x) (Array.init 100 Fun.id) with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { index; exn; _ } ->
        Alcotest.(check int) "failing index" 37 index;
        (match exn with
        | Failure msg -> Alcotest.(check string) "original exception" "boom" msg
        | _ -> Alcotest.fail "expected the original Failure"))

let test_error_lowest_index () =
  (* several failing tasks: the lowest input index wins, like a
     sequential scan *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          match
            Pool.map p
              (fun x -> if x mod 13 = 11 then failwith "multi" else x)
              (Array.init 120 Fun.id)
          with
          | _ -> Alcotest.fail "expected Task_error"
          | exception Pool.Task_error { index; _ } ->
            Alcotest.(check int) (Printf.sprintf "jobs=%d lowest index" jobs) 11 index))
    [ 1; 2; 4; 8 ]

let test_pool_reuse_after_failure () =
  Pool.with_pool ~jobs:4 (fun p ->
      (match Pool.map p (fun _ -> failwith "first") [| 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error _ -> ());
      (* the pool survives a failed map and serves the next one *)
      Alcotest.(check (array int)) "reused" [| 2; 4; 6 |]
        (Pool.map p (fun x -> 2 * x) [| 1; 2; 3 |]))

let test_fatal_not_wrapped () =
  Pool.with_pool ~jobs:4 (fun p ->
      match Pool.map p (fun x -> if x = 5 then raise Sys.Break else x) (Array.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Sys.Break"
      | exception Sys.Break -> ()
      | exception Pool.Task_error _ -> Alcotest.fail "Sys.Break must not be wrapped")

(* ---------------- pool: lifecycle ---------------- *)

let test_jobs_one_no_domains () =
  let p = Pool.create ~jobs:1 () in
  Alcotest.(check int) "jobs" 1 (Pool.jobs p);
  Alcotest.(check int) "no worker domains" 0 (Pool.worker_count p);
  Alcotest.(check int) "effective" 1 (Pool.effective_jobs p);
  Alcotest.(check (array int)) "sequential map" [| 1; 4; 9 |]
    (Pool.map p (fun x -> x * x) [| 1; 2; 3 |]);
  Pool.shutdown p

let test_worker_count () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "jobs" 4 (Pool.jobs p);
      Alcotest.(check int) "workers = jobs - 1" 3 (Pool.worker_count p);
      Alcotest.(check int) "effective" 4 (Pool.effective_jobs p))

let test_create_invalid () =
  check_invalid "jobs = 0" (fun () -> Pool.create ~jobs:0 ());
  check_invalid "jobs < 0" (fun () -> Pool.create ~jobs:(-3) ())

let test_recommended_jobs () =
  Alcotest.(check bool) "at least one core" true (Pool.recommended_jobs () >= 1)

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check int) "workers joined" 0 (Pool.worker_count p);
  check_invalid "map after shutdown" (fun () -> Pool.map p Fun.id [| 1 |])

let test_with_pool_returns_and_cleans () =
  let seen = ref None in
  let r =
    Pool.with_pool ~jobs:2 (fun p ->
        seen := Some p;
        Pool.map p (fun x -> x + 1) [| 1; 2 |])
  in
  Alcotest.(check (array int)) "result" [| 2; 3 |] r;
  match !seen with
  | None -> Alcotest.fail "pool not created"
  | Some p -> check_invalid "shut down on exit" (fun () -> Pool.map p Fun.id [| 1 |])

let test_in_worker_flag () =
  Alcotest.(check bool) "main domain" false (Pool.in_worker ());
  Pool.with_pool ~jobs:4 (fun p ->
      let flags = Pool.map p (fun _ -> Pool.in_worker ()) (Array.init 32 Fun.id) in
      Alcotest.(check bool) "tasks run with the worker flag set" true
        (Array.for_all Fun.id flags));
  Alcotest.(check bool) "cleared after" false (Pool.in_worker ())

let test_nested_map_degrades () =
  Pool.with_pool ~jobs:4 (fun p ->
      let got =
        Pool.map p
          (fun x ->
            (* a nested map from inside a task must complete sequentially
               rather than deadlock on the shared queue *)
            Array.fold_left ( + ) 0 (Pool.map p (fun y -> x * y) (Array.init 5 Fun.id)))
          (Array.init 40 Fun.id)
      in
      Alcotest.(check (array int)) "nested results" (Array.init 40 (fun x -> 10 * x)) got)

let count_spans events name =
  List.fold_left
    (fun acc e ->
      match e with
      | Telemetry.Sink.Span_start { name = n; _ } when String.equal n name ->
        acc + 1
      | _ -> acc)
    0 events

let test_effective_jobs_with_sink () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "parallel without telemetry" 4 (Pool.effective_jobs p);
      let events = ref [] in
      let sink =
        Telemetry.Sink.make
          ~emit:(fun e -> events := e :: !events)
          ~flush:(fun () -> ())
      in
      Telemetry.configure ~sink ();
      Fun.protect ~finally:Telemetry.shutdown (fun () ->
          (* the flight recorder means a live sink no longer demotes *)
          Alcotest.(check int) "no demotion while tracing" 4 (Pool.effective_jobs p);
          let got =
            Pool.map p
              (fun x -> Telemetry.span "tick" (fun () -> x + 1))
              (Array.init 8 Fun.id)
          in
          Alcotest.(check (array int)) "map still correct"
            (Array.init 8 (fun x -> x + 1)) got;
          Telemetry.flush ();
          Alcotest.(check int) "every traced task reached the sink" 8
            (count_spans !events "tick"));
      Alcotest.(check int) "parallel after shutdown too" 4 (Pool.effective_jobs p))

let test_traced_map_span_parity () =
  (* same traced workload at jobs 1 and 4: the merged trace must contain
     the same span population either way *)
  let run jobs =
    let events = ref [] in
    let sink =
      Telemetry.Sink.make
        ~emit:(fun e -> events := e :: !events)
        ~flush:(fun () -> ())
    in
    Telemetry.configure ~sink ();
    Fun.protect ~finally:Telemetry.shutdown (fun () ->
        Pool.with_pool ~jobs (fun p ->
            ignore
              (Pool.map p
                 (fun x -> Telemetry.span "work" (fun () -> x * 2))
                 (Array.init 64 Fun.id)));
        Telemetry.flush ());
    List.rev !events
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "span count parity at jobs 1 vs 4"
    (count_spans seq "work") (count_spans par "work");
  Alcotest.(check int) "all 64 spans present" 64 (count_spans par "work");
  (* the merged stream is timestamp-ordered even across domains *)
  let ts = function
    | Telemetry.Sink.Span_start { ts; _ }
    | Telemetry.Sink.Span_end { ts; _ }
    | Telemetry.Sink.Point { ts; _ } ->
      Some ts
    | Telemetry.Sink.Metric _ -> None
  in
  let ordered =
    let prev = ref Float.neg_infinity in
    List.for_all
      (fun e ->
        match ts e with
        | None -> true
        | Some t ->
          let ok = t >= !prev in
          prev := t;
          ok)
      par
  in
  Alcotest.(check bool) "merged trace is timestamp-ordered" true ordered

(* ---------------- seeds ---------------- *)

let test_seeds_deterministic () =
  let a = Seeds.derive ~base_seed:99L 64 in
  let b = Seeds.derive ~base_seed:99L 64 in
  Alcotest.(check bool) "same base seed, same stream" true (a = b);
  let c = Seeds.derive ~base_seed:100L 64 in
  Alcotest.(check bool) "different base seed, different stream" true (a <> c);
  (* prefix property: deriving fewer seeds yields a prefix, so growing a
     sweep keeps earlier replications' seeds *)
  let short = Seeds.derive ~base_seed:99L 16 in
  Alcotest.(check bool) "prefix stable" true (Array.sub a 0 16 = short)

let test_seeds_distinct () =
  let a = Seeds.derive ~base_seed:7L 256 in
  let tbl = Hashtbl.create 256 in
  Array.iter (fun s -> Hashtbl.replace tbl s ()) a;
  Alcotest.(check int) "no collisions in 256 draws" 256 (Hashtbl.length tbl)

let test_seeds_invalid_and_order () =
  check_invalid "negative count" (fun () -> Seeds.derive ~base_seed:1L (-1));
  Alcotest.(check int) "zero seeds" 0 (Array.length (Seeds.derive ~base_seed:1L 0));
  (* seed i is the i-th draw of the base stream *)
  let rng = Desim.Prng.create ~seed:5L in
  Array.iteri
    (fun i seed ->
      Alcotest.(check int64)
        (Printf.sprintf "seed %d is draw %d" i i)
        (Desim.Prng.bits64 rng) seed)
    (Seeds.derive ~base_seed:5L 8)

(* ---------------- default pool and env ---------------- *)

let test_default_set_jobs () =
  let prev = Default.jobs () in
  Fun.protect
    ~finally:(fun () -> Default.set_jobs prev)
    (fun () ->
      Default.set_jobs 1;
      Alcotest.(check int) "sequential" 1 (Default.jobs ());
      Default.set_jobs 3;
      Alcotest.(check int) "explicit" 3 (Default.jobs ());
      Alcotest.(check int) "pool follows" 3 (Pool.jobs (Default.get ()));
      Default.set_jobs 0;
      Alcotest.(check int) "0 = auto" (Pool.recommended_jobs ()) (Default.jobs ());
      check_invalid "negative" (fun () -> Default.set_jobs (-1));
      Alcotest.(check (list int)) "map_list on default pool" [ 2; 3 ]
        (Default.map_list (fun x -> x + 1) [ 1; 2 ]))

let test_jobs_from_env () =
  let prev = Option.value (Sys.getenv_opt "DELTANET_JOBS") ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DELTANET_JOBS" prev)
    (fun () ->
      Unix.putenv "DELTANET_JOBS" "";
      Alcotest.(check (option int)) "empty = unset" None (Default.jobs_from_env ());
      Unix.putenv "DELTANET_JOBS" "4";
      Alcotest.(check (option int)) "parsed" (Some 4) (Default.jobs_from_env ());
      Unix.putenv "DELTANET_JOBS" " 8 ";
      Alcotest.(check (option int)) "trimmed" (Some 8) (Default.jobs_from_env ());
      Unix.putenv "DELTANET_JOBS" "0";
      Alcotest.(check (option int)) "0 = auto marker" (Some 0) (Default.jobs_from_env ());
      Unix.putenv "DELTANET_JOBS" "-2";
      Alcotest.(check (option int)) "negative rejected" None (Default.jobs_from_env ());
      Unix.putenv "DELTANET_JOBS" "many";
      Alcotest.(check (option int)) "garbage rejected" None (Default.jobs_from_env ()))

(* ---------------- QCheck properties ---------------- *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"pool map = List.map at every jobs" ~count:(Qc.count 120)
    QCheck.(pair (int_range 1 8) (list small_nat))
    (fun (jobs, xs) ->
      let f x = (x * 7919) lxor (x lsr 2) in
      Pool.with_pool ~jobs (fun p -> Pool.map_list p f xs) = List.map f xs)

let prop_replicate_stats_jobs_invariant =
  QCheck.Test.make ~name:"replication statistics invariant under jobs" ~count:(Qc.count 25)
    QCheck.(triple (int_range 2 8) (int_range 2 12) small_nat)
    (fun (jobs, runs, seed0) ->
      let base_seed = Int64.of_int (seed0 + 1) in
      let f ~seed =
        let rng = Desim.Prng.create ~seed in
        (Desim.Prng.float rng *. 100.) +. Desim.Prng.float rng
      in
      let a = Replicate.statistic_ci ~jobs:1 ~runs ~base_seed f in
      let b = Replicate.statistic_ci ~jobs ~runs ~base_seed f in
      Int64.equal (bits a.Replicate.mean) (bits b.Replicate.mean)
      && Int64.equal (bits a.Replicate.half_width95) (bits b.Replicate.half_width95)
      && a.Replicate.values = b.Replicate.values
      && a.Replicate.completed = b.Replicate.completed)

(* ---------------- determinism: replication + sweep drivers ---------------- *)

let test_replicate_bitwise_across_jobs () =
  let f ~seed =
    let rng = Desim.Prng.create ~seed in
    let acc = ref 0. in
    for _ = 1 to 50 do
      acc := !acc +. Desim.Prng.float rng
    done;
    !acc
  in
  let ref_summary = Replicate.statistic_ci ~jobs:1 ~runs:16 ~base_seed:2010L f in
  List.iter
    (fun jobs ->
      let s = Replicate.statistic_ci ~jobs ~runs:16 ~base_seed:2010L f in
      check_bitwise (Printf.sprintf "mean jobs=%d" jobs) ref_summary.Replicate.mean
        s.Replicate.mean;
      check_bitwise
        (Printf.sprintf "half width jobs=%d" jobs)
        ref_summary.Replicate.half_width95 s.Replicate.half_width95;
      Alcotest.(check bool)
        (Printf.sprintf "values jobs=%d" jobs)
        true
        (ref_summary.Replicate.values = s.Replicate.values))
    [ 2; 4; 8 ]

let test_sweep_bitwise_across_jobs () =
  (* the Fig.-3-style bound computations, in process: same bits at every
     default-pool size *)
  let compute () =
    let sc = Scenario.of_utilization ~h:3 ~u_through:0.25 ~u_cross:0.25 in
    [
      Scenario.delay_bound ~s_points:8 ~scheduler:Classes.Fifo sc;
      Scenario.delay_bound ~s_points:8 ~scheduler:Classes.Bmux sc;
      Deltanet.Additive.delay_bound_scenario ~s_points:8 sc;
    ]
  in
  let reference = with_jobs 1 compute in
  List.iter
    (fun jobs ->
      let got = with_jobs jobs compute in
      List.iteri
        (fun i v -> check_bitwise (Printf.sprintf "jobs=%d bound %d" jobs i)
            (List.nth reference i) v)
        got)
    [ 2; 4; 8 ]

let test_scaling_bitwise_across_jobs () =
  let compute () =
    let sc = Scenario.of_utilization ~h:2 ~u_through:0.2 ~u_cross:0.2 in
    Deltanet.Scaling.delay_growth ~hs:[ 2; 4 ] ~scheduler:Classes.Fifo sc
  in
  let ((pts1, e1), (pts4, e4)) = (with_jobs 1 compute, with_jobs 4 compute) in
  check_bitwise "growth exponent" e1 e4;
  List.iter2
    (fun (h1, d1) (h4, d4) ->
      check_bitwise "abscissa" h1 h4;
      check_bitwise "bound" d1 d4)
    pts1 pts4

(* ---------------- checkpoint/resume under parallel replication ------------ *)

let with_temp_checkpoint k =
  let path = Filename.temp_file "deltanet-par-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      k path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_parallel_resume_parity () =
  with_temp_checkpoint @@ fun path ->
  with_temp_checkpoint @@ fun path_clean ->
  let f ~seed =
    let rng = Desim.Prng.create ~seed in
    Desim.Prng.float rng *. 10.
  in
  (* kill a 4-job sweep partway through its second wave (waves are
     jobs * 4 = 16 replications wide), so the first wave is already
     checkpointed; the counter is shared across worker domains, so it
     must be atomic *)
  let calls = Atomic.make 0 in
  let f_killed ~seed =
    if Atomic.fetch_and_add calls 1 >= 18 then raise Sys.Break;
    f ~seed
  in
  (match Replicate.statistic_ci ~jobs:4 ~checkpoint:path ~runs:24 ~base_seed:77L f_killed with
  | _ -> Alcotest.fail "expected the simulated kill to propagate"
  | exception Sys.Break -> ());
  (* resume in parallel; compare against an uninterrupted sequential run *)
  let resumed = Replicate.statistic_ci ~jobs:4 ~checkpoint:path ~runs:24 ~base_seed:77L f in
  let clean = Replicate.statistic_ci ~jobs:1 ~checkpoint:path_clean ~runs:24 ~base_seed:77L f in
  Alcotest.(check bool) "some replications were resumed" true (resumed.Replicate.resumed > 0);
  Alcotest.(check int) "all completed" 24 resumed.Replicate.completed;
  check_bitwise "mean parity" clean.Replicate.mean resumed.Replicate.mean;
  check_bitwise "CI parity" clean.Replicate.half_width95 resumed.Replicate.half_width95;
  Alcotest.(check bool) "values parity" true
    (clean.Replicate.values = resumed.Replicate.values);
  (* single-writer, index-ordered checkpointing: the interrupted-then-
     resumed parallel file is byte-identical to the sequential one *)
  Alcotest.(check string) "checkpoint files byte-identical" (read_file path_clean)
    (read_file path)

let test_checkpoint_file_identical_across_jobs () =
  let f ~seed =
    let rng = Desim.Prng.create ~seed in
    Desim.Prng.float rng
  in
  let file_for jobs =
    with_temp_checkpoint (fun path ->
        let _ = Replicate.statistic_ci ~jobs ~checkpoint:path ~runs:12 ~base_seed:31L f in
        read_file path)
  in
  let seq = file_for 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "checkpoint bytes jobs=%d" jobs)
        seq (file_for jobs))
    [ 2; 4 ]

(* ---------------- CLI: --trace --jobs parity ---------------- *)

(* The tentpole's end-to-end check: a traced parallel sweep must produce
   the same CSV bytes as the sequential one, and the merged flight
   recorder must carry the same span population (per-name counts) in
   timestamp order — tracing no longer demotes the pool. *)
let test_cli_trace_jobs_parity () =
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let read_file path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let temp suffix = Filename.temp_file "deltanet_parity" suffix in
    let out1 = temp ".csv" and out4 = temp ".csv" in
    let m1 = temp ".jsonl" and m4 = temp ".jsonl" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ out1; out4; m1; m4 ])
      (fun () ->
        let run jobs out metrics =
          let cmd =
            Printf.sprintf
              "%s sweep utilization -H 3 --s-points 8 --jobs %d --trace \
               --metrics %s > %s 2>/dev/null"
              (Filename.quote cli) jobs (Filename.quote metrics)
              (Filename.quote out)
          in
          Alcotest.(check int)
            (Printf.sprintf "sweep --jobs %d exits 0" jobs)
            0 (Sys.command cmd)
        in
        run 1 out1 m1;
        run 4 out4 m4;
        Alcotest.(check string) "sweep CSV bytes identical across jobs"
          (read_file out1) (read_file out4);
        let lines path =
          String.split_on_char '\n' (read_file path)
          |> List.filter (fun l -> String.length l > 0)
        in
        let field_str line key =
          (* pull "key":"value" out of a JSONL line *)
          let marker = "\"" ^ key ^ "\":\"" in
          let lm = String.length marker and ll = String.length line in
          let rec find i =
            if i + lm > ll then None
            else if String.sub line i lm = marker then begin
              let start = i + lm in
              match String.index_from_opt line start '"' with
              | Some stop -> Some (String.sub line start (stop - start))
              | None -> None
            end
            else find (i + 1)
          in
          find 0
        in
        let span_counts path =
          let tbl = Hashtbl.create 32 in
          List.iter
            (fun l ->
              match (field_str l "type", field_str l "name") with
              | Some "span_start", Some name ->
                Hashtbl.replace tbl name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
              | _ -> ())
            (lines path);
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
        in
        Alcotest.(check (list (pair string int)))
          "per-name span counts identical at jobs 1 vs 4" (span_counts m1)
          (span_counts m4);
        (* the parallel trace is one merged, timestamp-ordered stream *)
        let ts_of line =
          let marker = "\"ts\":" in
          let lm = String.length marker and ll = String.length line in
          let rec find i =
            if i + lm > ll then None
            else if String.sub line i lm = marker then begin
              let start = i + lm in
              let stop = ref start in
              while
                !stop < ll
                && (match line.[!stop] with
                   | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
                   | _ -> false)
              do
                incr stop
              done;
              float_of_string_opt (String.sub line start (!stop - start))
            end
            else find (i + 1)
          in
          find 0
        in
        let stamps = List.filter_map ts_of (lines m4) in
        Alcotest.(check bool) "at least one timestamped event" true
          (stamps <> []);
        let rec ordered = function
          | a :: (b :: _ as tl) -> a <= b && ordered tl
          | _ -> true
        in
        Alcotest.(check bool) "jobs 4 trace is timestamp-ordered" true
          (ordered stamps))
  end

(* ---------------- suite ---------------- *)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map on empty input" `Quick test_map_empty;
    Alcotest.test_case "map on singleton" `Quick test_map_singleton;
    Alcotest.test_case "chunk boundaries n = jobs*k +- 1" `Quick test_map_chunk_boundaries;
    Alcotest.test_case "map bitwise across jobs" `Quick test_map_matches_across_jobs;
    Alcotest.test_case "map_list" `Quick test_map_list;
    Alcotest.test_case "task error carries index and exn" `Quick test_error_index;
    Alcotest.test_case "lowest failing index wins" `Quick test_error_lowest_index;
    Alcotest.test_case "pool reusable after failure" `Quick test_pool_reuse_after_failure;
    Alcotest.test_case "fatal exceptions unwrapped" `Quick test_fatal_not_wrapped;
    Alcotest.test_case "jobs:1 spawns no domains" `Quick test_jobs_one_no_domains;
    Alcotest.test_case "worker count" `Quick test_worker_count;
    Alcotest.test_case "create rejects jobs < 1" `Quick test_create_invalid;
    Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
    Alcotest.test_case "shutdown idempotent, then maps raise" `Quick test_shutdown_idempotent;
    Alcotest.test_case "with_pool returns and cleans up" `Quick test_with_pool_returns_and_cleans;
    Alcotest.test_case "in_worker flag" `Quick test_in_worker_flag;
    Alcotest.test_case "nested map degrades to sequential" `Quick test_nested_map_degrades;
    Alcotest.test_case "live sink no longer demotes" `Quick test_effective_jobs_with_sink;
    Alcotest.test_case "traced map span parity jobs 1 vs 4" `Quick test_traced_map_span_parity;
    Alcotest.test_case "cli: --trace --jobs 4 sweep parity" `Quick
      test_cli_trace_jobs_parity;
    Alcotest.test_case "seed derivation deterministic" `Quick test_seeds_deterministic;
    Alcotest.test_case "seeds distinct" `Quick test_seeds_distinct;
    Alcotest.test_case "seeds validation and draw order" `Quick test_seeds_invalid_and_order;
    Alcotest.test_case "default pool set_jobs" `Quick test_default_set_jobs;
    Alcotest.test_case "DELTANET_JOBS parsing" `Quick test_jobs_from_env;
    QCheck_alcotest.to_alcotest prop_map_matches_list_map;
    QCheck_alcotest.to_alcotest prop_replicate_stats_jobs_invariant;
    Alcotest.test_case "replicate bitwise across jobs" `Quick test_replicate_bitwise_across_jobs;
    Alcotest.test_case "sweep bounds bitwise across jobs" `Slow test_sweep_bitwise_across_jobs;
    Alcotest.test_case "scaling bitwise across jobs" `Slow test_scaling_bitwise_across_jobs;
    Alcotest.test_case "parallel resume parity" `Quick test_parallel_resume_parity;
    Alcotest.test_case "checkpoint bytes identical across jobs" `Quick
      test_checkpoint_file_identical_across_jobs;
  ]
