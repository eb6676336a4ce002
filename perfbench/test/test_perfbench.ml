(* Unit tests for the benchmark's verdict helpers.  Every helper gets a
   fixture that must pass and at least one that must be caught. *)

open Perfbench
module P = Serve.Protocol

let ints n = Array.init n (fun i -> float_of_int (i + 1))

(* ---------------- percentiles ---------------- *)

let test_percentile_rank () =
  let a = ints 100 in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Check.percentile a 50);
  Alcotest.(check (float 0.)) "p1 is the minimum" 1. (Check.percentile a 1);
  Alcotest.(check (float 0.)) "p100 is the maximum" 100. (Check.percentile a 100);
  (* nearest rank: ceil(0.99 * 1001) = 991 *)
  Alcotest.(check (float 0.)) "p99 of 1..1001" 991. (Check.percentile (ints 1001) 99);
  Alcotest.(check (float 0.)) "median of one" 7. (Check.median [| 7. |]);
  Alcotest.check_raises "empty sample" (Invalid_argument "Check.percentile: empty sample")
    (fun () -> ignore (Check.percentile [||] 50));
  Alcotest.check_raises "p0" (Invalid_argument "Check.percentile: p outside [1, 100]") (fun () ->
      ignore (Check.percentile a 0))

let tail_pct n = Option.map (fun t -> (t.Check.pct, t.Check.beyond)) (Check.tail (ints n))

let test_tail_rule () =
  let t = Alcotest.(option (pair int int)) in
  Alcotest.check t "1000 samples: p99 with exactly 10 beyond" (Some (99, 10)) (tail_pct 1000);
  Alcotest.check t "capped at p99" (Some (99, 100)) (tail_pct 10_000);
  Alcotest.check t "999 samples: p99 leaves 9, so p98" (Some (98, 19)) (tail_pct 999);
  Alcotest.check t "100 samples: p90" (Some (90, 10)) (tail_pct 100);
  Alcotest.check t "216 samples: p95" (Some (95, 10)) (tail_pct 216);
  Alcotest.check t "99 samples: no tail" None (tail_pct 99);
  Alcotest.check t "empty: no tail" None (tail_pct 0);
  match Check.tail (ints 1000) with
  | Some x -> Alcotest.(check (float 0.)) "value at the rank" 990. x.Check.value
  | None -> Alcotest.fail "expected a tail"

(* ---------------- CSV golden ---------------- *)

let header = "h,u_percent,bmux_ms"
let expected = [ header; "2,20,8.46493"; "2,30,19.1828"; "2,95," ]
let rows = [ [ 2.; 20.; 8.464932 ]; [ 2.; 30.; 19.18281 ]; [ 2.; 95.; Float.infinity ] ]

let test_golden () =
  Alcotest.(check (list string)) "identical after %.6g rendering" []
    (Check.golden ~expected ~header ~rows);
  let drift = [ [ 2.; 20.; 8.46494 ]; [ 2.; 30.; 19.18281 ]; [ 2.; 95.; Float.infinity ] ] in
  Alcotest.(check int) "a last-digit drift is caught" 1
    (List.length (Check.golden ~expected ~header ~rows:drift));
  Alcotest.(check int) "a finite value where the golden is empty is caught" 1
    (List.length
       (Check.golden ~expected ~header
          ~rows:[ [ 2.; 20.; 8.464932 ]; [ 2.; 30.; 19.18281 ]; [ 2.; 95.; 1e3 ] ]));
  Alcotest.(check int) "a missing row is caught" 1
    (List.length (Check.golden ~expected ~header ~rows:(List.filteri (fun i _ -> i < 2) rows)));
  Alcotest.(check int) "an extra row is caught" 1
    (List.length (Check.golden ~expected ~header ~rows:(rows @ [ [ 5.; 20.; 1. ] ])));
  Alcotest.(check int) "a header change is caught" 1
    (List.length (Check.golden ~expected ~header:"h,u,bmux_ms" ~rows))

(* ---------------- serve responses ---------------- *)

let admit ?(mode = P.Exact) ?(hit = true) ?(elapsed = 0.013) ?(trace = "abc-000001") bound =
  P.render_admit ~trace ~admitted:(bound <= 50.) ~bound_ms:bound ~deadline_ms:50. ~mode
    ~cache_hit:hit ~elapsed_ms:elapsed ()

let decision line =
  match Check.classify line with Ok d -> d | Error e -> Alcotest.failf "unexpected failure: %s" e

let fails name line =
  match Check.classify line with
  | Ok _ -> Alcotest.failf "%s: classified as a decision" name
  | Error _ -> ()

let test_classifier () =
  let d = decision (admit 12.345678901234567) in
  Alcotest.(check bool) "bound read bit-exactly" true
    (Int64.equal (Int64.bits_of_float d.Check.bound) (Int64.bits_of_float 12.345678901234567));
  Alcotest.(check bool) "admitted" true d.Check.admitted;
  Alcotest.(check bool) "cache hit" true d.Check.cache_hit;
  Alcotest.(check bool) "a miss" false (decision (admit ~hit:false 1.)).Check.cache_hit;
  Alcotest.(check bool) "elapsed time and trace id are not compared" true
    (Check.same_decision d (decision (admit ~elapsed:99. ~trace:"zzz-000009" 12.345678901234567)));
  Alcotest.(check bool) "one ulp of bound is a different decision" false
    (Check.same_decision d (decision (admit (Float.succ 12.345678901234567))));
  Alcotest.(check bool) "hit vs miss is a different decision" false
    (Check.same_decision d (decision (admit ~hit:false 12.345678901234567)));
  fails "approx" (admit ~mode:P.Approx 12.);
  fails "shed" (P.render_shed ~retry_after_ms:3. ());
  fails "timeout" (P.render_timeout ~elapsed_ms:300. ~budget_ms:250. ());
  fails "error" (P.render_error ~kind:P.Internal ~detail:"boom" ());
  fails "unstable" (P.render_error ~kind:P.Unstable ~detail:"u >= 1" ());
  fails "not an admit" (P.render_health ~uptime_s:1. ());
  fails "garbage" "{\"status\":\"ok\"";
  fails "empty" ""

(* ---------------- work fingerprint ---------------- *)

let test_fingerprint () =
  Alcotest.(check (list string)) "matching work" []
    (Check.fingerprint [ ("cells", 690, 690); ("edf_iterations", 3088, 3088) ]);
  Alcotest.(check (list string)) "short work is caught"
    [ "work fingerprint cells: expected 690, got 345" ]
    (Check.fingerprint [ ("cells", 690, 345); ("edf_iterations", 3088, 3088) ]);
  Alcotest.(check int) "every mismatch is reported" 2
    (List.length (Check.fingerprint [ ("a", 1, 2); ("b", 3, 4); ("c", 5, 5) ]))

(* ---------------- host-speed reference ---------------- *)

(* The reference kernel must do no GC work on the program's heap. *)
let test_hostref_allocates_nothing () =
  Ledger.Hostref.kernel ();
  let w0 = Gc.minor_words () in
  Ledger.Hostref.kernel ();
  Alcotest.(check (float 0.)) "minor words per kernel run" 0. (Gc.minor_words () -. w0)

let () =
  Alcotest.run "perfbench"
    [
      ( "check",
        [
          Alcotest.test_case "percentile rank" `Quick test_percentile_rank;
          Alcotest.test_case "tail selection" `Quick test_tail_rule;
          Alcotest.test_case "csv golden" `Quick test_golden;
          Alcotest.test_case "serve classifier" `Quick test_classifier;
          Alcotest.test_case "work fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "reference kernel allocates nothing" `Quick
            test_hostref_allocates_nothing;
        ] );
    ]
