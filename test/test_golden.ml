(* Golden regression tests: pin the reproduced figure values so that
   refactorings of the analysis pipeline cannot silently change the
   reproduction.  All values were computed at the default s-grid,
   [Scenario.s_points] = 16, and epsilon = 1e-9; the tolerance allows for floating-point reassociation
   but not for algorithmic drift. *)

module S = Deltanet.Scenario
module C = Scheduler.Classes

let check name expected got =
  if Float.abs (expected -. got) > 1e-6 *. (1. +. Float.abs expected) then
    Alcotest.failf "%s drifted: expected %.10g, got %.10g" name expected got

let sc h u0 uc = S.of_utilization ~h ~u_through:u0 ~u_cross:uc
let fixed sched s = S.delay_bound ~s_points:S.s_points ~scheduler:sched s

let edf ratio s =
  (S.delay_bound_edf_checked ~s_points:S.s_points s ~spec:{ S.cross_over_through = ratio })
    .Deltanet.Diag.value.S.bound

let test_fig2_points () =
  check "fig2 H=5 U=50% BMUX" 118.237568 (fixed C.Bmux (sc 5 0.15 0.35));
  check "fig2 H=5 U=50% FIFO" 117.021627 (fixed C.Fifo (sc 5 0.15 0.35));
  check "fig2 H=5 U=50% EDF" 37.74869179 (edf 10. (sc 5 0.15 0.35));
  check "fig2 H=2 U=90% BMUX" 652.8981997 (fixed C.Bmux (sc 2 0.15 0.75));
  check "fig2 H=2 U=90% FIFO" 219.1922743 (fixed C.Fifo (sc 2 0.15 0.75))

let test_fig3_points () =
  check "fig3 H=2 mix=50% EDF-" 22.18048843 (edf 2. (sc 2 0.25 0.25))

let test_fig4_points () =
  check "fig4 H=10 U=50% BMUX" 149.7825083 (fixed C.Bmux (sc 10 0.25 0.25));
  check "fig4 H=10 U=50% additive" 1399.792984
    (Deltanet.Additive.delay_bound_scenario ~s_points:S.s_points (sc 10 0.25 0.25));
  check "fig4 H=20 U=10% FIFO" 1.790928314 (fixed C.Fifo (sc 20 0.05 0.05))

let test_shape_invariants () =
  (* The qualitative claims of the reproduction, pinned as inequalities. *)
  let fifo_over_bmux h =
    fixed C.Fifo (sc h 0.25 0.25) /. fixed C.Bmux (sc h 0.25 0.25)
  in
  Alcotest.(check bool) "FIFO/BMUX > 98% by H=5" true (fifo_over_bmux 5 > 0.98);
  Alcotest.(check bool) "FIFO/BMUX < 60% at H=1" true (fifo_over_bmux 1 < 0.6);
  let edf_over_bmux =
    edf 10. (sc 10 0.25 0.25) /. fixed C.Bmux (sc 10 0.25 0.25)
  in
  Alcotest.(check bool) "EDF keeps >30% advantage at H=10" true (edf_over_bmux < 0.7)

(* End-to-end determinism at the CLI boundary: the exact bytes a user
   sees — sweep CSVs and replication summaries — must not change with
   [--jobs].  Runs the real binary, byte-diffs the outputs. *)
let test_cli_jobs_byte_identical () =
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  let capture args =
    let out = Filename.temp_file "deltanet-jobs" ".out" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
            (Filename.quote out)
        in
        let rc = Sys.command cmd in
        if rc <> 0 then Alcotest.failf "%s exited with %d" args rc;
        let ic = open_in_bin out in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  in
  List.iter
    (fun args ->
      let seq = capture (args ^ " --jobs 1") in
      let par = capture (args ^ " --jobs 4") in
      Alcotest.(check string) (args ^ ": jobs 1 vs 4") seq par)
    [
      "sweep utilization --hops 2 --s-points 6";
      "replicate --runs 6 --slots 400 --seed 20100621";
    ]

let suite =
  [
    Alcotest.test_case "fig2 golden points" `Slow test_fig2_points;
    Alcotest.test_case "fig3 golden points" `Slow test_fig3_points;
    Alcotest.test_case "fig4 golden points" `Slow test_fig4_points;
    Alcotest.test_case "shape invariants" `Slow test_shape_invariants;
    Alcotest.test_case "CLI output byte-identical across jobs" `Slow
      test_cli_jobs_byte_identical;
  ]
