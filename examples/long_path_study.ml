(* The paper's title question, end to end: does link scheduling matter on
   long paths?

   This example tracks two gaps as the path grows:
   - FIFO vs BMUX (schedulers without deadline differentiation): the gap
     closes — on long paths FIFO is as bad as being blindly multiplexed;
   - EDF vs BMUX (with differentiated deadlines): the gap persists.

   It also shows the deterministic (gamma = 0) variant computed with the
   min-plus toolbox, where the same structural story holds for worst-case
   bounds.

   Run with:  dune exec examples/long_path_study.exe *)

module Scenario = Deltanet.Scenario
module Classes = Scheduler.Classes
module Det = Deltanet.Det_e2e
module Curve = Minplus.Curve
module Delta = Scheduler.Delta

let () =
  Fmt.pr "Probabilistic bounds (U = 50%%, U0 = Uc, eps = 1e-9)@.@.";
  Fmt.pr "  %4s %10s %10s %10s %12s %12s@." "H" "BMUX(ms)" "FIFO(ms)" "EDF(ms)"
    "FIFO/BMUX" "EDF/BMUX";
  List.iter
    (fun h ->
      let sc = Scenario.of_utilization ~h ~u_through:0.25 ~u_cross:0.25 in
      let bmux = Scenario.delay_bound ~scheduler:Classes.Bmux sc in
      let fifo = Scenario.delay_bound ~scheduler:Classes.Fifo sc in
      let o =
        Scenario.delay_bound_edf_checked sc
          ~spec:{ Scenario.cross_over_through = 10. }
      in
      let edf = o.Deltanet.Diag.value.Scenario.bound in
      (* the fixed point's status, shown unless it converged *)
      Fmt.pr "  %4d %10.2f %10.2f %10.2f %11.1f%% %11.1f%%%s@." h bmux fifo edf
        (100. *. fifo /. bmux) (100. *. edf /. bmux) (Deltanet.Diag.note o.Deltanet.Diag.diag))
    [ 1; 2; 3; 5; 8; 12; 16; 24; 32 ];
  Fmt.pr
    "@.FIFO/BMUX climbs to ~100%%: without deadline differentiation, the@.\
     scheduler choice washes out on long paths.  EDF/BMUX stays well below@.\
     100%%: differentiation survives — the paper's answer to its title.@.";

  (* Deterministic variant: leaky-bucket cross traffic, worst-case bounds
     via per-node Eq.-19 leftover curves convolved with the min-plus
     toolbox. *)
  Fmt.pr "@.Deterministic bounds (leaky-bucket traffic, gamma = 0)@.@.";
  Fmt.pr "  %4s %12s %12s %12s@." "H" "SP-high(ms)" "FIFO(ms)" "BMUX(ms)";
  let through = Curve.affine ~rate:20. ~burst:30. in
  let node delta =
    { Det.capacity = 100.; cross_envelope = Curve.affine ~rate:40. ~burst:60.; delta }
  in
  List.iter
    (fun h ->
      let d delta =
        Det.delay_bound_uniform_theta
          ~nodes:(List.init h (fun _ -> node delta))
          through
      in
      Fmt.pr "  %4d %12.3f %12.3f %12.3f@." h (d Delta.Neg_inf) (d (Delta.Fin 0.))
        (d Delta.Pos_inf))
    [ 1; 2; 4; 8 ]
