(* Quickstart: probabilistic end-to-end delay bounds for the paper's
   reference workload, comparing schedulers on a 5-hop path.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A 5-hop path of 100 Mbps links at 50% utilization: 100 through flows
     (15%) and ~233 cross flows (35%) of the paper's on-off sources. *)
  let scenario = Deltanet.Scenario.of_utilization ~h:5 ~u_through:0.15 ~u_cross:0.35 in
  let bound sched = Deltanet.Scenario.delay_bound ~scheduler:sched scenario in
  let fifo = bound Scheduler.Classes.Fifo in
  let bmux = bound Scheduler.Classes.Bmux in
  let sp = bound Scheduler.Classes.Sp_through_high in
  let edf_outcome =
    Deltanet.Scenario.delay_bound_edf_checked scenario
      ~spec:{ Deltanet.Scenario.cross_over_through = 10. }
  in
  let edf = edf_outcome.Deltanet.Diag.value in
  Fmt.pr "End-to-end delay bounds (H=5, U=50%%, eps=1e-9)@.";
  Fmt.pr "  blind multiplexing (BMUX): %7.2f ms@." bmux;
  Fmt.pr "  FIFO:                      %7.2f ms@." fifo;
  Fmt.pr "  EDF (d*_c = 10 d*_0):      %7.2f ms  (d*_0 = %.2f ms, %d iterations)%s@."
    edf.Deltanet.Scenario.bound edf.Deltanet.Scenario.d_through
    edf.Deltanet.Scenario.iterations
    (* the fixed point's status, shown unless it converged *)
    (Deltanet.Diag.note edf_outcome.Deltanet.Diag.diag);
  Fmt.pr "  SP (through high prio):    %7.2f ms@." sp;
  Fmt.pr "@.The paper's headline: FIFO approaches BMUX on long paths, while@.";
  Fmt.pr "deadline-differentiated EDF keeps a persistent advantage.@."
