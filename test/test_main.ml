let () =
  (* The CI jobs-matrix runs this binary under DELTANET_JOBS in {1, 4};
     honouring the variable here puts the entire suite — goldens
     included — under the determinism guarantee at every pool size. *)
  (match Parallel.Default.jobs_from_env () with
  | Some n -> Parallel.Default.set_jobs n
  | None -> ());
  Alcotest.run "deltanet"
    [
      ("minplus.curve", Test_curve.suite);
      ("minplus.convolution", Test_convolution.suite);
      ("minplus.deviation", Test_deviation.suite);
      ("envelope.exponential", Test_exponential.suite);
      ("envelope.models", Test_envelope.suite);
      ("scheduler", Test_scheduler.suite);
      ("desim", Test_desim.suite);
      ("desim.parity", Test_desim_parity.suite);
      ("netsim", Test_netsim.suite);
      ("netsim.golden", Test_sim_golden.suite);
      ("deltanet.theorems", Test_core_analysis.suite);
      ("deltanet.e2e", Test_e2e.suite);
      ("deltanet.s_grid", Test_s_grid.suite);
      ("deltanet.search", Test_search.suite);
      ("deltanet.deterministic+sim", Test_det_e2e.suite);
      ("envelope.sources+output", Test_sources_output.suite);
      ("deltanet.golden", Test_golden.suite);
      ("extensions", Test_extensions.suite);
      ("deltanet.properties", Test_properties.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("robustness", Test_robustness.suite);
      ("telemetry", Test_telemetry.suite);
      ("lint", Test_lint.suite);
      ("deltanet.contracts", Test_contracts.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("report", Test_report.suite);
      ("cli.model", Test_cli_model.suite);
    ]
