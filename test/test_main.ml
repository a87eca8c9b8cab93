let () =
  (* Some suites drive the real cmdliner commands in-process; keep them
     from appending flight records to the user's run ledger. *)
  Unix.putenv "CHOREOGRAPHER_NO_LEDGER" "1";
  Alcotest.run "choreographer"
    [
      ("obs", Test_obs.suite);
      ("ledger", Test_ledger.suite);
      ("xml", Test_xml.suite);
      ("rates", Test_rate.suite);
      ("pepa-parser", Test_pepa_parser.suite);
      ("pepa-semantics", Test_pepa_semantics.suite);
      ("derive", Test_derive.suite);
      ("env", Test_env.suite);
      ("equivalence", Test_equivalence.suite);
      ("ctmc", Test_ctmc.suite);
      ("perf-path", Test_perf_path.suite);
      ("hot-loops", Test_hot_loops.suite);
      ("krylov", Test_krylov.suite);
      ("transient", Test_transient.suite);
      ("passage", Test_passage.suite);
      ("simulate", Test_simulate.suite);
      ("pepanet", Test_pepanet.suite);
      ("uml", Test_uml.suite);
      ("diagram-text", Test_diagram_text.suite);
      ("interactions", Test_interaction.suite);
      ("xmi", Test_xmi.suite);
      ("mdr", Test_mdr.suite);
      ("poseidon", Test_poseidon.suite);
      ("extract", Test_extract.suite);
      ("statecharts", Test_sc_extract.suite);
      ("pipeline", Test_pipeline.suite);
      ("report", Test_report.suite);
      ("query", Test_query.suite);
      ("scenarios", Test_scenarios.suite);
      ("code-mobility", Test_code_mobility.suite);
      ("properties", Test_props.suite);
      ("aggregation", Test_aggregate.suite);
      ("fluid", Test_fluid.suite);
    ("fluid-net", Test_fluid_net.suite);
      ("assets", Test_assets.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("surface", Test_surface.suite);
      ("cli-output", Test_cli_output.suite);
      (* Last: Server.run flips the process-wide telemetry switch on. *)
      ("service", Test_service.suite);
    ]
