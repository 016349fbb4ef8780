let () =
  Alcotest.run "salam"
    [
      ("sim", Test_sim.suite);
      ("ir", Test_ir.suite);
      ("frontend", Test_frontend.suite);
      ("hw", Test_hw.suite);
      ("cdfg", Test_cdfg.suite);
      ("mem", Test_mem.suite);
      ("engine", Test_engine.suite);
      ("schedule", Test_schedule.suite);
      ("soc", Test_soc.suite);
      ("aladdin", Test_aladdin.suite);
      ("reference", Test_reference.suite);
      ("workloads", Test_workloads.suite);
      ("scenarios", Test_scenarios.suite);
      ("check", Test_check.suite);
      ("trace", Test_trace.suite);
      ("dma_stream", Test_dma_stream.suite);
      ("determinism", Test_determinism.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("dse", Test_dse.suite);
      ("store_shard", Test_store_shard.suite);
      ("codec", Test_codec.suite);
      ("served", Test_served.suite);
      ("config", Test_config.suite);
      ("figures", Test_figures.suite);
    ]
