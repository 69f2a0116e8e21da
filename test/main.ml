let () =
  Alcotest.run "barracuda"
    [
      ("vclock", Test_vclock.suite);
      ("ptx", Test_ptx.suite);
      ("cfg", Test_cfg.suite);
      ("simt", Test_simt.suite);
      ("gtrace", Test_gtrace.suite);
      ("detector", Test_detector.suite);
      ("rules", Test_rules.suite);
      ("runtime", Test_runtime.suite);
      ("instrument", Test_instrument.suite);
      ("memmodel", Test_memmodel.suite);
      ("workloads", Test_workloads.suite);
      ("bugsuite", Test_bugsuite.suite);
      ("warp_sweep", Test_warp_sweep.suite);
      ("dims", Test_dims.suite);
      ("session", Test_session.suite);
      ("stream", Test_stream.suite);
      ("telemetry", Test_telemetry.suite);
      ("predict", Test_predict.suite);
      ("service", Test_service.suite);
      ("fault", Test_fault.suite);
      ("shard", Test_shard.suite);
      ("static", Test_static.suite);
      ("repair", Test_repair.suite);
      ("fleet", Test_fleet.suite);
    ]
