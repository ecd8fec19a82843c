(** Test entry point: aggregates all module suites. *)

let () =
  Alcotest.run "casper"
    (Test_common.suite @ Test_minijava.suite @ Test_ir.suite
   @ Test_analysis.suite @ Test_verify.suite @ Test_synth.suite
   @ Test_engine.suite @ Test_cost.suite
   @ Test_codegen.suite @ Test_baselines.suite @ Test_extensions.suite
   @ Test_workloads.suite @ Test_suites.suite @ Test_fastpath.suite
   @ Test_difftest.suite @ Test_obs.suite @ Test_par.suite
   @ Test_batch.suite @ Test_codec.suite @ Test_cache.suite
   @ Test_exec.suite @ Test_core.suite)
