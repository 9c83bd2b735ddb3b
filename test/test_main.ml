(* Test entry point: one Alcotest run aggregating all suites. *)

let () =
  Alcotest.run "dpma"
    [
      ("obs", Test_obs.suite);
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("dist", Test_dist.suite);
      ("pa", Test_pa.suite);
      ("compiled-core", Test_compiled_core.suite);
      ("lts", Test_lts.suite);
      ("parallel-build", Test_parallel_build.suite);
      ("spill", Test_spill.suite);
      ("parallel-refine", Test_parallel_refine.suite);
      ("weak-lazy", Test_weak_lazy.suite);
      ("ctmc", Test_ctmc.suite);
      ("sim", Test_sim.suite);
      ("sim-oracle", Test_sim_oracle.suite);
      ("adl", Test_adl.suite);
      ("measures", Test_measures.suite);
      ("noninterference", Test_noninterference.suite);
      ("models", Test_models.suite);
      ("family", Test_family.suite);
      ("pipeline", Test_pipeline.suite);
      ("fuzz", Test_fuzz.suite);
      ("goldens", Test_goldens.suite);
      ("producers", Test_pinned.suite);
    ]
