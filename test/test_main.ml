let () =
  Alcotest.run "wireless-expanders"
    [
      ("rng", Test_rng.suite);
      ("bitset", Test_bitset.suite);
      ("stats", Test_stats.suite);
      ("util-misc", Test_util_misc.suite);
      ("graph", Test_graph.suite);
      ("bipartite", Test_bipartite.suite);
      ("traversal", Test_traversal.suite);
      ("arboricity", Test_arboricity.suite);
      ("spectral", Test_spectral.suite);
      ("nbhd", Test_nbhd.suite);
      ("inc", Test_inc.suite);
      ("measure", Test_measure.suite);
      ("bounds", Test_bounds.suite);
      ("spokesmen", Test_spokesmen.suite);
      ("section4", Test_section4.suite);
      ("constructions", Test_constructions.suite);
      ("radio", Test_radio.suite);
      ("sim-csr", Test_sim_csr.suite);
      ("theorems", Test_theorems.suite);
      ("flow", Test_flow.suite);
      ("solvers-ext", Test_solvers_ext.suite);
      ("extensions", Test_extensions.suite);
      ("connectivity", Test_connectivity.suite);
      ("properties", Test_properties.suite);
      ("certificate", Test_certificate.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("memgc", Test_memgc.suite);
      ("report", Test_report.suite);
      ("ledger", Test_ledger.suite);
      ("par", Test_par.suite);
      ("prune", Test_prune.suite);
      ("expose", Test_expose.suite);
    ]
