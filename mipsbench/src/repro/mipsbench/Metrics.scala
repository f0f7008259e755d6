package repro.mipsbench

/** Every reported metric with its unit; `BENCHMARK.json` lists the same. */
object Metrics {

  val endToEnd: Seq[(String, String)] =
    EndToEnd.Calls.map(call => s"${call}_users_per_s" -> "users/s") ++ Seq(
      "setup_s" -> "s",
      "match_frac" -> "fraction",
    )

  val perLayer: Seq[(String, String)] = Seq(
    "core.gemm.gflops" -> "GFLOP/s",
    "core.gemm.ref_blas_gflops" -> "GFLOP/s",
    "core.gemm.ref_blas_vector" -> "bool",
    "core.gemm.flops" -> "count",
    "core.mm.gemm_s" -> "s",
    "core.mm.score_strip_bytes" -> "bytes",
    "core.topk.ns_per_score" -> "ns",
    "core.mm.topk_s" -> "s",
    "cluster.kmeans_s" -> "s",
    "cluster.kmeans_iterations" -> "count",
    "recdex.build_user_index_s" -> "s",
    "recdex.walk_s" -> "s",
    "recdex.walk_unblocked_s" -> "s",
    "recdex.items_visited_per_user" -> "count",
    "lemp.prepare_s" -> "s",
    "lemp.query_s" -> "s",
    "recopt.sample_users" -> "count",
    "recopt.sample_frac" -> "fraction",
    "recopt.estimate_s" -> "s",
    "recopt.overhead_s" -> "s",
    "recopt.chosen" -> "index",
    "recopt.chose_fastest" -> "bool",
    "recopt.est_over_actual" -> "ratio",
    "recopt.lemp_users_timed" -> "count",
    "recopt.report_total_over_measured" -> "ratio",
    "sparkmips.collect_items_s" -> "s",
    "sparkmips.recopt_driver_s" -> "s",
    "sparkmips.pass_s" -> "s",
    "sparkmips.fixed_pass_s" -> "s",
    "sparkmips.rows_out" -> "count",
    "sparkmips.report_total_over_measured" -> "ratio",
    "trace.overhead_s" -> "s",
    "trace.spans" -> "count",
  )

  /** The result line. `correct` needs at least one checked user and no
    * mismatch. */
  def result(attempted: Long, failed: Long, values: Map[String, Double],
             declared: Seq[(String, String)]): String = {
    val names = declared.map(_._1)
    require(values.keySet == names.toSet,
      s"metrics differ from the declared list: ${(values.keySet diff names.toSet) ++ (names.toSet diff values.keySet)}")
    val metrics = declared.map { case (name, unit) =>
      s"""${Json.str(name)}:{"value":${Json.num(values(name))},"unit":${Json.str(unit)}}"""
    }
    s"""{"correct":${attempted > 0 && failed == 0},"attempted":$attempted,"failed":$failed,""" +
      metrics.mkString("\"metrics\":{", ",", "}}")
  }
}
