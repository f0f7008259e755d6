package repro.mipsbench

import dev.ludovic.netlib.blas.BLAS
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster.KMeans
import repro.core.{BruteForceMM, Gemm, Matrix, TopK, TopKResult}
import repro.harness.Sweep
import repro.recdex.{Recdex, RecdexPrepared}
import repro.recopt.{RecOpt, RecOptConfig}
import repro.sparkmips.SparkMips

/** Per-layer numbers for the traced run. Each layer is replayed through its
  * public calls, with a span around every call; nothing inside the program
  * is instrumented. Results the replays produce are checked through `e2e`
  * like the end-to-end ones. */
final class Layers(
    spark: SparkSession,
    users: Matrix,
    items: Matrix,
    usersDf: DataFrame,
    itemsDf: DataFrame,
    k: Int,
    e2e: EndToEnd,
) {
  private val blas = BLAS.getInstance()

  /** The netlib implementation that loaded (`VectorBLAS`, `Java11BLAS`, ...). */
  val blasImpl: String = blas.getClass.getSimpleName

  /** Replays every layer once inside `tracer`'s current span and returns
    * the layer metrics that spans alone do not give. */
  def replay(tracer: Tracer, cycle: EndToEnd.Cycle): Map[String, Double] =
    mm(tracer) ++ recdex(tracer) ++ recopt(tracer, cycle) ++ sparkFixed(tracer, cycle)

  /** BruteForceMM's strips: the tiled GEMM, the heap extraction, and netlib
    * dgemm on the same strip as the reference line. */
  private def mm(tracer: Tracer): Map[String, Double] = tracer.span("layer.mm") {
    val strip = new BruteForceMM().userBlock
    val out = new Array[TopKResult](users.rows)
    var r0 = 0
    while (r0 < users.rows) {
      val r1 = math.min(r0 + strip, users.rows)
      val block = users.sliceRows(r0, r1)
      val scores = tracer.span("core.gemm") { Gemm.abt(block, items) }
      tracer.span("core.topk") {
        var r = 0
        while (r < scores.rows) { out(r0 + r) = TopK.ofMatrixRow(scores, r, k); r += 1 }
      }
      tracer.span("core.gemm.ref_blas") { blasAbt(block) }
      r0 = r1
    }
    e2e.check(out)
    Map(
      "core.mm.score_strip_bytes" -> strip.toDouble * items.rows * 8,
      "core.gemm.ref_blas_vector" -> (if (blasImpl == "VectorBLAS") 1.0 else 0.0),
    )
  }

  /** Row-major C = A * B^T through column-major dgemm: C^T = B * A^T. */
  private def blasAbt(a: Matrix): Array[Double] = {
    val n = items.rows; val f = items.cols
    val c = new Array[Double](a.rows * n)
    blas.dgemm("T", "N", n, a.rows, f, 1.0, items.data, f, a.data, f, 0.0, c, n)
    c
  }

  /** RECDEX with the same parameters `Sweep` gives it: k-means, the user
    * index build, and the walk with and without the blocked head. */
  private def recdex(tracer: Tracer): Map[String, Double] = tracer.span("layer.recdex") {
    val solver = Sweep.solverByName("RECDEX").asInstanceOf[Recdex]
    val prepared = solver.prepare(items).asInstanceOf[RecdexPrepared]
    val km = tracer.span("cluster.kmeans") {
      KMeans.fit(users, math.min(solver.numClusters, users.rows), solver.kmeansSeed, solver.kmeansMaxIter)
    }
    val index = tracer.span("recdex.build_user_index") { prepared.buildUserIndexImpl(users) }
    e2e.check(tracer.span("recdex.walk") { index.queryAllLesion(k, shareBlocked = true) })
    e2e.check(tracer.span("recdex.walk_unblocked") { index.queryAllLesion(k, shareBlocked = false) })
    val (_, visited) = index.queryAllCounting(k, shareBlocked = true)
    Map(
      "cluster.kmeans_iterations" -> km.iterations.toDouble,
      "recdex.items_visited_per_user" -> visited,
    )
  }

  /** RECOPT's estimation phase on the sample `serveAll` draws, plus how its
    * choice and report compare with this cycle's measured times. */
  private def recopt(tracer: Tracer, cycle: EndToEnd.Cycle): Map[String, Double] =
    tracer.span("layer.recopt") {
      val cfg = RecOptConfig()
      val sampleIdx = RecOpt.sampleIndices(users.rows, users.cols, cfg)
      val sample = users.selectRows(sampleIdx)
      tracer.span("recopt.estimate") {
        RecOpt.estimate(sample, items, k, EndToEnd.recoptIndexes(), users.rows, cfg,
          fullUsers = Some(users), sampleIdx = Some(sampleIdx))
      }
      val report = cycle.recoptReport
      val chosenS = cycle.fixed(report.chosen)
      val fastest = cycle.fixed.minBy { case (name, s) => (s, name) }._1
      Map(
        "recopt.sample_users" -> report.sampleSize.toDouble,
        "recopt.sample_frac" -> report.sampleSize.toDouble / report.totalUsers,
        "recopt.overhead_s" -> (cycle.recoptS - chosenS),
        "recopt.chosen" -> EndToEnd.FixedStrategies.indexOf(report.chosen).toDouble,
        "recopt.chose_fastest" -> (if (report.chosen == fastest) 1.0 else 0.0),
        "recopt.est_over_actual" -> report.estimates.find(_.name == report.chosen).get.estTotalNanos / 1e9 / chosenS,
        "recopt.lemp_users_timed" -> report.estimates.find(_.name == "LEMP").get.usersTimed.toDouble,
        "recopt.report_total_over_measured" -> report.totalNanos / 1e9 / cycle.recoptS,
        "sparkmips.report_total_over_measured" -> cycle.sparkReport.totalNanos / 1e9 / cycle.sparkS,
      )
    }

  /** The Spark pieces the RECOPT call hides: collecting the items, and the
    * distributed pass of the chosen strategy on its own. */
  private def sparkFixed(tracer: Tracer, cycle: EndToEnd.Cycle): Map[String, Double] =
    tracer.span("layer.spark") {
      tracer.span("sparkmips.collect_items") { SparkMips.collectMatrix(itemsDf, "item_id") }
      val rows = tracer.span("sparkmips.fixed_pass") {
        SparkMips.topKAll(spark, usersDf, itemsDf, k, Sweep.solverByName(cycle.sparkReport.chosen)).count()
      }
      Map("sparkmips.rows_out" -> rows.toDouble)
    }
}
