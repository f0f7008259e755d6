package repro.mipsbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Matrix, MipsSolver, TopKResult}
import repro.harness.Sweep
import repro.recopt.{RecOpt, RecOptReport}
import repro.sparkmips.SparkMips

/** The five end-to-end calls a user of the system makes, each timed from
  * its first call to its last result and checked against the reference.
  * Every strategy comes fresh from `Sweep.solverByName`, and RECOPT gets
  * MM + LEMP + RECDEX with the default `RecOptConfig`. */
final class EndToEnd(
    spark: SparkSession,
    users: Matrix,
    items: Matrix,
    usersDf: DataFrame,
    itemsDf: DataFrame,
    k: Int,
    reference: Array[TopKResult],
) {
  import EndToEnd._

  /** Users whose results were compared with the reference, and how many of
    * them differed. */
  var attempted = 0L
  var failed = 0L
  private var sparkVerified = Set.empty[String]

  /** Counts `results` against the reference. */
  def check(results: Array[TopKResult]): Unit = {
    attempted += reference.length
    failed += Reference.mismatches(results, reference)
  }

  /** One timed call of every end-to-end path, after a full collection so
    * that garbage from earlier cycles is not charged to this one. */
  def cycle(tracer: Tracer): Cycle = {
    System.gc()
    val fixed = FixedStrategies.map(name => name -> fixedStrategy(name, tracer)).toMap
    val (recoptS, recoptReport) = recopt(tracer)
    val (sparkS, sparkReport) = sparkRecopt(tracer)
    Cycle(fixed, recoptS, recoptReport, sparkS, sparkReport)
  }

  private def fixedStrategy(name: String, tracer: Tracer): Double = {
    val key = name.toLowerCase
    val (res, secs) = timed(tracer, s"e2e.$key") {
      val prepared = tracer.span(s"$key.prepare") { Sweep.solverByName(name).prepare(items) }
      tracer.span(s"$key.query") { prepared.queryBatch(users, k) }
    }
    check(res)
    secs
  }

  private def recopt(tracer: Tracer): (Double, RecOptReport) = {
    val ((res, report), secs) = timed(tracer, "e2e.recopt") {
      RecOpt.serveAll(users, items, k, recoptIndexes())
    }
    check(res)
    (secs, report)
  }

  /** From the cached users DataFrame to counted result rows. The rows are
    * collected and checked, untimed, the first time each strategy serves. */
  private def sparkRecopt(tracer: Tracer): (Double, RecOptReport) = {
    val ((df, report, rows), secs) = timed(tracer, "e2e.spark_recopt") {
      val (df, report) = tracer.span("sparkmips.recopt_driver") {
        SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, k, recoptIndexes())
      }
      val rows = tracer.span("sparkmips.pass") { df.count() }
      (df, report, rows)
    }
    val perUser = reference.head.size
    if (rows != reference.length.toLong * perUser) {
      attempted += reference.length
      failed += reference.length
    } else if (!sparkVerified(report.chosen)) {
      check(Reference.fromRows(df.collect(), reference.length, perUser))
      sparkVerified += report.chosen
    }
    (secs, report)
  }
}

object EndToEnd {

  val FixedStrategies: Seq[String] = Seq("MM", "LEMP", "RECDEX")

  /** Names of the end-to-end metrics' calls, in the order a cycle runs them. */
  val Calls: Seq[String] = FixedStrategies.map(_.toLowerCase) ++ Seq("recopt", "spark_recopt")

  def recoptIndexes(): Seq[MipsSolver] = Seq(Sweep.solverByName("LEMP"), Sweep.solverByName("RECDEX"))

  /** Wall-clock seconds of `body`, recorded as span `name`. */
  def timed[A](tracer: Tracer, name: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = tracer.span(name)(body)
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Seconds per call of one cycle, plus RECOPT's reports. */
  final case class Cycle(
      fixed: Map[String, Double],
      recoptS: Double,
      recoptReport: RecOptReport,
      sparkS: Double,
      sparkReport: RecOptReport,
  ) {
    def seconds(call: String): Double = call match {
      case "recopt"       => recoptS
      case "spark_recopt" => sparkS
      case other          => fixed(other.toUpperCase)
    }
    def totalS: Double = Calls.map(seconds).sum
  }
}
