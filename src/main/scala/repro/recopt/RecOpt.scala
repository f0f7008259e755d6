package repro.recopt

import repro.core.{BruteForceMM, Matrix, MipsSolver, PointMips, TopKResult, UserIndex}
import repro.stats.TTest

/** Configuration for the RECOPT online optimizer (§4).
  *
  * @param sampleFraction fraction of users to time each strategy on (paper
  *                       uses 0.5–1%)
  * @param l2CacheBytes   assumed L2 cache size; the MM sample is grown until
  *                       the user block occupies at least 4x this (§4.1)
  * @param seed           PRNG seed for the user sample
  * @param tTestAlpha     p-value threshold for early stopping on point-query
  *                       indexes
  * @param minTTestUsers  users to time before the first t-test is attempted
  */
final case class RecOptConfig(
    sampleFraction: Double = 0.01,
    l2CacheBytes: Long = 1L << 20,
    seed: Long = 7,
    tTestAlpha: Double = 0.05,
    minTTestUsers: Int = 16,
)

/** Per-strategy runtime estimate produced from the sample. */
final case class StrategyEstimate(
    name: String,
    buildNanos: Long,
    perUserNanos: Double,
    usersTimed: Int,
    estTotalNanos: Double,
)

/** Everything the estimation phase produced: the estimates, the decision,
  * and — so the serve phase can reuse work — every strategy bound to the
  * estimated population, plus whatever sample results each strategy already
  * computed (row-aligned with the sample; entries may be null where the
  * t-test stopped early). */
final class EstimateOutcome(
    val estimates: Seq[StrategyEstimate],
    val chosen: String,
    val userIndexes: Map[String, UserIndex],
    val sampleResults: Map[String, Array[TopKResult]],
)

/** What RECOPT decided and what it cost to decide. */
final case class RecOptReport(
    chosen: String,
    estimates: Seq[StrategyEstimate],
    sampleSize: Int,
    totalUsers: Int,
    /** wall-clock spent on optimization that did NOT produce reused results
      * (losing strategies' builds + sample queries) */
    wastedNanos: Long,
    /** end-to-end wall-clock including optimization */
    totalNanos: Long,
)

/** RECOPT — the sampling-based MIPS serving optimizer (§4.1).
  *
  * Pipeline: (1) build every candidate index in full (construction is cheap
  * relative to traversal — Fig. 2); (2) time blocked MM on a random user
  * sample big enough to exhibit cache-blocking behaviour (≥ 4x L2);
  * (3) time each index on the sample — per-user with t-test early stopping
  * for point-query indexes ([[PointMips]]), whole-sample for the rest; (4)
  * extrapolate each strategy's total runtime, pick the minimum, serve the
  * remaining users with the winner's user index and reuse the winner's
  * sampled results.
  */
object RecOpt {

  /** Pure decision kernel: pick the strategy with the lowest estimated total
    * runtime (deterministic tie-break on name). Split out so decision logic
    * is testable without a wall clock. */
  def decide(estimates: Seq[StrategyEstimate]): StrategyEstimate = {
    require(estimates.nonEmpty, "no strategies to decide between")
    estimates.minBy(e => (e.estTotalNanos, e.name))
  }

  /** Minimum sample size such that the user block occupies >= 4x L2 (§4.1). */
  def minSampleForCache(f: Int, l2CacheBytes: Long): Int =
    math.max(1, math.ceil(4.0 * l2CacheBytes / (f.toLong * 8)).toInt)

  /** The §4.1 sample size: `sampleFraction` of the users, but never below
    * the cache-occupancy floor and never above the population. */
  def sampleSize(totalUsers: Int, f: Int, cfg: RecOptConfig): Int = {
    val target = math.max(
      math.ceil(totalUsers * cfg.sampleFraction).toInt,
      math.min(totalUsers, minSampleForCache(f, cfg.l2CacheBytes)))
    math.min(totalUsers, math.max(1, target))
  }

  /** Pick the user sample of [[sampleSize]] users. Returns sorted row
    * indices. */
  def sampleIndices(totalUsers: Int, f: Int, cfg: RecOptConfig): Array[Int] = {
    val rng = new scala.util.Random(cfg.seed)
    rng.shuffle((0 until totalUsers).toVector).take(sampleSize(totalUsers, f, cfg))
      .sorted.toArray
  }

  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }

  /** Estimation phase: build every candidate, time it on the sample, decide.
    * `totalUsers` is the population the per-user costs extrapolate to (it
    * may exceed `sampleUsers.rows` when called from the Spark driver).
    *
    * Every strategy is bound (`buildUserIndex`) to the population
    * `fullUsers`, or to the sample alone when it is not given, and the
    * sample is rows `sampleIdx` of that population. The strategy's type
    * picks one of two timing paths:
    *  - batch (MM and every strategy that is not a [[PointMips]]): build the
    *    user index, then time one `querySubset` over the whole sample —
    *    per-user timing would hide the cache effects batch strategies depend
    *    on (§4.1). The user build is extrapolated per user: over the full
    *    population (the local path) it is paid once, as §4.2's C_I; over
    *    the sample (the Spark driver, where each partition builds its own
    *    index) it scales to `totalUsers`.
    *  - t-test ([[PointMips]]): time `query` user by user, stopping once a
    *    one-sample t-test separates the mean from MM's per-user cost.
    * The returned user indexes serve the users outside the sample. */
  def estimate(sampleUsers: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver], totalUsers: Int,
               cfg: RecOptConfig = RecOptConfig(),
               fullUsers: Option[Matrix] = None,
               sampleIdx: Option[Array[Int]] = None): EstimateOutcome = {
    require(fullUsers.isDefined == sampleIdx.isDefined,
      "fullUsers and sampleIdx must be given together")
    val population = fullUsers.getOrElse(sampleUsers)
    val rows = sampleIdx.getOrElse(Array.range(0, sampleUsers.rows))
    val sampleSize = rows.length

    def timeBatch(userIndex: UserIndex): (Array[TopKResult], Double) = {
      val (res, nanos) = timed(userIndex.querySubset(rows, k))
      (res, nanos.toDouble / sampleSize)
    }
    def estimateOf(name: String, buildNanos: Long, perUser: Double, usersTimed: Int) =
      StrategyEstimate(name, buildNanos, perUser, usersTimed, buildNanos + perUser * totalUsers)

    // MM is the t-test's reference; binding it to the population is free
    val mmIndex = new BruteForceMM().prepare(items).buildUserIndex(population)
    val (mmResults, mmPerUser) = timeBatch(mmIndex)
    val mmEstimate = estimateOf("MM", 0L, mmPerUser, sampleSize)

    var userIndexes = Map("MM" -> mmIndex)
    var sampleRes = Map("MM" -> mmResults)

    val indexEstimates = indexSolvers.map { solver =>
      val (prep, itemBuildNanos) = timed(solver.prepare(items))
      prep match {
        case point: PointMips =>
          val res = new Array[TopKResult](sampleSize)
          val times = new scala.collection.mutable.ArrayBuffer[Double](sampleSize)
          var i = 0
          var stopped = false
          while (i < sampleSize && !stopped) {
            val u = sampleUsers.row(i)
            val qs = System.nanoTime()
            res(i) = point.query(u, i, k)
            times += (System.nanoTime() - qs).toDouble
            i += 1
            if (i >= cfg.minTTestUsers && i < sampleSize) {
              val p = TTest.oneSamplePValue(times.toIndexedSeq, mmPerUser)
              if (p < cfg.tTestAlpha) stopped = true
            }
          }
          userIndexes += solver.name -> point.buildUserIndex(population)
          sampleRes += solver.name -> res
          estimateOf(solver.name, itemBuildNanos, times.sum / times.length, times.length)
        case _ =>
          val (userIndex, userBuildNanos) = timed(prep.buildUserIndex(population))
          val (res, perUser) = timeBatch(userIndex)
          userIndexes += solver.name -> userIndex
          sampleRes += solver.name -> res
          estimateOf(solver.name, itemBuildNanos + userBuildNanos * totalUsers / population.rows,
            perUser, sampleSize)
      }
    }

    val all = mmEstimate +: indexEstimates
    new EstimateOutcome(all, decide(all).name, userIndexes, sampleRes)
  }

  /** Serve exact top-K for every user, choosing between blocked MM and the
    * given index solvers. Returns per-user results (row-aligned with
    * `users`) plus the optimizer report. */
  def serveAll(users: Matrix, items: Matrix, k: Int,
               indexSolvers: Seq[MipsSolver],
               cfg: RecOptConfig = RecOptConfig()): (Array[TopKResult], RecOptReport) = {
    val t0 = System.nanoTime()
    val n = users.rows
    val sampleIdx = sampleIndices(n, users.cols, cfg)
    val sampleUsers = users.selectRows(sampleIdx)

    val est = estimate(sampleUsers, items, k, indexSolvers, n, cfg,
      fullUsers = Some(users), sampleIdx = Some(sampleIdx))

    // --- serve the remaining users with the winner, reusing sample results ---
    val out = new Array[TopKResult](n)
    val winnerSample = est.sampleResults(est.chosen)
    var i = 0
    while (i < sampleIdx.length) {
      if (winnerSample(i) != null) out(sampleIdx(i)) = winnerSample(i)
      i += 1
    }
    val remainingIdx = (0 until n).filter(out(_) == null).toArray
    if (remainingIdx.nonEmpty) {
      val remRes = est.userIndexes(est.chosen).querySubset(remainingIdx, k)
      var j = 0
      while (j < remainingIdx.length) { out(remainingIdx(j)) = remRes(j); j += 1 }
    }

    val totalNanos = System.nanoTime() - t0
    val wasted = est.estimates.filter(_.name != est.chosen)
      .map(e => e.buildNanos + (e.perUserNanos * e.usersTimed).toLong).sum

    (out, RecOptReport(est.chosen, est.estimates, sampleIdx.length, n, wasted, totalNanos))
  }
}
