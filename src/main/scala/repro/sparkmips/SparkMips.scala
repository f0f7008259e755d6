package repro.sparkmips

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.{Matrix, MipsSolver}
import repro.recopt.{RecOpt, RecOptConfig, RecOptReport}

/** Batch MIPS serving on Spark — the paper's kernels as a per-partition
  * vectorized operator.
  *
  * The contribution being reproduced is a single-machine, hardware-efficient
  * kernel (blocked GEMM / RECDEX / index traversal), so the Spark layering
  * is: user embedding blocks are partitions of a DataFrame
  * `(user_id BIGINT, features ARRAY<DOUBLE>)`; the item matrix is small and
  * is broadcast together with a prepared index; `mapPartitions` then runs
  * the chosen exact solver over each user block and emits
  * `(user_id, item_id, rank, score)` rows. This keeps the vectorized batch
  * kernels intact inside each partition while Spark supplies inter-block
  * parallelism — exactly the batch-serving setting of §2.2.
  *
  * RECOPT runs on the driver: it samples users (DataFrame sample → collect),
  * times the candidate strategies locally, and only then launches the
  * distributed pass with the winning strategy.
  */
object SparkMips {

  val OutputSchema: StructType = StructType(Seq(
    StructField("user_id", LongType, nullable = false),
    StructField("item_id", LongType, nullable = false),
    StructField("rank", IntegerType, nullable = false),
    StructField("score", DoubleType, nullable = false),
  ))

  /** Matrix + row ids → DataFrame (id BIGINT, features ARRAY<DOUBLE>). */
  def toDf(spark: SparkSession, m: Matrix, idCol: String,
           numPartitions: Int = 0): DataFrame = {
    val rows = (0 until m.rows).map(r => Row(r.toLong, m.row(r).toSeq))
    val schema = StructType(Seq(
      StructField(idCol, LongType, nullable = false),
      StructField("features", ArrayType(DoubleType, containsNull = false), nullable = false)))
    val rdd0 = spark.sparkContext.parallelize(rows,
      if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism)
    spark.createDataFrame(rdd0, schema)
  }

  /** Collect an embedding DataFrame to the driver as (ids, Matrix). Use on
    * the item side only — items are the broadcast-small side. */
  def collectMatrix(df: DataFrame, idCol: String,
                    featuresCol: String = "features"): (Array[Long], Matrix) = {
    val rows = df.select(idCol, featuresCol).collect()
    require(rows.nonEmpty, "empty embedding DataFrame")
    val ids = rows.map(_.getLong(0))
    val vecs = rows.map(_.getSeq[Double](1).toArray)
    (ids, Matrix.fromRows(vecs.toIndexedSeq))
  }

  /** Distributed exact top-K for every user with a fixed strategy.
    *
    * Output: one row per (user, rank), rank 1-based, ordered within a user
    * by (score desc, item_id asc) — the repo-wide deterministic tie-break.
    */
  def topKAll(spark: SparkSession, users: DataFrame, items: DataFrame, k: Int,
              solver: MipsSolver,
              userIdCol: String = "user_id", itemIdCol: String = "item_id"): DataFrame = {
    val (itemIds, itemMatrix) = collectMatrix(items, itemIdCol)
    // prepare once on the driver; the prepared index is broadcast so every
    // partition pays query cost only (index build cost C_I is paid once)
    val prepared = solver.prepare(itemMatrix)
    val bPrepared = spark.sparkContext.broadcast(prepared)
    val bItemIds = spark.sparkContext.broadcast(itemIds)

    val out = users.select(userIdCol, "features").rdd.mapPartitions { it =>
      val batch = it.toArray
      if (batch.isEmpty) Iterator.empty
      else {
        val ids = batch.map(_.getLong(0))
        val block = Matrix.fromRows(batch.map(_.getSeq[Double](1).toArray).toIndexedSeq)
        val results = bPrepared.value.queryBatch(block, k)
        val iIds = bItemIds.value
        results.iterator.zipWithIndex.flatMap { case (res, r) =>
          res.ids.iterator.zipWithIndex.map { case (item, rank) =>
            Row(ids(r), iIds(item), rank + 1, res.scores(rank))
          }
        }
      }
    }
    spark.createDataFrame(out, OutputSchema)
  }

  /** Distributed serving with RECOPT choosing the strategy on the driver.
    *
    * The driver draws a Bernoulli sample of about [[RecOpt.sampleSize]]
    * users, collects it, runs the local estimation phase over the sample
    * alone (index builds + timed sample queries; RECDEX's user build is
    * extrapolated per user, as each partition pays its own), then launches
    * the distributed pass with the winning strategy. Returns the result
    * DataFrame and the optimizer report.
    */
  def topKAllWithRecOpt(spark: SparkSession, users: DataFrame, items: DataFrame,
                        k: Int, indexSolvers: Seq[MipsSolver],
                        cfg: RecOptConfig = RecOptConfig(),
                        userIdCol: String = "user_id", itemIdCol: String = "item_id")
      : (DataFrame, RecOptReport) = {
    val (_, itemMatrix) = collectMatrix(items, itemIdCol)
    val totalUsers = users.count().toInt

    // --- driver-side sample + estimation ---
    val fraction =
      RecOpt.sampleSize(totalUsers, itemMatrix.cols, cfg).toDouble / math.max(1, totalUsers)
    val sampleRows = users.select("features").sample(withReplacement = false, fraction, cfg.seed)
      .collect()
    val sampleUsers =
      if (sampleRows.isEmpty) Matrix.fromRows(Seq(users.select("features").head().getSeq[Double](0).toArray))
      else Matrix.fromRows(sampleRows.map(_.getSeq[Double](0).toArray).toIndexedSeq)
    val t0 = System.nanoTime()
    val est = RecOpt.estimate(sampleUsers, itemMatrix, k, indexSolvers, totalUsers, cfg)
    val estNanos = System.nanoTime() - t0

    // --- distributed pass with the winner ---
    val winnerSolver: MipsSolver =
      if (est.chosen == "MM") new repro.core.BruteForceMM()
      else indexSolvers.find(_.name == est.chosen).get
    val df = topKAll(spark, users, items, k, winnerSolver, userIdCol, itemIdCol)

    val report = RecOptReport(est.chosen, est.estimates, sampleUsers.rows, totalUsers,
      wastedNanos = estNanos, totalNanos = estNanos)
    (df, report)
  }
}
