package repro.sparkmips

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.core.{BruteForceMM, Matrix}
import repro.lemp.LempIndex
import repro.mf.ModelZoo
import repro.mips.SolverTestSupport
import repro.recdex.Recdex
import repro.recopt.RecOptConfig

/** Distributed serving correctness.
  *
  * The DuckDB oracle tests use integer-valued vectors so inner products are
  * exactly representable and the (score desc, item_id asc) tie-break is
  * bit-identical on both engines — the oracle then proves the whole Spark
  * path (DataFrame → partition blocks → kernel → rows) end to end.
  */
class SparkMipsSpec extends SparkSpec {

  /** Integer-valued model (coords in [-4, 4]) for exact cross-engine checks. */
  private def intModel(nu: Int, ni: Int, f: Int, seed: Long): (Matrix, Matrix) = {
    val rng = new scala.util.Random(seed)
    def mk(n: Int) = Matrix.tabulate(n, f)((_, _) => (rng.nextInt(9) - 4).toDouble)
    (mk(nu), mk(ni))
  }

  /** Flatten an embedding matrix to one column per dimension (DuckDB side). */
  private def flatDf(m: Matrix, idCol: String): DataFrame = {
    val f = m.cols
    val schema = StructType(
      StructField(idCol, LongType, nullable = false) +:
        (0 until f).map(d => StructField(s"d$d", DoubleType, nullable = false)))
    val rows = (0 until m.rows).map(r => Row.fromSeq(r.toLong +: m.row(r).toSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  private def mipsSql(f: Int, k: Int): String = {
    val dotExpr = (0 until f)
      .map(d => s"CAST(u.d$d AS DOUBLE) * CAST(i.d$d AS DOUBLE)").mkString(" + ")
    // the oracle stores every input column as VARCHAR — cast ids back to
    // BIGINT so the tie-break orders numerically, not lexicographically
    s"""
       |SELECT user_id, item_id, rank, score FROM (
       |  SELECT u.user_id AS user_id, i.item_id AS item_id,
       |         ($dotExpr) AS score,
       |         ROW_NUMBER() OVER (PARTITION BY u.user_id
       |                            ORDER BY ($dotExpr) DESC,
       |                                     CAST(i.item_id AS BIGINT) ASC) AS rank
       |  FROM users u CROSS JOIN items i
       |) WHERE rank <= $k
       |""".stripMargin
  }

  for ((label, solverF) <- Seq(
      "MM"     -> (() => new BruteForceMM(userBlock = 32)),
      "LEMP"   -> (() => new LempIndex()),
      "RECDEX" -> (() => new Recdex(numClusters = 3, blockSize = 8))))
    test(s"topKAll($label) matches the DuckDB oracle on integer vectors") {
      val (u, i) = intModel(40, 25, 4, seed = label.hashCode)
      val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 4)
      val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
      val out = SparkMips.topKAll(spark, usersDf, itemsDf, 3, solverF())
      Oracle.assertEquivalent(out, mipsSql(4, 3),
        "users" -> flatDf(u, "user_id"), "items" -> flatDf(i, "item_id"))
    }

  test("topKAll matches the local reference on continuous vectors") {
    val (u, i) = ModelZoo.tiny(120, 60, 10, seed = 83)
    val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 6)
    val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
    val out = SparkMips.topKAll(spark, usersDf, itemsDf, 5, new Recdex(3, 8))
      .collect()
      .groupBy(_.getLong(0))
    val expect = SolverTestSupport.bruteForce(u, i, 5)
    (0 until 120).foreach { uid =>
      val rows = out(uid.toLong).sortBy(_.getInt(2))
      val e = expect(uid)
      assert(rows.length == 5)
      rows.zipWithIndex.foreach { case (r, rank) =>
        assert(r.getLong(1) == e.ids(rank), s"user $uid rank $rank")
        assert(math.abs(r.getDouble(3) - e.scores(rank)) < 1e-9)
      }
    }
  }

  test("topKAll emits ranks 1..k per user") {
    val (u, i) = intModel(15, 10, 3, seed = 7)
    val out = SparkMips.topKAll(spark,
      SparkMips.toDf(spark, u, "user_id", 3),
      SparkMips.toDf(spark, i, "item_id", 1), 4, new BruteForceMM())
    val counts = out.groupBy("user_id").count().collect()
    assert(counts.length == 15)
    assert(counts.forall(_.getLong(1) == 4))
    val ranks = out.select("rank").distinct().collect().map(_.getInt(0)).sorted
    assert(ranks.toSeq == Seq(1, 2, 3, 4))
  }

  test("collectMatrix round-trips toDf") {
    val m = Matrix.randn(20, 5, seed = 31)
    val df = SparkMips.toDf(spark, m, "item_id", 2)
    val (ids, back) = SparkMips.collectMatrix(df, "item_id")
    val order = ids.zipWithIndex.sortBy(_._1).map(_._2)
    order.zipWithIndex.foreach { case (srcRow, dst) =>
      assert(back.row(srcRow).toSeq == m.row(dst).toSeq)
    }
  }

  test("topKAllWithRecOpt serves exactly and reports a valid choice") {
    val (u, i) = ModelZoo.tiny(250, 80, 8, seed = 89, concentrated = true)
    val usersDf = SparkMips.toDf(spark, u, "user_id", numPartitions = 4)
    val itemsDf = SparkMips.toDf(spark, i, "item_id", numPartitions = 1)
    val (df, report) = SparkMips.topKAllWithRecOpt(spark, usersDf, itemsDf, 3,
      Seq(new LempIndex(), new Recdex(3, 8)),
      RecOptConfig(sampleFraction = 0.1, l2CacheBytes = 1L << 10))
    assert(Seq("MM", "LEMP", "RECDEX").contains(report.chosen))
    val got = df.collect().groupBy(_.getLong(0))
    val expect = SolverTestSupport.bruteForce(u, i, 3)
    (0 until 250).foreach { uid =>
      val rows = got(uid.toLong).sortBy(_.getInt(2))
      rows.zipWithIndex.foreach { case (r, rank) =>
        assert(math.abs(r.getDouble(3) - expect(uid).scores(rank)) < 1e-9,
          s"user $uid rank $rank")
      }
    }
  }
}
