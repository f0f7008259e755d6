package repro.mipsbench

import java.util.concurrent.{Executors, TimeUnit}

import org.apache.spark.sql.Row
import repro.core.{Matrix, TopKResult}

/** The correctness gate: exact top-K by brute force, computed without any
  * of the program's kernels, and the comparison every served result must
  * pass — ids in (score desc, id asc) order and scores within 1e-9.
  */
object Reference {

  val ScoreTolerance = 1e-9

  /** Exact top-K of every user. Untimed, so it uses `threads` workers. */
  def topK(users: Matrix, items: Matrix, k: Int, threads: Int): Array[TopKResult] = {
    val out = new Array[TopKResult](users.rows)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val chunk = (users.rows + threads - 1) / threads
      val tasks = (0 until users.rows by chunk).map { r0 =>
        pool.submit(new Runnable {
          def run(): Unit = {
            var r = r0
            while (r < math.min(r0 + chunk, users.rows)) { out(r) = userTopK(users, r, items, k); r += 1 }
          }
        })
      }
      tasks.foreach(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
    out
  }

  /** Insertion into a sorted array of the best K; K is at most 50 here. */
  private def userTopK(users: Matrix, r: Int, items: Matrix, k: Int): TopKResult = {
    val kk = math.min(k, items.rows)
    val ids = new Array[Int](kk)
    val scores = new Array[Double](kk)
    var n = 0
    val f = users.cols
    val uOff = users.rowOffset(r)
    var j = 0
    while (j < items.rows) {
      var s = 0.0
      val iOff = items.rowOffset(j)
      var p = 0
      while (p < f) { s += users.data(uOff + p) * items.data(iOff + p); p += 1 }
      // ids arrive ascending, so an equal score never displaces a kept one
      if (n < kk || s > scores(n - 1)) {
        var pos = if (n < kk) n else kk - 1
        while (pos > 0 && s > scores(pos - 1)) {
          scores(pos) = scores(pos - 1); ids(pos) = ids(pos - 1); pos -= 1
        }
        scores(pos) = s; ids(pos) = j
        if (n < kk) n += 1
      }
      j += 1
    }
    TopKResult(ids, scores)
  }

  def matches(got: TopKResult, want: TopKResult): Boolean =
    got != null && java.util.Arrays.equals(got.ids, want.ids) && {
      var i = 0
      while (i < want.scores.length && math.abs(got.scores(i) - want.scores(i)) <= ScoreTolerance) i += 1
      i == want.scores.length
    }

  /** Users whose served top-K differs from the reference. */
  def mismatches(got: Array[TopKResult], want: Array[TopKResult]): Int =
    if (got == null || got.length != want.length) want.length
    else want.indices.count(r => !matches(got(r), want(r)))

  /** Rebuild per-user results from collected `(user_id, item_id, rank, score)`
    * rows. Ids equal row indices in this benchmark's DataFrames. A user with
    * missing, duplicated or out-of-range ranks gets `null`. */
  def fromRows(rows: Array[Row], users: Int, k: Int): Array[TopKResult] = {
    val ids = Array.fill(users)(Array.fill(k)(-1))
    val scores = Array.fill(users)(new Array[Double](k))
    val bad = new Array[Boolean](users)
    rows.foreach { row =>
      val u = row.getLong(0).toInt
      val rank = row.getInt(2)
      if (u < 0 || u >= users || rank < 1 || rank > k || ids(u)(rank - 1) != -1) {
        if (u >= 0 && u < users) bad(u) = true
      } else {
        ids(u)(rank - 1) = row.getLong(1).toInt
        scores(u)(rank - 1) = row.getDouble(3)
      }
    }
    Array.tabulate(users) { u =>
      if (bad(u) || ids(u).contains(-1)) null else TopKResult(ids(u), scores(u))
    }
  }
}
