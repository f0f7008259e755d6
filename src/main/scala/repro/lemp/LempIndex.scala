package repro.lemp

import repro.core.{Matrix, MipsSolver, PointMips, PreparedMips, TopKHeap, TopKResult}

/** LEMP-LI — the SIGMOD 2015 / TODS 2016 baseline (Teflioudi et al.).
  *
  * Reimplementation of the retrieval variant the paper benchmarks
  * ("LEMP-LI": length-based + incremental pruning):
  *
  *  1. Items are sorted by L2 norm descending into one contiguous matrix,
  *     with suffix norms precomputed every `prefixStep` coordinates.
  *  2. A query walks the items in norm order. Once `||u|| * ||i||` cannot
  *     beat the current k-th best score, this item and every later one are
  *     pruned (length pruning — Cauchy–Schwarz).
  *  3. Every other item is scored incrementally: exact partial inner product
  *     over a prefix of coordinates plus a Cauchy–Schwarz bound from the
  *     suffix norms; when the bound falls below the heap threshold the item
  *     is abandoned (incremental pruning).
  *
  * The index is exact: pruning only discards items whose upper bound is
  * strictly below the admission threshold.
  */
final class LempIndex(val prefixStep: Int = 8) extends MipsSolver {
  override def name: String = "LEMP"

  override def prepare(items: Matrix): PreparedMips = {
    val n = items.rows
    val f = items.cols
    val norms = items.rowNorms
    // sort item ids by norm descending (stable tie-break on id for determinism)
    val order = Array.tabulate(n)(identity).sortBy(i => (-norms(i), i))
    val sorted = items.selectRows(order)
    val sortedNorms = order.map(norms)

    // suffix norms: suffix(i)(p) = ||item_i[p..f)||, precomputed at prefixStep boundaries
    val checkpoints = (prefixStep until f by prefixStep).toArray
    val suffixNorms = new Array[Array[Double]](n)
    var i = 0
    while (i < n) {
      val off = i * f
      val sn = new Array[Double](checkpoints.length)
      var cIdx = checkpoints.length - 1
      var s = 0.0
      var p = f - 1
      while (p >= 0) {
        val v = sorted.data(off + p); s += v * v
        if (cIdx >= 0 && p == checkpoints(cIdx)) { sn(cIdx) = math.sqrt(s); cIdx -= 1 }
        p -= 1
      }
      suffixNorms(i) = sn
      i += 1
    }

    new LempPrepared(sorted, sortedNorms, suffixNorms, checkpoints, order, prefixStep)
  }
}

final class LempPrepared(
    sorted: Matrix,
    sortedNorms: Array[Double],
    suffixNorms: Array[Array[Double]],
    checkpoints: Array[Int],
    originalIds: Array[Int],
    prefixStep: Int,
) extends PointMips {

  override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
    val f = sorted.cols
    val n = sorted.rows
    val uNorm = {
      var s = 0.0; var p = 0
      while (p < f) { s += user(p) * user(p); p += 1 }
      math.sqrt(s)
    }
    // user suffix norms at the same checkpoints
    val uSuffix = new Array[Double](checkpoints.length)
    locally {
      var cIdx = checkpoints.length - 1
      var s = 0.0
      var p = f - 1
      while (p >= 0) {
        s += user(p) * user(p)
        if (cIdx >= 0 && p == checkpoints(cIdx)) { uSuffix(cIdx) = math.sqrt(s); cIdx -= 1 }
        p -= 1
      }
    }

    val h = new TopKHeap(k)
    var i = 0
    var done = false
    while (i < n && !done) {
      // length pruning: items are norm-descending, so the first item whose
      // best possible score ||u|| * ||i|| cannot enter the heap prunes every
      // later item too; strict < keeps ties exact.
      if (h.isFull && uNorm * sortedNorms(i) < h.minScore) {
        done = true
      } else {
        val score = incrementalDot(user, uSuffix, i, if (h.isFull) h.minScore else Double.NegativeInfinity)
        if (!score.isNaN) h.offer(score, originalIds(i))
        i += 1
      }
    }
    h.result()
  }

  /** Incremental inner product with Cauchy–Schwarz suffix pruning.
    * Returns NaN when the item is proven to fall strictly below `threshold`.
    */
  private def incrementalDot(user: Array[Double], uSuffix: Array[Double],
                             item: Int, threshold: Double): Double = {
    val f = sorted.cols
    val off = item * f
    val sn = suffixNorms(item)
    var s = 0.0
    var p = 0
    var cIdx = 0
    while (p < f) {
      val stop = math.min(p + prefixStep, f)
      while (p < stop) { s += user(p) * sorted.data(off + p); p += 1 }
      if (p < f && cIdx < checkpoints.length && p == checkpoints(cIdx)) {
        val bound = s + uSuffix(cIdx) * sn(cIdx)
        if (bound < threshold) return Double.NaN
        cIdx += 1
      }
    }
    s
  }
}
