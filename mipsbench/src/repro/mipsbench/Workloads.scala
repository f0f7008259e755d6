package repro.mipsbench

import repro.core.Matrix
import repro.mf.ModelZoo

/** One benchmark input: a `ModelZoo.factorModel` shape plus the K served.
  *
  * Every workload uses f = 50. The generator parameters decide which layer
  * does the work (README.md, "Workloads"); the sizes decide how long one
  * measured cycle of all five end-to-end calls takes.
  */
final case class Workload(
    name: String,
    users: Int,
    items: Int,
    k: Int,
    userClusters: Int,
    userSpread: Double,
    itemClusters: Int,
    itemSpread: Double,
    userNormSigma: Double,
    itemNormSigma: Double,
) {
  val f: Int = 50

  /** The model for `seed` with users and items divided by the given
    * divisors (1 = full size), but never below 64 of either. */
  def generate(seed: Long, userDivisor: Int, itemDivisor: Int): (Matrix, Matrix) =
    ModelZoo.factorModel(math.max(64, users / userDivisor), math.max(64, items / itemDivisor), f,
      userClusters, userSpread, itemClusters, itemSpread,
      userNormSigma, itemNormSigma, seed)
}

object Workloads {

  val all: Seq[Workload] = Seq(
    // Four tight user clusters against near-isotropic items with heavy-tailed
    // norms: RECDEX's k-means recovers the clusters on every seed, the walk
    // stops after ~400 of 2000 items (the 256-item head plus a pruned tail),
    // and RECOPT serves RECDEX. With many item clusters the walk length
    // hardly depends on where the seed puts them.
    Workload("concentrated-k10", users = 5000, items = 2000, k = 10,
      userClusters = 4, userSpread = 0.3, itemClusters = 200, itemSpread = 1.0,
      userNormSigma = 0.2, itemNormSigma = 0.5),
    // Netflix-NOMAD-f50 from ModelZoo.referenceModels: isotropic users and
    // flat item norms, so no bound prunes and GEMM and top-K do the work.
    // 16x more items than users and K = 50 give catalog-sized builds, 5x
    // larger heaps, and a 4xL2 sample floor above |U|, so RECOPT times
    // every user before serving MM.
    Workload("wide-catalog-k50", users = 500, items = 8000, k = 50,
      userClusters = 16, userSpread = 6.0, itemClusters = 16, itemSpread = 6.0,
      userNormSigma = 0.25, itemNormSigma = 0.10),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
