package repro.core

/** A prepared (built) MIPS index or execution strategy over a fixed item set.
  *
  * `queryBatch` serves a block of users at once (the batch setting; the
  * blocked strategies — brute-force MM and RECDEX's shared head — only reach
  * full hardware efficiency here). Strategies that also answer one user at a
  * time are [[PointMips]].
  *
  * All implementations are EXACT: `queryBatch(u, k)` must equal brute force
  * up to floating-point rotation error (tested in `ExactnessSpec`).
  */
trait PreparedMips extends Serializable {
  /** Exact top-K for every row of `users`; result i corresponds to row i. */
  def queryBatch(users: Matrix, k: Int): Array[TopKResult]

  /** Binds this strategy to one fixed user matrix. By default that costs
    * nothing and each subset is served by `queryBatch` on the selected rows;
    * RECDEX overrides it with its user-side index build (k-means plus the
    * per-cluster sorted lists), the construction cost C_I of §4.2. */
  def buildUserIndex(users: Matrix): UserIndex = new UserIndex {
    override def querySubset(rows: Array[Int], k: Int): Array[TopKResult] =
      queryBatch(users.selectRows(rows), k)
  }
}

/** A point-query strategy (LEMP, FEXIPRO): it answers one user at a time
  * and serves a batch user by user. RECOPT times these per user with its
  * t-test early stop (§4.1). */
trait PointMips extends PreparedMips {
  /** Exact top-K for a single user vector. */
  def query(user: Array[Double], userId: Int, k: Int): TopKResult

  override def queryBatch(users: Matrix, k: Int): Array[TopKResult] = {
    val out = new Array[TopKResult](users.rows)
    var r = 0
    while (r < users.rows) { out(r) = query(users.row(r), r, k); r += 1 }
    out
  }
}

/** A MIPS serving strategy: builds a [[PreparedMips]] from the item matrix.
  *
  * `prepare` carries all item-side index-construction cost (C_I in the
  * paper's §4.2); RECOPT measures it separately from query cost.
  */
trait MipsSolver extends Serializable {
  def name: String
  def prepare(items: Matrix): PreparedMips
}

/** A user-side index built for one fixed user matrix. */
trait UserIndex extends Serializable {
  /** Exact top-K for a subset of the indexed users; result i corresponds to
    * `rows(i)` (row indices into the matrix the index was built over). */
  def querySubset(rows: Array[Int], k: Int): Array[TopKResult]
}
