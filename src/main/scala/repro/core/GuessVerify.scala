package repro.core

/** Optimization O1 — guess-and-verify (Section 5.3.1).
  *
  * Instead of feeding all ε candidate explanations to the CA algorithm, run
  * CA on only the m̄ explanations with the highest diff score γ (plus their
  * drill-down ancestors for connectivity), then certify optimality with the
  * Eq. 12 sufficient condition:
  *
  *   Best[m] ≥ Best[m'] + Σ_{1≤j≤m−m'} γ(E_{r_{m̄+j}})   ∀ 0 ≤ m' < m
  *
  * Any true solution splits into explanations ranked ≤ m̄ (its class-1 part
  * is upper-bounded by Best[m'], the restricted CA optimum) and explanations
  * ranked > m̄ (upper-bounded by the next m−m' scores in γ order), so when
  * the condition holds the restricted answer is globally optimal. On failure
  * m̄ doubles (Figure 9); at m̄ ≥ ε the run is the unrestricted CA and
  * trivially optimal. Results therefore always match the vanilla CA's score.
  *
  * Every guess, and the unrestricted run, goes through one
  * [[CascadingAnalysts]] instance on the parent cube: a guess is an active
  * mask over the cube's ids, so it builds no sub-cube and no fresh memo, and
  * the returned ids are the parent cube's. Not thread-safe, like the CA.
  */
final class GuessVerify(val cube: ExplCube, val m: Int, val maxOrder: Int = 3, m0: Int = -1) {
  private val initialMBar = if (m0 > 0) m0 else 10 * m
  private val eps = cube.epsilon

  /** Number of CA invocations performed (for latency accounting). */
  var caRuns: Long = 0L
  /** Largest m̄ any segment needed (diagnostics). */
  var maxMBarUsed: Int = 0

  private val ca = new CascadingAnalysts(cube, m, maxOrder)
  private val gammas = new Array[Double](eps)
  // the series time-major, so a segment's ε γ values read two rows instead
  // of two scattered points of every series
  private val byTime: Array[Array[Double]] = {
    val rows = Array.ofDim[Double](cube.n, eps)
    var id = 0
    while (id < eps) {
      val s = cube.series(id)
      var t = 0
      while (t < s.length) { rows(t)(id) = s(t); t += 1 }
      id += 1
    }
    rows
  }

  /** Top-`k` explanation ids by γ, descending — bounded min-heap selection
    * so a segment costs O(ε log k), not a full ε log ε sort.
    */
  private def topByGamma(k: Int): Array[Int] = {
    val cap = math.min(k, eps)
    val hg = new Array[Double](cap) // heap of gammas (min-heap)
    val hi = new Array[Int](cap)
    var size = 0
    def siftUp(c0: Int): Unit = {
      var c = c0
      while (c > 0 && hg((c - 1) / 2) > hg(c)) {
        val p = (c - 1) / 2
        val tg = hg(p); hg(p) = hg(c); hg(c) = tg
        val ti = hi(p); hi(p) = hi(c); hi(c) = ti
        c = p
      }
    }
    def siftDown(len: Int): Unit = {
      var c = 0
      var done = false
      while (!done) {
        val l = 2 * c + 1; val r = 2 * c + 2
        var s = c
        if (l < len && hg(l) < hg(s)) s = l
        if (r < len && hg(r) < hg(s)) s = r
        if (s == c) done = true
        else {
          val tg = hg(s); hg(s) = hg(c); hg(c) = tg
          val ti = hi(s); hi(s) = hi(c); hi(c) = ti
          c = s
        }
      }
    }
    var id = 0
    while (id < eps) {
      val g = gammas(id)
      if (size < cap) { hg(size) = g; hi(size) = id; size += 1; siftUp(size - 1) }
      else if (g > hg(0)) { hg(0) = g; hi(0) = id; siftDown(size) }
      id += 1
    }
    // pop the minimum into the last free slot: descending order
    val out = new Array[Int](size)
    var s = size
    while (s > 0) {
      out(s - 1) = hi(0)
      s -= 1
      hg(0) = hg(s); hi(0) = hi(s)
      siftDown(s)
    }
    out
  }

  /** Eq. 12 over the γ-sorted tail beyond rank m̄. Each side is a sum of at
    * most m γ values, added in different orders, so the sides are compared
    * with a slack of 2m units in the last place of the bound: rounding noise
    * at the segment's own magnitude, whatever the measure's scale.
    */
  private def certified(best: Array[Double], order: Array[Int], mBar: Int): Boolean = {
    var tailSum = 0.0
    var mp = m - 1
    while (mp >= 0) {
      val tailRank = mBar + (m - 1 - mp)
      if (tailRank < order.length) tailSum += gammas(order(tailRank))
      val bound = best(mp) + tailSum
      if (best(m) + 2 * m * math.ulp(bound) < bound) return false
      mp -= 1
    }
    true
  }

  /** Top-m via guess-and-verify; equal (in score) to the vanilla CA. */
  def topIds(seg: Segment): TopIds = {
    val from = byTime(seg.i); val to = byTime(seg.j) // γ as in cube.gamma
    var id = 0
    while (id < eps) { gammas(id) = math.abs(to(id) - from(id)); id += 1 }
    var mBar = math.min(initialMBar, eps)
    while (true) {
      caRuns += 1
      if (mBar >= eps) {
        maxMBarUsed = math.max(maxMBarUsed, eps)
        return ca.topIds(seg)
      }
      val order = topByGamma(mBar + m) // m̄ actives + the certificate tail
      val res = ca.topIds(seg, order, mBar)
      if (certified(res.best, order, mBar)) {
        maxMBarUsed = math.max(maxMBarUsed, mBar)
        return res
      }
      mBar = math.min(mBar * 2, eps)
    }
    throw new IllegalStateException("unreachable")
  }
}
