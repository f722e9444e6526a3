package repro.perfbench

import repro.core._
import repro.eval.Benches

/** Per-layer counters of a traced run: a sum per name, reported either per
  * pass (work) or as a mean over the queries that recorded it (sizes).
  */
final class Counts {
  private val sums = scala.collection.mutable.HashMap.empty[String, Double]
  private val records = scala.collection.mutable.HashMap.empty[String, Int]
  def add(name: String, v: Double): Unit = {
    sums(name) = sums.getOrElse(name, 0.0) + v
    records(name) = records.getOrElse(name, 0) + 1
  }
  def max(name: String, v: Double): Unit = sums(name) = math.max(sums.getOrElse(name, 0.0), v)
  def apply(name: String): Double = sums.getOrElse(name, 0.0)
  def mean(name: String): Double = records.get(name).fold(0.0)(apply(name) / _)
}

/** The explain pipeline of [[TSExplain.explain]] composed out of the same
  * public calls, with a span around each layer call and counters at each
  * boundary. The caller checks that the result equals the untraced
  * `TSExplain.explain` output, so a drift between the two shows as a failure.
  *
  * Span names: `precompute`, `ca` (one per distinct segment solved), `cost`
  * (one per distinct cost cell; hits are only counted), `sketch` (candidate
  * cuts: O2 phase I, or all positions), `dp` (final DP), `elbow`, `render`.
  */
object TracedPipeline {

  final case class Out(explanation: Explanation, cube: ExplCube, rendered: String)

  def explain(cube0: ExplCube, cfg: TSConfig, tr: Tracer, c: Counts): Out = {
    val cube = tr.span("precompute") {
      val smoothed = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
      cfg.filterRatio.fold(smoothed)(smoothed.filtered)
    }
    c.add("precompute.eps_in", cube0.epsilon)
    c.add("precompute.eps_out", cube.epsilon)

    val gv = if (cfg.guessVerify) Some(new GuessVerify(cube, cfg.m, cfg.maxOrder)) else None
    val solve: Segment => TopIds =
      gv.fold[Segment => TopIds](new CascadingAnalysts(cube, cfg.m, cfg.maxOrder).topIds)(_.topIds)
    val tops = new java.util.HashMap[Long, TopIds]()
    var caCalls = 0L
    val topFn: Segment => TopIds = { seg =>
      caCalls += 1
      val key = (seg.i.toLong << 32) | seg.j.toLong
      var t = tops.get(key)
      if (t == null) { t = tr.span("ca")(solve(seg)); tops.put(key, t) }
      t
    }

    val costs = new SegmentCosts(cube, cfg.metric, topFn)
    val n = cube.n
    // mirrors SegmentCosts' memo: a cell's first call computes, later ones hit
    val seen = new java.util.BitSet()
    var costCalls = 0L
    var cells = 0L
    val cost: (Int, Int) => Double = { (i, j) =>
      costCalls += 1
      val bit = i * n + j
      if (seen.get(bit)) costs.cost(i, j)
      else {
        seen.set(bit); cells += 1
        tr.span("cost")(costs.cost(i, j))
      }
    }

    // candidate cuts: O2 phase I as Sketch.select runs it, with the traced
    // cost function, or every position without O2
    val candidates = tr.span("sketch") {
      if (!cfg.sketch) (0 until n).toVector
      else {
        val l = Sketch.maxSegLen(n)
        val res = KSegmentation.dp(cost, (0 until n).toVector, kMax = Sketch.sketchSize(n), maxSegLen = Some(l))
        val k = res.curve.lastIndexWhere(_.isFinite) + 1
        require(k >= 1, s"sketch selection found no feasible segmentation (n=$n, L=$l)")
        c.add("sketch.max_seg_len", l)
        res.schemes(k - 1).get.cuts
      }
    }
    val sketchCalls = costCalls
    if (cfg.sketch) {
      c.add("sketch.cost_calls", sketchCalls)
      c.add("sketch.size", candidates.size)
    }

    val kCap = math.min(cfg.kMax, candidates.size - 1)
    val dpRes = tr.span("dp")(KSegmentation.dp(cost, candidates, kCap))
    c.add("dp.cost_calls", costCalls - sketchCalls)
    c.add("dp.positions", candidates.size)

    val curve = dpRes.curve
    val k = tr.span("elbow") {
      cfg.fixedK.map(k0 => math.max(1, math.min(k0, kCap))).getOrElse(Elbow.select(curve))
    }
    c.add("elbow.k", k)

    val out = tr.span("render") {
      val scheme = dpRes.schemes(k - 1).get
      val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, topFn(s)))
      val e = Explanation(scheme, curve(k - 1), perSegment, curve.zipWithIndex.map { case (v, i) => (i + 1, v) })
      Out(e, cube, Benches.renderCanonical(cube, e))
    }

    c.add("ca.calls", caCalls)
    c.add("ca.segments", tops.size)
    c.add("cost.calls", costCalls)
    c.add("cost.cells", cells)
    gv.foreach { g =>
      c.add("gv.ca_runs", g.caRuns)
      c.add("gv.segments", tops.size)
      c.max("gv.max_mbar", g.maxMBarUsed)
    }
    out
  }
}
