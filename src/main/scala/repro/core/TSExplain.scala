package repro.core

/** Pipeline configuration (paper defaults: m = 3, β̄ = 3, K ≤ 20, tse). */
final case class TSConfig(
    m: Int = 3,
    maxOrder: Int = 3,
    metric: VarianceMetric = VarianceMetric.Tse,
    kMax: Int = 20,
    fixedK: Option[Int] = None,
    filterRatio: Option[Double] = None,
    guessVerify: Boolean = false,
    sketch: Boolean = false,
    smoothWindow: Option[Int] = None,
) {
  require(m >= 1 && m <= Ndcg.MaxRank, s"m must be in [1, ${Ndcg.MaxRank}], got $m")
  require(kMax >= 1, s"kMax must be at least 1, got $kMax")
  filterRatio.foreach(r => require(r >= 0 && r < 1, s"filterRatio must be in [0, 1), got $r"))
  smoothWindow.foreach(w => require(w >= 1, s"smoothWindow must be at least 1, got $w"))

  def withAllOpts: TSConfig = copy(guessVerify = true, sketch = true)
}

/** Wall-clock breakdown matching Figure 15's three pipeline modules. */
final case class Timings(precomputeMs: Double, caMs: Double, ksegMs: Double) {
  def totalMs: Double = precomputeMs + caMs + ksegMs
}

/** The TSExplain pipeline (Figure 7): precompute (filter/smooth the cube) →
  * per-segment Cascading Analysts → K-Segmentation DP → elbow K → evolving
  * explanations. Optimizations O1 (guess-and-verify) and O2 (sketching) plug
  * into the CA stage and the candidate cut positions respectively.
  */
object TSExplain {

  final case class Result(
      explanation: Explanation,
      timings: Timings,
      cube: ExplCube,
      candidates: Vector[Int],
  )

  /** The per-segment top-list source of the configuration on `cube`: O1
    * guess-and-verify when `cfg.guessVerify`, plain Cascading Analysts
    * otherwise. Not thread-safe, like the solvers behind it.
    */
  def solver(cube: ExplCube, cfg: TSConfig): Segment => TopIds =
    if (cfg.guessVerify) new GuessVerify(cube, cfg.m, cfg.maxOrder).topIds
    else new CascadingAnalysts(cube, cfg.m, cfg.maxOrder).topIds

  /** Run the pipeline on `cube0`. `tops` is the only stage that varies
    * between backends: it is called once, on the smoothed and filtered cube,
    * and must return each segment's top-m list as [[solver]] would. Its
    * answers are memoized per segment; the time spent building and calling
    * it is reported as CA time.
    */
  def explain(
      cube0: ExplCube,
      cfg: TSConfig,
      tops: (ExplCube, TSConfig) => Segment => TopIds = solver,
  ): Result = {
    requireFinite(cube0)
    val t0 = System.nanoTime()
    var cube = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
    cube = cfg.filterRatio.fold(cube)(cube.filtered)
    val t1 = System.nanoTime()
    val precomputeMs = (t1 - t0) / 1e6

    val source = tops(cube, cfg)
    var caNanos = System.nanoTime() - t1
    val topCache = new java.util.HashMap[Long, TopIds]()
    val topFn: Segment => TopIds = { seg =>
      val key = (seg.i.toLong << 32) | seg.j.toLong
      val hit = topCache.get(key)
      if (hit != null) hit
      else {
        val s = System.nanoTime()
        val r = source(seg)
        caNanos += System.nanoTime() - s
        topCache.put(key, r)
        r
      }
    }

    val costs = new SegmentCosts(cube, cfg.metric, topFn)
    val candidates: Vector[Int] =
      if (cfg.sketch) Sketch.select(costs) else (0 until cube.n).toVector
    val kCap = math.min(cfg.kMax, candidates.size - 1)
    val dpRes = KSegmentation.dp(costs.cost, candidates, kCap)
    val curve = dpRes.curve
    val k = cfg.fixedK.map(k0 => math.max(1, math.min(k0, kCap))).getOrElse(Elbow.select(curve))
    val scheme = dpRes.schemes(k - 1).get
    val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, topFn(s)))
    val stageNanos = System.nanoTime() - t1
    val caMs = caNanos / 1e6
    val ksegMs = math.max(0.0, stageNanos / 1e6 - caMs)

    Result(
      Explanation(scheme, curve(k - 1), perSegment, curve.zipWithIndex.map { case (v, i) => (i + 1, v) }),
      Timings(precomputeMs, caMs, ksegMs),
      cube,
      candidates,
    )
  }

  /** NaN or ±∞ in a measure would poison every γ and cost downstream. */
  private def requireFinite(cube: ExplCube): Unit = {
    def finite(s: Array[Double]): Boolean = {
      var t = 0
      while (t < s.length && java.lang.Double.isFinite(s(t))) t += 1
      t == s.length
    }
    require(finite(cube.total), "total series holds a NaN or infinite value")
    var id = 0
    while (id < cube.epsilon) {
      require(finite(cube.series(id)), s"series of ${cube.expls(id)} holds a NaN or infinite value")
      id += 1
    }
  }
}
