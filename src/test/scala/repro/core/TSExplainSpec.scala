package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.synth.SyntheticGen
import repro.eval.Metrics

class TSExplainSpec extends AnyFunSuite {

  test("end-to-end recovers the planted segmentation on a clean dataset (oracle K)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 50, seed = 5)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val d = Metrics.distancePercent(ds.truthCuts, res.explanation.scheme.interior, ds.cube.n)
    assert(d <= 2.0, s"distance percent $d too high; got ${res.explanation.scheme.interior} want ${ds.truthCuts}")
  }

  test("end-to-end stays accurate at moderate noise (SNR 35)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 35, seed = 6)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val d = Metrics.distancePercent(ds.truthCuts, res.explanation.scheme.interior, ds.cube.n)
    assert(d <= 8.0, s"distance percent $d too high")
  }

  test("elbow-selected K is close to the ground-truth K on clean data") {
    var ok = 0
    for (seed <- 1 to 5) {
      val ds = SyntheticGen.generate(n = 100, snrDb = 50, seed = seed)
      val res = TSExplain.explain(ds.cube, TSConfig(kMax = 15))
      if (math.abs(res.explanation.scheme.k - ds.k) <= 1) ok += 1
    }
    assert(ok >= 3, s"elbow matched K±1 on only $ok/5 clean datasets")
  }

  test("guess-and-verify produces exactly the vanilla result") {
    val ds = SyntheticGen.generate(n = 60, snrDb = 40, seed = 7)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val o1 = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k), guessVerify = true))
    assert(vanilla.explanation.scheme == o1.explanation.scheme)
    assert(math.abs(vanilla.explanation.totalVariance - o1.explanation.totalVariance) < 1e-9)
  }

  test("sketching approximates the vanilla variance closely (≤ a few percent)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 40, seed = 8)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val o2 = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k), sketch = true))
    val v = vanilla.explanation.totalVariance
    val s = o2.explanation.totalVariance
    assert(s >= v - 1e-9)
    assert(s <= v * 1.25 + 0.05, s"sketch variance $s vs vanilla $v")
  }

  test("O1+O2 together still match the vanilla scheme quality closely") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 40, seed = 9)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val both = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)).withAllOpts)
    assert(both.explanation.totalVariance <= vanilla.explanation.totalVariance * 1.25 + 0.05)
  }

  test("the K-variance curve is reported for every K up to the cap") {
    val ds = SyntheticGen.generate(n = 50, snrDb = 40, seed = 10)
    val res = TSExplain.explain(ds.cube, TSConfig(kMax = 12))
    assert(res.explanation.kVarianceCurve.map(_._1) == (1 to 12).toVector)
    val vars = res.explanation.kVarianceCurve.map(_._2)
    assert(vars.zip(vars.tail).forall { case (a, b) => b <= a + 1e-9 })
  }

  test("per-segment explanations cover the whole scheme and come from the CA") {
    val ds = SyntheticGen.generate(n = 60, snrDb = 40, seed = 11)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(3)))
    val e = res.explanation
    assert(e.perSegment.map(_._1) == e.scheme.segments)
    for ((seg, top) <- e.perSegment) {
      val direct = new CascadingAnalysts(res.cube, 3).topIds(seg)
      assert(top.ranked.map(_.gamma) == direct.gammas.toVector, s"segment $seg")
    }
  }

  test("filter ratio removes insignificant explanations before the pipeline") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 12)
    // add a negligible 4th slice
    val tiny = Expl.of("category" -> "tiny") -> Array.fill(40)(1e-5)
    val cube = ExplCube.fromSeries(Seq("category"), (0 until 40).map(_.toString),
      ds.cube.total, ds.cube.expls.zip(ds.cube.series).map(x => (x._1, x._2)) :+ tiny)
    val res = TSExplain.explain(cube, TSConfig(filterRatio = Some(0.001), fixedK = Some(2)))
    assert(res.cube.epsilon == 3, "the tiny slice must be filtered out")
  }

  test("smoothing is applied before explaining when configured") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 25, seed = 13)
    val res = TSExplain.explain(ds.cube, TSConfig(smoothWindow = Some(5), fixedK = Some(2)))
    assert(res.cube.total.toSeq == ds.cube.smoothed(5).total.toSeq)
  }

  test("timings are populated and non-negative") {
    val ds = SyntheticGen.generate(n = 50, snrDb = 40, seed = 14)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(3)))
    assert(res.timings.caMs >= 0 && res.timings.ksegMs >= 0 && res.timings.precomputeMs >= 0)
    assert(res.timings.totalMs > 0)
  }

  test("fixedK is clamped to the feasible range") {
    val ds = SyntheticGen.generate(n = 20, snrDb = 40, seed = 15)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(500)))
    assert(res.explanation.scheme.k == math.min(20, ds.cube.n - 1))
  }

  test("distributed-style segment count: candidates default to every position") {
    val ds = SyntheticGen.generate(n = 30, snrDb = 40, seed = 17)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(2)))
    assert(res.candidates == (0 until 30).toVector)
  }

  test("passing TSExplain.solver as the top-list source equals the default") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 18)
    for (cfg <- Seq(TSConfig(), TSConfig(fixedK = Some(3)).withAllOpts)) {
      val default = TSExplain.explain(ds.cube, cfg)
      val explicit = TSExplain.explain(ds.cube, cfg, TSExplain.solver)
      assert(explicit.explanation == default.explanation, s"$cfg")
      assert(explicit.candidates == default.candidates, s"$cfg")
    }
  }

  test("the top-list source is built once, on the smoothed and filtered cube") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 19)
    val cfg = TSConfig(smoothWindow = Some(3), filterRatio = Some(0.001), fixedK = Some(2))
    val seen = scala.collection.mutable.ArrayBuffer.empty[ExplCube]
    val res = TSExplain.explain(ds.cube, cfg, (c, cf) => { seen += c; TSExplain.solver(c, cf) })
    assert(seen.size == 1)
    assert(seen.head eq res.cube)
    assert(res.cube.total.toSeq == ds.cube.smoothed(3).total.toSeq)
  }

  private def rejects(field: String)(cfg: => TSConfig): Unit = {
    val e = intercept[IllegalArgumentException](cfg)
    assert(e.getMessage.contains(field), e.getMessage)
  }

  test("TSConfig rejects m outside [1, 64] naming the field") {
    rejects("m must")(TSConfig(m = 0))
    rejects("m must")(TSConfig(m = 65))
    assert(TSConfig(m = 64).m == 64)
  }

  test("TSConfig rejects kMax < 1 naming the field") {
    rejects("kMax")(TSConfig(kMax = 0))
  }

  test("TSConfig rejects filterRatio outside [0, 1) naming the field") {
    rejects("filterRatio")(TSConfig(filterRatio = Some(-0.1)))
    rejects("filterRatio")(TSConfig(filterRatio = Some(1.0)))
    rejects("filterRatio")(TSConfig(filterRatio = Some(Double.NaN)))
    assert(TSConfig(filterRatio = Some(0.0)).filterRatio.contains(0.0))
  }

  test("TSConfig rejects smoothWindow < 1 naming the field") {
    rejects("smoothWindow")(TSConfig(smoothWindow = Some(0)))
  }

  test("explain rejects NaN or infinite measures in the input cube") {
    val ds = SyntheticGen.generate(n = 20, snrDb = 40, seed = 20)
    def poisoned(total: Boolean, v: Double): ExplCube = {
      val c = ds.cube
      val t = c.total.clone(); val s = c.series.map(_.clone())
      if (total) t(7) = v else s(1)(7) = v
      new ExplCube(c.attrs, c.times, t, c.expls, s)
    }
    for (total <- Seq(true, false); v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](TSExplain.explain(poisoned(total, v), TSConfig(fixedK = Some(2))))
      assert(e.getMessage.contains("NaN or infinite"), e.getMessage)
      if (!total) assert(e.getMessage.contains(ds.cube.expls(1).toString), e.getMessage)
    }
  }
}
