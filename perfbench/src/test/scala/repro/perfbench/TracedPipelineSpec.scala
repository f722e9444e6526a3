package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}

class TracedPipelineSpec extends AnyFunSuite {

  private val configs = Seq(
    "vanilla" -> TSConfig(),
    "filter+O1" -> TSConfig(filterRatio = Some(0.001), guessVerify = true),
    "filter+O2" -> TSConfig(filterRatio = Some(0.001), sketch = true),
    "filter+O1+O2" -> TSConfig(filterRatio = Some(0.001)).withAllOpts,
    "smoothed, K=4" -> TSConfig(smoothWindow = Some(5), fixedK = Some(4)),
  )
  private val cubes = Seq(
    "synthetic" -> SyntheticGen.generate(n = 120, seed = 3).cube,
    "covid slice" -> RealWorldSim.covidDaily().cube.slice(0, 90),
  )

  for ((cubeName, cube) <- cubes; (cfgName, cfg) <- configs)
    test(s"traced pipeline equals TSExplain.explain: $cubeName, $cfgName") {
      val want = TSExplain.explain(cube, cfg)
      val tr = new Tracer
      val counts = new Counts
      val got = TracedPipeline.explain(cube, cfg, tr, counts)
      assert(got.explanation == want.explanation)
      assert(counts("cost.cells") <= counts("cost.calls"))
      assert(counts("ca.segments") <= counts("ca.calls"))
      assert(counts("sketch.cost_calls") + counts("dp.cost_calls") == counts("cost.calls"))
      val names = tr.spans.map(_.name).toSet
      assert(names.contains("dp") && names.contains("ca") && names.contains("cost"))
      assert(names.contains("sketch"))
      assert((counts("sketch.cost_calls") > 0) == cfg.sketch)
      assert(tr.spans.count(_.name == "ca") == counts("ca.segments").toInt)
      assert(tr.spans.count(_.name == "cost") == counts("cost.cells").toInt)
    }
}
