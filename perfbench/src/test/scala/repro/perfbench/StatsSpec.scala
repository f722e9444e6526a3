package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median averages the middle pair of an even count") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("samples beyond a nearest-rank percentile") {
    assert(Stats.beyond(100, 90) == 10)
    assert(Stats.beyond(99, 90) == 9)
    assert(Stats.beyond(109, 90) == 10)
    assert(Stats.beyond(10, 50) == 5)
  }

  test("p90 is reported only when ten samples lie beyond it") {
    val xs = (1 to 99).map(_.toDouble)
    assert(Stats.percentile(xs, 90).isEmpty, "99 samples leave 9 beyond p90")
    assert(Stats.percentile(Seq(1.0, 2.0, 3.0), 90).isEmpty)
    assert(Stats.percentile(Seq.empty, 90).isEmpty)
    val ys = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(ys, 90).contains(90.0))
    assert(ys.count(_ > 90.0) == 10)
  }

  test("the rule scales with the percentile") {
    assert(Stats.percentile((1 to 20).map(_.toDouble), 50).contains(10.0))
    assert(Stats.percentile((1 to 19).map(_.toDouble), 50).isEmpty)
    assert(Stats.percentile((1 to 999).map(_.toDouble), 99).isEmpty)
    assert(Stats.percentile((1 to 1000).map(_.toDouble), 99).contains(990.0))
  }
}
