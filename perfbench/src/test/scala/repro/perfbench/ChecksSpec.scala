package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class ChecksSpec extends AnyFunSuite {

  private val answer = Record(
    Vector(0, 40, 90, 120),
    Vector(
      Vector("state=New York +", "state=New Jersey +", "state=Massachusetts +"),
      Vector("state=New York -", "state=New Jersey -", "state=California +"),
      Vector("state=Florida +", "state=Texas +", "state=California +"),
    ),
    47.2247817262952,
  )
  private val golden = Golden(0L, 1e-6, Map("q" -> answer))

  test("an identical answer passes, and the golden file round-trips") {
    assert(golden.diff("q", answer).isEmpty)
    assert(Golden.parse(golden.toJson) == golden)
  }

  test("one perturbed cell is rejected") {
    val cells = answer.cells.updated(1, answer.cells(1).updated(2, "state=California -"))
    val problems = golden.diff("q", answer.copy(cells = cells))
    assert(problems.size == 1 && problems.head.startsWith("cells"))
    val swapped = answer.cells.updated(0, Vector("state=New Jersey +", "state=New York +", "state=Massachusetts +"))
    assert(golden.diff("q", answer.copy(cells = swapped)).nonEmpty, "rank order is part of the answer")
  }

  test("one perturbed cut is rejected") {
    val problems = golden.diff("q", answer.copy(cuts = Vector(0, 41, 90, 120)))
    assert(problems.size == 1 && problems.head.startsWith("cuts"))
    assert(golden.diff("q", answer.copy(cuts = Vector(0, 40, 120))).nonEmpty, "a dropped cut changes K")
  }

  test("total variance is held to the stated relative tolerance") {
    assert(golden.diff("q", answer.copy(totalVariance = answer.totalVariance * (1 + 5e-7))).isEmpty)
    assert(golden.diff("q", answer.copy(totalVariance = answer.totalVariance * (1 + 2e-6))).size == 1)
  }

  test("a query without a golden answer fails") {
    assert(golden.diff("other", answer).nonEmpty)
  }

  test("the cut residual nets out the gap penalty of a K mismatch only") {
    val truth = Vector(50, 100, 150)
    assert(Bounds.cutResidual(truth, truth, 200) == 0.0)
    // one designed cut missed, the others exact
    assert(math.abs(Bounds.cutResidual(truth, Vector(50, 150), 200)) < 1e-9)
    // same K, displaced by 6 points in total: 100·6/(3·200) = 1%
    assert(math.abs(Bounds.cutResidual(truth, Vector(52, 102, 152), 200) - 1.0) < 1e-9)
  }
}
