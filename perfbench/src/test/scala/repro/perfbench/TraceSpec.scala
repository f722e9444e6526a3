package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, name: String, start: Long, end: Long, parent: Int) =
    Span(id, name, start, end, parent, query = 0)

  test("self time is the span minus its direct children, on nested spans") {
    // query [0,100] ⊃ ca [10,40] ⊃ cost [20,30]; query ⊃ dp [50,60]
    val spans = IndexedSeq(
      span(0, "query", 0, 100, -1),
      span(1, "ca", 10, 40, 0),
      span(2, "cost", 20, 30, 1),
      span(3, "dp", 50, 60, 0),
    )
    assert(Trace.selfTimes(spans).toSeq == Seq(60L, 20L, 10L, 10L))
    assert(Trace.selfByName(spans) == Map("query" -> 60L, "ca" -> 20L, "cost" -> 10L, "dp" -> 10L))
  }

  test("overlapping children count once and are clipped to the parent") {
    val spans = IndexedSeq(
      span(0, "p", 0, 100, -1),
      span(1, "a", 40, 70, 0),
      span(2, "b", 10, 50, 0),
      span(3, "c", 90, 130, 0),
    )
    // covered: [10,70] ∪ [90,100] = 70
    assert(Trace.selfTimes(spans)(0) == 30L)
  }

  test("self times of a recorded trace add up to the root span") {
    val tr = new Tracer
    tr.query = 7
    def busy(): Unit = { val t = System.nanoTime(); while (System.nanoTime() - t < 200000L) () }
    tr.span("query") {
      busy()
      for (_ <- 0 until 3) tr.span("ca") { busy(); tr.span("cost")(busy()) }
      tr.span("dp")(busy())
    }
    val spans = tr.spans
    assert(spans.map(_.name) == IndexedSeq("query", "ca", "cost", "ca", "cost", "ca", "cost", "dp"))
    assert(spans.map(_.parent) == IndexedSeq(-1, 0, 1, 0, 3, 0, 5, 0))
    assert(spans.forall(_.query == 7))
    val self = Trace.selfTimes(spans)
    assert(self.forall(_ > 0))
    assert(self.sum == spans.head.duration)
  }

  test("spans must close innermost first") {
    val tr = new Tracer
    val outer = tr.begin("outer")
    tr.begin("inner")
    assertThrows[IllegalArgumentException](tr.end(outer))
  }
}
