package repro.perfbench

/** One recorded span: a layer call with its wall-clock interval (ns), the
  * span that caused it (-1 for a root) and the query it belongs to.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, query: Int) {
  def duration: Long = end - start
}

/** In-memory span store for a traced run. The traced pipeline is
  * single-threaded, so spans nest: `begin` makes the new span the child of
  * the innermost open one. Spans stay in primitive arrays until the run
  * ends and are written out then.
  */
final class Tracer {
  private var size = 0
  private var names = new Array[String](1024)
  private var starts = new Array[Long](1024)
  private var ends = new Array[Long](1024)
  private var parents = new Array[Int](1024)
  private var queries = new Array[Int](1024)
  private var open = -1

  /** Query id stamped on spans begun from now on. */
  var query: Int = -1

  def begin(name: String): Int = {
    if (size == names.length) {
      val cap = size * 2
      names = java.util.Arrays.copyOf(names, cap)
      starts = java.util.Arrays.copyOf(starts, cap)
      ends = java.util.Arrays.copyOf(ends, cap)
      parents = java.util.Arrays.copyOf(parents, cap)
      queries = java.util.Arrays.copyOf(queries, cap)
    }
    val id = size
    names(id) = name; parents(id) = open; queries(id) = query
    size += 1
    open = id
    starts(id) = System.nanoTime()
    id
  }

  def end(id: Int): Unit = {
    ends(id) = System.nanoTime()
    require(open == id, s"span ${names(id)} closed out of order")
    open = parents(id)
  }

  def span[A](name: String)(body: => A): A = {
    val id = begin(name)
    try body finally end(id)
  }

  def spans: IndexedSeq[Span] =
    IndexedSeq.tabulate(size)(i => Span(i, names(i), starts(i), ends(i), parents(i), queries(i)))
}

object Trace {

  /** Self time of every span (indexed by span id): its duration minus the
    * part of its interval that its direct children cover. Children are
    * clipped to the parent's interval and overlapping children count once.
    */
  def selfTimes(spans: IndexedSeq[Span]): Array[Long] = {
    val self = spans.map(_.duration).toArray
    val byParent = spans.filter(_.parent >= 0).groupBy(_.parent)
    for ((p, children) <- byParent) {
      val ps = spans(p).start
      val pe = spans(p).end
      var covered = 0L
      var reach = ps // end of the union of the children seen so far
      for (c <- children.sortBy(_.start)) {
        val s = math.max(math.max(c.start, ps), reach)
        val e = math.min(c.end, pe)
        if (e > s) { covered += e - s; reach = e }
      }
      self(p) -= covered
    }
    self
  }

  /** Sum of self time (ns) per span name. */
  def selfByName(spans: IndexedSeq[Span]): Map[String, Long] = {
    val self = selfTimes(spans)
    spans.groupMapReduce(_.name)(s => self(s.id))(_ + _)
  }

  /** Tab-separated dump, one span per line, times relative to the first. */
  def tsv(spans: IndexedSeq[Span], queryIds: IndexedSeq[String]): String = {
    val t0 = if (spans.isEmpty) 0L else spans.head.start
    val sb = new StringBuilder("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
    for (s <- spans)
      sb ++= s"${s.id}\t${s.name}\t${s.start - t0}\t${s.end - t0}\t${s.parent}\t" +
        s"${if (s.query >= 0) queryIds(s.query) else ""}\n"
    sb.result()
  }
}
