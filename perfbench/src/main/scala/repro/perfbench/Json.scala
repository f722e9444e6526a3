package repro.perfbench

/** Minimal JSON writer for result files and the final result line. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'          => sb ++= "\\\""
      case '\\'         => sb ++= "\\\\"
      case '\n'         => sb ++= "\\n"
      case '\t'         => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c            => sb += c
    }
    sb += '"'
    sb.result()
  }

  /** A finite double with every digit (shortest round-trip form). */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else java.lang.Double.toString(d)
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
