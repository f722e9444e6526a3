package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct". Floating-point
  * cells are compared numerically, within the rounding that two engines
  * summing the same inputs in different orders can produce.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  // Floating cells stay doubles and are compared numerically; every other
  // cell is compared by its string form.
  private def cell(v: Any): Any = v match {
    case null                     => "∅"
    case d: Double                => d
    case f: Float                 => f.toDouble
    case bd: java.math.BigDecimal => bd.doubleValue
    case x                        => x.toString
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val idx = cols.sorted.map(cols.indexOf)
    val byKeyThenValues = Ordering.Tuple2(Ordering.Implicits.seqOrdering[Seq, String],
      Ordering.Implicits.seqOrdering[Seq, Double](Ordering.Double.TotalOrdering))
    rows
      .map(r => idx.map(i => cell(r.get(i))))
      .sortBy(r => (r.collect { case s: String => s }, r.collect { case d: Double => d }))(byKeyThenValues)
  }

  /** Two engines add the same `terms` values in different orders. For values
    * of one sign each order is within (terms − 1) rounding errors of the exact
    * sum, so the two results are within `terms` units in the last place.
    */
  private def close(a: Double, b: Double, terms: Long): Boolean =
    a == b || math.abs(a - b) <= terms * math.ulp(math.max(math.abs(a), math.abs(b)))

  private def sameRow(terms: Long)(x: Seq[Any], y: Seq[Any]): Boolean =
    x.size == y.size && x.zip(y).forall {
      case (a: Double, b: Double) => close(a, b, terms)
      case (a, b)                 => a == b
    }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      var inputRows = 0L
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
          inputRows += 1
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val same = sameRow(inputRows) _
      require(got.size == exp.size && got.zip(exp).forall(same.tupled),
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.filterNot(g => exp.exists(same(g, _))).take(3)}\n" +
        s"  first duck-only:  ${exp.filterNot(e => got.exists(same(_, e))).take(3)}"
      )
    } finally conn.close()
  }
}
