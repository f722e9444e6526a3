package repro

import org.apache.spark.sql.functions._

/** The provided TPC-H-lite generators, exercised through Spark aggregation
  * and join paths with the DuckDB oracle — the substrate every other
  * relation builder in this repo piggybacks on.
  */
class SynthDataSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()
  lazy val ord = SynthData.orders(spark, sf = 0.002).cache()

  test("lineitem row count scales with sf") {
    assert(li.count() == 12000)
  }

  test("orders row count scales with sf") {
    assert(ord.count() == 3000)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, sf = 0.001).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    val b = SynthData.lineitem(spark, sf = 0.001).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("group-by aggregation over lineitem matches DuckDB") {
    val q = li.groupBy("l_returnflag").agg(
      sum("l_quantity").as("sq"), count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      q,
      "SELECT l_returnflag, SUM(CAST(l_quantity AS DOUBLE)) AS sq, COUNT(*) AS c " +
        "FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> li.select("l_returnflag", "l_quantity"))
  }

  test("join + aggregation lineitem ⋈ orders matches DuckDB (shuffle path)") {
    val q = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      .groupBy("o_orderstatus")
      .agg(sum("l_extendedprice").as("rev"))
    Oracle.assertEquivalent(
      q,
      "SELECT o_orderstatus, SUM(CAST(l_extendedprice AS DOUBLE)) AS rev " +
        "FROM lineitem l JOIN orders o ON CAST(l.l_orderkey AS BIGINT) = CAST(o.o_orderkey AS BIGINT) " +
        "GROUP BY o_orderstatus",
      "lineitem" -> li.select("l_orderkey", "l_extendedprice"),
      "orders" -> ord.select("o_orderkey", "o_orderstatus"))
  }

  test("the oracle's float tolerance still rejects a one-cent difference in a large sum") {
    val q = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      .groupBy("o_orderstatus")
      .agg(sum("l_extendedprice").as("rev"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        q,
        "SELECT o_orderstatus, SUM(CAST(l_extendedprice AS DOUBLE)) + 0.01 AS rev " +
          "FROM lineitem l JOIN orders o ON CAST(l.l_orderkey AS BIGINT) = CAST(o.o_orderkey AS BIGINT) " +
          "GROUP BY o_orderstatus",
        "lineitem" -> li.select("l_orderkey", "l_extendedprice"),
        "orders" -> ord.select("o_orderkey", "o_orderstatus"))
    }
  }

  test("time-grouped aggregation (the TSExplain query shape) matches DuckDB") {
    val q = li.groupBy(month(col("l_shipdate")).as("mo")).agg(sum("l_quantity").as("sq"))
    Oracle.assertEquivalent(
      q,
      "SELECT CAST(EXTRACT(month FROM CAST(l_shipdate AS DATE)) AS INT) AS mo, " +
        "SUM(CAST(l_quantity AS DOUBLE)) AS sq FROM lineitem GROUP BY mo",
      "lineitem" -> li.select("l_shipdate", "l_quantity"))
  }

  test("explainRelation emits the requested schema and preserves totals under splitting") {
    val recs = Seq((Map("a" -> "x"), 0, 12.0), (Map("a" -> "y"), 1, 6.0))
    val df1 = SynthData.explainRelation(spark, Seq("a"), recs, rowsPerRecord = 1)
    val df3 = SynthData.explainRelation(spark, Seq("a"), recs, rowsPerRecord = 3)
    assert(df1.columns.toSeq == Seq("a", "t", "m"))
    assert(df3.count() == 6)
    val s1 = df1.agg(sum("m")).collect()(0).getDouble(0)
    val s3 = df3.agg(sum("m")).collect()(0).getDouble(0)
    assert(math.abs(s1 - s3) < 1e-9)
  }

  test("explainRelation per-slice totals match DuckDB at rowsPerRecord > 1") {
    val ds = repro.synth.SyntheticGen.generate(n = 20, snrDb = 40, seed = 9)
    val df = SynthData.synthetic(spark, ds, rowsPerRecord = 4)
    val q = df.groupBy("t", "category").agg(sum("m").as("s"))
    Oracle.assertEquivalent(
      q,
      "SELECT t, category, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t, category",
      "r" -> df)
  }
}
