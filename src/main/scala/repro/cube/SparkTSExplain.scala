package repro.cube

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core._

/** Spark orchestration of the TSExplain pipeline.
  *
  * Two distributed paths:
  *   1. [[topIdsPerSegment]] fans the O(n²) per-segment Cascading Analysts
  *      stage (the pipeline bottleneck, §5.2) out over executors with the
  *      explanation cube broadcast once; [[source]] hands the collected top
  *      lists to [[TSExplain.explain]], which runs the rest on the driver.
  *   2. [[explainGrouped]] treats the whole pipeline as a custom
  *      dynamic-programming function applied per *grouped time series*
  *      (`groupByKey(seriesId).mapGroups`), so a fleet of independent series
  *      (e.g. the 140 synthetic datasets of §7.1.1) is explained in parallel.
  */
object SparkTSExplain {

  /** Distributed module (b): top-m per segment with the cube broadcast. */
  def topIdsPerSegment(
      spark: SparkSession,
      cube: ExplCube,
      segments: Seq[Segment],
      cfg: TSConfig,
  ): Map[(Int, Int), TopIds] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(cube)
    spark
      .createDataset(segments.map(s => (s.i, s.j)))
      .repartition(math.max(1, math.min(64, segments.size / 64)))
      .mapPartitions { it =>
        val solver = TSExplain.solver(bc.value, cfg)
        it.map { case (i, j) =>
          val t = solver(Segment(i, j))
          (i, j, t.ids, t.gammas, t.taus, t.best)
        }
      }
      .collect()
      .map { case (i, j, ids, gs, ts, best) => (i, j) -> TopIds(ids, gs, ts, best) }
      .toMap
  }

  /** [[topIdsPerSegment]] over every segment of the cube, as a top-list
    * source for [[TSExplain.explain]]: the driver then runs the rest of the
    * pipeline, O2 included, on the collected lists.
    */
  def source(spark: SparkSession): (ExplCube, TSConfig) => Segment => TopIds = { (cube, cfg) =>
    val segments = for { i <- 0 until cube.n; j <- i + 1 until cube.n } yield Segment(i, j)
    val tops = topIdsPerSegment(spark, cube, segments, cfg)
    s => tops((s.i, s.j))
  }

  /** One row of a many-series relation: (seriesId, timeIndex, category, m). */
  type SeriesRow = (String, Int, String, Double)

  /** One explained series: (seriesId, K, interiorCuts, totalVariance). */
  type GroupedResult = (String, Int, Seq[Int], Double)

  /** The whole TSExplain pipeline as a DP over grouped time series: group the
    * relation by series id and run cube-building + CA + K-Segmentation DP +
    * elbow inside `mapGroups` on executors, one task per series.
    */
  def explainGrouped(
      spark: SparkSession,
      rows: Dataset[SeriesRow],
      cfg: TSConfig,
      attr: String = "category",
  ): Dataset[GroupedResult] = {
    import spark.implicits._
    rows
      .groupByKey(_._1)
      .mapGroups { (sid, it) =>
        val recs = it.toVector
        val n = recs.iterator.map(_._2).max + 1
        val cube = ExplCube.fromRecords(
          Seq(attr),
          (0 until n).map(_.toString),
          recs.map { case (_, t, c, m) => (Map(attr -> c), t, m) },
          cfg.maxOrder,
        )
        val res = TSExplain.explain(cube, cfg)
        (sid, res.explanation.scheme.k, res.explanation.scheme.interior, res.explanation.totalVariance)
      }
  }
}
