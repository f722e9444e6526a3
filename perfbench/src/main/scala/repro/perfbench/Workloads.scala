package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, explode, lit, sequence}
import repro.SynthData
import repro.core._
import repro.cube.ExplanationCube
import repro.eval.Benches
import repro.synth.{RealWorldSim, SyntheticGen}

/** Where a query's explanation cube comes from. */
sealed trait Input

/** A simulated real-world dataset whose cube is already in memory. */
final case class SimInput(sim: RealWorldSim.Sim, bounds: Bounds) extends Input

/** A §4.2.1 synthetic series with planted cuts. */
final case class SynthInput(ds: SyntheticGen.Dataset) extends Input

/** A cached Spark relation; each run builds the cube with Catalyst `CUBE`. */
final case class RelationInput(df: DataFrame, attrs: Seq[String], sim: RealWorldSim.Sim, bounds: Bounds)
    extends Input {
  def buildCube(maxOrder: Int): ExplCube = {
    val built = ExplanationCube.build(df, "t", attrs, "m", maxOrder = maxOrder)
    // the relation's time column is the day index; re-attach the date labels
    new ExplCube(built.attrs, sim.cube.times, built.total, built.expls, built.series)
  }
}

final case class Query(id: String, cfg: TSConfig, input: Input)

/** One query's answer, the problems the output check found in it and, for
  * a synthetic series, how far its cuts lie from the planted ones.
  */
final case class Answer(explanation: Explanation, cube: ExplCube, rendered: String, problems: Seq[String],
    plantedCutResidualPct: Option[Double] = None) {
  def record: Record = Record.of(cube, explanation)
}

/** A workload after set-up: its fixed query list and, for Spark input, the
  * session and the relation's row count.
  */
final case class Workload(name: String, queries: Vector[Query], spark: Option[SparkSession], rowsIn: Long)

object Workloads {
  val names: Vector[String] = Vector("interactive", "long-series", "spark-relation")

  // seed 0 gives the simulators' own default seeds, which the paper tables use
  private def covid(seed: Long) = RealWorldSim.covidDaily(42 + seed)
  private def sp500(seed: Long) = RealWorldSim.sp500(7 + seed)
  private def liquor(seed: Long) = RealWorldSim.liquor(11 + seed)

  private val o1o2 = TSConfig(filterRatio = Some(0.001)).withAllOpts
  private val longSeriesN = 1600
  private val relationRowsPerRecord = 50

  def setup(name: String, seed: Long, startSpark: => SparkSession): Workload = name match {
    case "interactive" =>
      val (c, s, l) = (covid(seed), sp500(seed), liquor(seed))
      Workload(name, Vector(
        Query("covid-daily/filter+O1+O2", o1o2, SimInput(c, Bounds.covid)),
        Query("sp500/filter+O1+O2", o1o2, SimInput(s, Bounds.sp500)),
        Query("liquor/filter+O1+O2", o1o2, SimInput(l, Bounds.liquor)),
      ), None, 0L)
    case "long-series" =>
      // Benches.scalability's generator settings (Fig 17), seed-shifted
      val ds = SyntheticGen.generate(n = longSeriesN, snrDb = 35, seed = 1234L + longSeriesN + seed)
      Workload(name, Vector(Query(s"synthetic-n$longSeriesN/filter+O1+O2", o1o2, SynthInput(ds))), None, 0L)
    case "spark-relation" =>
      val spark = startSpark
      val sim = covid(seed)
      // SynthData.covidDaily(spark, rowsPerRecord = 50) row for row (each
      // record split into 50 rows of m / 50, 50 partitions), but expanded by
      // Spark instead of as a million driver-side rows, which takes seconds
      val records = SynthData.covidDaily(spark, seed = 42 + seed)
      val df = records
        .withColumn("part", explode(sequence(lit(1), lit(relationRowsPerRecord))))
        .select(col("state"), col("t"), (col("m") / relationRowsPerRecord).as("m"))
        .repartition(relationRowsPerRecord)
        .cache()
      val rows = df.count()
      // Table 3's configuration: smoothing window 5, elbow K
      Workload(name, Vector(
        Query("covid-relation/table3", TSConfig(smoothWindow = Some(5)),
          RelationInput(df, Seq("state"), sim, Bounds.covid)),
      ), Some(spark), rows)
    case other => throw new IllegalArgumentException(s"unknown workload $other (have ${names.mkString(", ")})")
  }

  /** The untraced query: input → `TSExplain.explain` → rendered table, with
    * the output checked against the bounds that hold at any seed.
    */
  def run(q: Query): Answer = q.input match {
    case SimInput(sim, b)            => fromRealWorld(Benches.runRealWorld(sim, q.cfg), b)
    case r @ RelationInput(_, _, sim, b) =>
      fromRealWorld(Benches.runRealWorld(sim.copy(cube = r.buildCube(q.cfg.maxOrder)), q.cfg), b)
    case SynthInput(ds) =>
      val res = TSExplain.explain(ds.cube, q.cfg)
      val rendered = Benches.renderCanonical(res.cube, res.explanation)
      Answer(res.explanation, res.cube, rendered, Bounds.synthetic.check(res.explanation, ds.truthCuts, ds.cube.n, None),
        Some(Bounds.cutResidual(ds.truthCuts, res.explanation.scheme.interior, ds.cube.n)))
  }

  private def fromRealWorld(r: Benches.RealWorldRun, b: Bounds): Answer =
    Answer(r.result.explanation, r.result.cube, r.rendered,
      b.check(r.result.explanation, r.sim.truthCuts, r.sim.cube.n, Some(r.topMatchFraction)))

  /** The same query through [[TracedPipeline]], with a `cube` span around
    * getting its cube: the Spark build, or a reference to one in memory.
    */
  def runTraced(q: Query, tr: Tracer, c: Counts): TracedPipeline.Out = {
    val cube = tr.span("cube") {
      q.input match {
        case SimInput(sim, _) => sim.cube
        case SynthInput(ds)   => ds.cube
        case r: RelationInput => r.buildCube(q.cfg.maxOrder)
      }
    }
    TracedPipeline.explain(cube, q.cfg, tr, c)
  }

  /** JIT warm-up: every query in full, once, or twice for Spark input
    * (whose cube builds run generated code that needs its own warm-up), so
    * the first timed pass runs compiled code at full length; a traced run
    * also warms the traced pipeline on the first quarter (at least 60
    * points) of each cube.
    */
  def warmUp(w: Workload, traced: Boolean): Unit =
    for (q <- w.queries) {
      for (_ <- 1 to (if (w.spark.isDefined) 2 else 1)) run(q)
      if (traced) {
        val cube = q.input match {
          case SimInput(sim, _) => sim.cube
          case SynthInput(ds)   => ds.cube
          case r: RelationInput => r.buildCube(q.cfg.maxOrder)
        }
        TracedPipeline.explain(cube.slice(0, math.min(math.max(59, cube.n / 4), cube.n - 1)), q.cfg, new Tracer, new Counts)
      }
    }
}
