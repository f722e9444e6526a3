package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.jobs.Jobs
import scala.collection.mutable.{ArrayBuffer, LinkedHashSet}
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Command-line options; `perfbench/run.py` builds the classpath and passes
  * them through.
  */
final case class Opts(
    workload: String = "",
    seed: Long = 0L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    out: Path = Paths.get("."),
    golden: Option[Path] = None,
    writeGolden: Option[Path] = None,
)

object Opts {
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest     => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest         => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest      => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest        => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest          => parse(rest, o.copy(out = Paths.get(v)))
    case "--golden" :: v :: rest       => parse(rest, o.copy(golden = Some(Paths.get(v))))
    case "--write-golden" :: v :: rest => parse(rest, o.copy(writeGolden = Some(Paths.get(v))))
    case Nil                           => o
    case other                         => throw new IllegalArgumentException(s"bad arguments: $other")
  }
}

/** A reported metric: name, unit and value. */
final case class Metric(name: String, unit: String, value: Double)

/** Process-wide JVM counters; differences of two snapshots give the cost of
  * the work between them.
  */
final case class JvmSnap(gcMs: Long, gcCount: Long, allocBytes: Long, cpuNs: Long) {
  def -(o: JvmSnap): JvmSnap = JvmSnap(gcMs - o.gcMs, gcCount - o.gcCount, allocBytes - o.allocBytes, cpuNs - o.cpuNs)
  def +(o: JvmSnap): JvmSnap = JvmSnap(gcMs + o.gcMs, gcCount + o.gcCount, allocBytes + o.allocBytes, cpuNs + o.cpuNs)
}

object JvmSnap {
  val zero: JvmSnap = JvmSnap(0, 0, 0, 0)

  def now(): JvmSnap = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val th = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    JvmSnap(gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum,
      th.getThreadAllocatedBytes(th.getAllThreadIds).filter(_ > 0).sum, os.getProcessCpuTime)
  }
}

/** The explain-latency benchmark: one closed-loop client in one JVM runs a
  * workload's fixed query list pass after pass for `--seconds`, checks every
  * answer, and prints its metrics; the last stdout line is one JSON object.
  * `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
  * untraced and traced passes and reports the per-layer metrics.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val code =
      try {
        val o = Opts.parse(args.toList)
        o.writeGolden.fold(run(o))(writeGolden(o, _))
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      }
    System.out.flush()
    sys.exit(code)
  }

  private var sparkSession: Option[SparkSession] = None
  private var sparkStartS = 0.0
  private def startSpark(): SparkSession = {
    val t0 = System.nanoTime()
    val s = Jobs.session("perfbench")
    sparkStartS = secondsSince(t0)
    sparkSession = Some(s)
    s
  }

  private def stopSpark(): Unit = { sparkSession.foreach(_.stop()); sparkSession = None }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Runs every workload's queries once and writes their answers as the
    * golden file for `--seed`; refuses when an answer breaks its bounds.
    */
  def writeGolden(o: Opts, path: Path): Int = {
    val answers = for (name <- Workloads.names; (id, a) <- try {
        val w = Workloads.setup(name, o.seed, startSpark())
        w.queries.map(q => q.id -> Workloads.run(q))
      } finally stopSpark()) yield {
      require(a.problems.isEmpty, s"$id breaks its bounds: ${a.problems.mkString("; ")}")
      println(s"$id\n${a.rendered}")
      id -> a.record
    }
    Files.write(path, (Golden(o.seed, Golden.defaultRelTol, answers.toMap).toJson + "\n").getBytes(UTF_8))
    println(s"wrote ${answers.size} golden answers to $path")
    0
  }

  def run(o: Opts): Int = {
    val jvmStartS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    val t0 = System.nanoTime()
    try {
      val w = Workloads.setup(o.workload, o.seed, startSpark())
      val inputsS = secondsSince(t0) - sparkStartS
      val cubeRows = if (o.trace) w.spark.map { s => val l = new CubeRows; s.listenerManager.register(l); l } else None
      val w0 = System.nanoTime()
      Workloads.warmUp(w, o.trace)
      val setupS = jvmStartS + secondsSince(t0)
      System.err.println(f"perfbench: setup $setupS%.3f s = JVM start $jvmStartS%.3f + Spark session " +
        f"$sparkStartS%.3f + inputs $inputsS%.3f + warm-up ${secondsSince(w0)}%.3f")
      val golden = o.golden.map(p => Golden.parse(Files.readString(p))).filter(_.seed == o.seed)
      new Measurement(o, w, golden, cubeRows).run(setupS)
    } finally stopSpark()
  }

  /** The measured passes of one run and what they report. */
  private final class Measurement(o: Opts, w: Workload, golden: Option[Golden], cubeRows: Option[CubeRows]) {
    private val queryIds = w.queries.map(_.id)
    private val latencies = ArrayBuffer.empty[Double]
    private val passTimes = ArrayBuffer.empty[Double]
    private val tracedPassTimes = ArrayBuffer.empty[Double]
    private val problems = LinkedHashSet.empty[String]
    private val last = new Array[Answer](w.queries.size)
    private var attempted = 0
    private var failed = 0
    private val tracer = new Tracer
    private val counts = new Counts
    private var jvm = JvmSnap.zero

    /** Counts one failed query run, whatever number of checks it failed. */
    private def fail(q: Query, why: Seq[String]): Unit =
      if (why.nonEmpty) { failed += 1; problems ++= why.map(w => s"${q.id}: $w") }

    /** One untraced pass; its time is the sum of its query latencies. */
    private def untracedPass(): Unit = {
      var pass = 0.0
      for ((q, qi) <- w.queries.zipWithIndex) {
        attempted += 1
        val q0 = System.nanoTime()
        val res = Try(Workloads.run(q))
        val dt = secondsSince(q0)
        pass += dt
        latencies += dt
        last(qi) = null
        res match {
          case Failure(e) => fail(q, Seq(s"threw $e"))
          case Success(a) =>
            last(qi) = a
            fail(q, a.problems ++ golden.fold(Seq.empty[String])(_.diff(q.id, a.record)))
        }
      }
      passTimes += pass
    }

    /** One traced pass; each answer must equal the untraced one before it. */
    private def tracedPass(): Unit = {
      var pass = 0.0
      for ((q, qi) <- w.queries.zipWithIndex) {
        attempted += 1
        tracer.query = qi
        cubeRows.foreach(_.clear())
        val q0 = System.nanoTime()
        val res = Try(tracer.span("query")(Workloads.runTraced(q, tracer, counts)))
        pass += secondsSince(q0)
        res match {
          case Failure(e) => fail(q, Seq(s"traced run threw $e"))
          case Success(t) =>
            val a = last(qi)
            if (a == null || t.explanation != a.explanation || t.rendered != a.rendered)
              fail(q, Seq("traced explanation differs from the untraced TSExplain.explain output"))
            for (l <- cubeRows; r <- l.next()) {
              counts.add("cube.rows_in", w.rowsIn)
              counts.add("cube.rows_out", r.produced)
              counts.add("cube.rows_kept", r.kept)
              counts.add("cube.cells", r.cubeRows)
            }
        }
      }
      tracedPassTimes += pass
    }

    def run(setupS: Double): Int = {
      val start = System.nanoTime()
      while (passTimes.isEmpty || secondsSince(start) < o.seconds) {
        val j0 = JvmSnap.now()
        untracedPass()
        jvm = jvm + (JvmSnap.now() - j0)
        if (o.trace) tracedPass()
      }
      val metrics = if (o.trace) layerMetrics() else endToEnd(setupS)
      report(setupS, metrics)
      0
    }

    private def endToEnd(setupS: Double): Vector[Metric] = Vector(
      Metric("pass_s", "s", Stats.median(passTimes.toSeq)),
      Metric("query_s_p50", "s", Stats.median(latencies.toSeq)),
      Metric("setup_s", "s", setupS),
    )

    private def layerMetrics(): Vector[Metric] = {
      val spans = tracer.spans
      val self = Trace.selfByName(spans)
      val p = tracedPassTimes.size.toDouble
      val tracedPass = tracedPassTimes.sum / p
      def sec(name: String): Double = self.getOrElse(name, 0L) / 1e9 / p
      def work(name: String): Double = counts(name) / p
      def ratio(a: Double, b: Double): Double = if (b > 0) a / b else 0.0
      def layerTime(layer: String, span: String) = Vector(
        Metric(s"$layer.s", "s", sec(span)),
        Metric(s"$layer.share", "ratio", sec(span) / tracedPass),
      )
      Vector(
        Metric("cube.build_s", "s", sec("cube")),
        Metric("cube.share", "ratio", sec("cube") / tracedPass),
        Metric("cube.rows_in", "count", counts.mean("cube.rows_in")),
        Metric("cube.rows_out", "count", counts.mean("cube.rows_out")),
        Metric("cube.rows_kept", "count", counts.mean("cube.rows_kept")),
        Metric("cube.useful_ratio", "ratio", ratio(counts("cube.rows_kept"), counts("cube.rows_out"))),
        Metric("cube.cells", "count", counts.mean("cube.cells")),
      ) ++ layerTime("precompute", "precompute") ++ Vector(
        Metric("precompute.eps_in", "count", counts.mean("precompute.eps_in")),
        Metric("precompute.eps_out", "count", counts.mean("precompute.eps_out")),
      ) ++ layerTime("ca", "ca") ++ Vector(
        Metric("ca.calls", "count", work("ca.calls")),
        Metric("ca.segments", "count", work("ca.segments")),
        Metric("ca.segments_per_call", "ratio", ratio(counts("ca.segments"), counts("ca.calls"))),
        Metric("gv.ca_runs", "count", work("gv.ca_runs")),
        Metric("gv.segments", "count", work("gv.segments")),
        Metric("gv.max_mbar", "count", counts("gv.max_mbar")),
        Metric("gv.runs_per_segment", "ratio", ratio(counts("gv.ca_runs"), counts("gv.segments"))),
      ) ++ layerTime("cost", "cost") ++ Vector(
        Metric("cost.calls", "count", work("cost.calls")),
        Metric("cost.cells", "count", work("cost.cells")),
        Metric("cost.cells_per_call", "ratio", ratio(counts("cost.cells"), counts("cost.calls"))),
      ) ++ layerTime("sketch", "sketch") ++ Vector(
        Metric("sketch.cost_calls", "count", work("sketch.cost_calls")),
        Metric("sketch.size", "count", counts.mean("sketch.size")),
        Metric("sketch.max_seg_len", "count", counts.mean("sketch.max_seg_len")),
      ) ++ layerTime("dp", "dp") ++ Vector(
        Metric("dp.cost_calls", "count", work("dp.cost_calls")),
        Metric("dp.positions", "count", counts.mean("dp.positions")),
        Metric("elbow.s", "s", sec("elbow")),
        Metric("elbow.k", "count", counts.mean("elbow.k")),
        Metric("render.s", "s", sec("render")),
        Metric("jvm.gc_s", "s", jvm.gcMs / 1e3 / p),
        Metric("jvm.gc_count", "count", jvm.gcCount / p),
        Metric("jvm.alloc_mb", "MB", jvm.allocBytes / 1048576.0 / p),
        Metric("jvm.cpu_s", "s", jvm.cpuNs / 1e9 / p),
        Metric("trace.pass_s_untraced", "s", Stats.median(passTimes.toSeq)),
        Metric("trace.pass_s_traced", "s", Stats.median(tracedPassTimes.toSeq)),
        Metric("trace.overhead_ratio", "ratio",
          Stats.median(tracedPassTimes.toSeq) / Stats.median(passTimes.toSeq)),
      )
    }

    private def report(setupS: Double, metrics: Vector[Metric]): Unit = {
      val p90 = Stats.percentile(latencies.toSeq, 90)
      val n = latencies.size
      println(f"workload ${w.name} seed ${o.seed} trace ${if (o.trace) 1 else 0}: " +
        f"${passTimes.size} passes, $n queries, $failed of $attempted query runs failed")
      for (m <- metrics) println(f"  ${m.name}%-24s ${m.value}%14.6f ${m.unit}")
      if (!o.trace) {
        println(p90.fold(f"  query_s_p90              not reported: $n queries leave " +
          s"${Stats.beyond(n, 90)} beyond p90, 10 needed")(v => f"  query_s_p90              $v%14.6f s"))
        println(f"  error_rate               ${failed.toDouble / attempted}%14.6f ratio ($failed of $attempted)")
      }
      for ((id, a) <- queryIds.zip(last) if a != null; r <- a.plantedCutResidualPct)
        println(f"  $id: cut distance to the planted cuts, net of K mismatch: $r%.2f%% (reported, not gated)")
      problems.take(20).foreach(p => println(s"  FAILED $p"))

      val stem = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
      Files.createDirectories(o.out)
      val header = Json.obj(Seq(
        "git_sha" -> Json.str(sys.props.getOrElse("perfbench.gitSha", "unknown")),
        "source_sha256" -> Json.str(sys.props.getOrElse("perfbench.sourceSha", "unknown")),
        "nproc" -> Runtime.getRuntime.availableProcessors.toString,
        "xmx" -> Json.str(ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
          .filter(_.startsWith("-Xmx")).lastOption.getOrElse(s"default (${Runtime.getRuntime.maxMemory >> 20} MB)")),
        "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
        "spark_master" -> Json.str(w.spark.fold("none (no Spark session)")(_.sparkContext.master)),
        "workload" -> Json.str(w.name),
        "seed" -> o.seed.toString,
        "run_seconds" -> Json.num(o.seconds),
        "samples" -> Json.obj(Seq(
          "passes" -> passTimes.size.toString,
          "queries" -> n.toString,
          "traced_passes" -> tracedPassTimes.size.toString,
        )),
      ))
      val file = Json.obj(Seq(
        "header" -> header,
        "setup_s" -> Json.num(setupS),
        "metrics" -> metricsJson(metrics),
        "query_s_p90" -> p90.fold("null")(Json.num),
        "error_rate" -> Json.num(failed.toDouble / attempted),
        "pass_s_samples" -> Json.arr(passTimes.toSeq.map(Json.num)),
        "traced_pass_s_samples" -> Json.arr(tracedPassTimes.toSeq.map(Json.num)),
        "query_s_samples" -> Json.arr(latencies.toSeq.map(Json.num)),
        "answers" -> Json.obj(w.queries.indices.filter(last(_) != null).map(i => queryIds(i) -> last(i).record.toJson)),
        "planted_cut_residual_pct" -> Json.obj(queryIds.zip(last).collect {
          case (id, a) if a != null && a.plantedCutResidualPct.isDefined => id -> Json.num(a.plantedCutResidualPct.get)
        }),
        "problems" -> Json.arr(problems.toSeq.map(Json.str)),
      ))
      Files.write(o.out.resolve(s"$stem.json"), (file + "\n").getBytes(UTF_8))
      if (o.trace) Files.write(o.out.resolve(s"$stem-spans.tsv"), Trace.tsv(tracer.spans, queryIds).getBytes(UTF_8))

      println(Json.obj(Seq(
        "correct" -> (failed == 0).toString,
        "attempted" -> attempted.toString,
        "failed" -> failed.toString,
        "metrics" -> metricsJson(metrics),
      )))
    }

    private def metricsJson(ms: Vector[Metric]): String =
      Json.obj(ms.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))
  }
}
