package repro.perfbench

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.sql.execution.{ExpandExec, FilterExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.util.QueryExecutionListener

/** Row counts of each Catalyst `CUBE` query, read from its SQL metrics:
  * the rows the grouping-set expansion produced, the rows that survive the
  * filter on grouping id and explanation order, and the cube rows the final
  * aggregation returns.
  */
final class CubeRows extends QueryExecutionListener with AdaptiveSparkPlanHelper {
  private val done = new LinkedBlockingQueue[CubeRows.Counts]()

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val plan = qe.executedPlan
    def rows(p: SparkPlan): Long = p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    collect(plan) { case e: ExpandExec => rows(e) }.headOption.foreach { produced =>
      // pre-order: the first aggregate is the final one
      val cubeRows = collect(plan) { case h: HashAggregateExec => rows(h) }.headOption.getOrElse(0L)
      // Catalyst pushes the grouping-id filter below the aggregation when it can
      val kept = collect(plan) { case f: FilterExec => rows(f) }.headOption.getOrElse(produced)
      done.put(CubeRows.Counts(produced, kept, cubeRows))
    }
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  def clear(): Unit = done.clear()

  /** The counts of the next finished CUBE query, if one finishes within 30 s
    * (listeners run on Spark's listener bus, after the query returns).
    */
  def next(): Option[CubeRows.Counts] = Option(done.poll(30, TimeUnit.SECONDS))
}

object CubeRows {
  final case class Counts(produced: Long, kept: Long, cubeRows: Long)
}
