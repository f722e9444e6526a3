package repro.perfbench

import repro.core._
import repro.eval.Metrics

/** What a query's answer is judged on: the cuts (and so K), the canonical
  * top-3 cells of every segment with their effects, and the total variance.
  */
final case class Record(cuts: Vector[Int], cells: Vector[Vector[String]], totalVariance: Double) {
  def k: Int = cuts.size - 1

  def toJson: String = Json.obj(Seq(
    "k" -> k.toString,
    "cuts" -> Json.arr(cuts.map(_.toString)),
    "cells" -> Json.arr(cells.map(seg => Json.arr(seg.map(Json.str)))),
    "total_variance" -> Json.num(totalVariance),
  ))
}

object Record {
  /** Cells render as in `Benches.renderCanonical`: canonical name and sign. */
  def of(cube: ExplCube, e: Explanation): Record =
    Record(
      e.scheme.cuts,
      e.perSegment.map { case (_, top) =>
        top.ranked.map { r =>
          s"${cube.canonicalExpl(cube.idOf(r.expl))} ${if (r.tau >= 0) "+" else "-"}"
        }
      },
      e.totalVariance,
    )
}

/** Golden answers of every query at the default seed. Cuts and cells must
  * match exactly; total variance within `relTol` of the golden value, which
  * leaves room for a change that only reorders floating-point sums.
  */
final case class Golden(seed: Long, relTol: Double, answers: Map[String, Record]) {

  def diff(queryId: String, got: Record): Seq[String] =
    answers.get(queryId) match {
      case None => Seq(s"no golden answer for $queryId")
      case Some(want) =>
        val tvErr = math.abs(got.totalVariance - want.totalVariance) / math.max(math.abs(want.totalVariance), 1e-300)
        Seq(
          Option.when(got.cuts != want.cuts)(s"cuts ${got.cuts} != golden ${want.cuts}"),
          Option.when(got.cuts == want.cuts && got.cells != want.cells)(
            s"cells ${got.cells} != golden ${want.cells}"),
          Option.when(!(tvErr <= relTol))(
            s"total variance ${got.totalVariance} off golden ${want.totalVariance} by $tvErr (tolerance $relTol)"),
        ).flatten
    }

  /** One answer per line, so a changed answer shows as a one-line diff. */
  def toJson: String =
    s"""{"seed": $seed, "total_variance_rel_tol": ${Json.num(relTol)}, "answers": {\n""" +
      answers.toSeq.sortBy(_._1).map { case (id, r) => s"  ${Json.str(id)}: ${r.toJson}" }.mkString(",\n") +
      "\n}}"
}

object Golden {
  val defaultRelTol = 1e-6

  def parse(text: String): Golden = {
    import scala.jdk.CollectionConverters._
    val root = new com.fasterxml.jackson.databind.ObjectMapper().readTree(text)
    val answers = root.get("answers").fields().asScala.map { e =>
      val a = e.getValue
      e.getKey -> Record(
        a.get("cuts").elements().asScala.map(_.asInt).toVector,
        a.get("cells").elements().asScala.map(_.elements().asScala.map(_.asText).toVector).toVector,
        a.get("total_variance").asDouble,
      )
    }.toMap
    Golden(root.get("seed").asLong, root.get("total_variance_rel_tol").asDouble, answers)
  }
}

/** Quality bounds that hold at any seed: the paper-table bounds of the
  * Table 3-5 bench suites.
  *
  * The cut bound is applied to the cut-distance *residual*: the distance
  * percent minus the one-series-length gap penalty `Metrics.distancePercent`
  * charges per cut when K differs from the designed count. When K matches
  * it is the plain distance; otherwise it is the displacement of the cuts
  * that do align with a designed cut.
  */
final case class Bounds(
    kRange: Range,
    maxCutResidualPct: Double,
    minCellMatch: Option[Double] = None,
    hiddenAttrs: Set[String] = Set.empty,
) {
  def check(e: Explanation, truthCuts: Vector[Int], n: Int, cellMatch: Option[Double]): Seq[String] = {
    val k = e.scheme.k
    val resid = Bounds.cutResidual(truthCuts, e.scheme.interior, n)
    val surfaced = for ((_, top) <- e.perSegment; r <- top.ranked if r.expl.attrs.exists(hiddenAttrs)) yield r.expl
    Seq(
      Option.when(!kRange.contains(k))(s"K=$k outside ${kRange.head}..${kRange.last}"),
      Option.when(!(resid <= maxCutResidualPct))(f"cut distance residual $resid%.2f%% > $maxCutResidualPct%%"),
      for (min <- minCellMatch; got <- cellMatch if !(got >= min))
        yield f"paper cells reproduced ${got * 100}%.1f%% < ${min * 100}%.0f%%",
      Option.when(surfaced.nonEmpty)(s"hidden attributes surfaced: ${surfaced.mkString(", ")}"),
    ).flatten
  }
}

object Bounds {
  def cutResidual(truth: Vector[Int], pred: Vector[Int], n: Int): Double =
    Metrics.distancePercent(truth, pred, n) - 100.0 * math.abs(truth.size - pred.size) / math.max(1, truth.size)

  // Table 3/4/5 bench bounds at the elbow K
  val covid = Bounds(5 to 9, 5.0, Some(0.7))
  val sp500 = Bounds(3 to 6, 5.0, Some(0.7))
  val liquor = Bounds(5 to 9, 6.0, Some(0.6), Set("CN", "VN"))
  // Fig 10 bounds the planted-cut distance at the planted K on n = 100
  // series. At n = 1600 and the elbow K no bound holds at every seed (seed
  // 4567 puts its one cut 302 points from the planted one), so the distance
  // is reported with each answer and gates only through the seed-0 golden.
  val synthetic = Bounds(1 to 20, Double.PositiveInfinity)
}
