package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GuessVerifySpec extends AnyFunSuite {

  def randomCube(rnd: Random, attrs: Int = 2, vals: Int = 4, n: Int = 5, scale: Double = 1.0): ExplCube = {
    val attrNames = (0 until attrs).map(i => s"A$i")
    val combos = attrNames
      .map(a => (0 until vals).map(v => a -> s"v$v"))
      .foldLeft(Seq(Seq.empty[(String, String)]))((acc, col) => acc.flatMap(pfx => col.map(pfx :+ _)))
    val recs = for (c <- combos; t <- 0 until n) yield (c.toMap, t, (rnd.nextDouble() * 20 - 10) * scale)
    ExplCube.fromRecords(attrNames, (0 until n).map(_.toString), recs, maxOrder = 3)
  }

  /** A random cube with signed measures, printable as a counterexample. */
  final case class CubeCase(attrs: Int, vals: Int, n: Int, scale: Double, seed: Long) {
    lazy val cube: ExplCube = randomCube(new Random(seed), attrs, vals, n, scale)
    def segments: Seq[Segment] = for (i <- 0 until n; j <- i + 1 until n) yield Segment(i, j)
  }

  // measure scales far below and above the benchmark datasets'
  val genCase: Gen[CubeCase] = for {
    attrs <- Gen.choose(2, 3)
    vals <- Gen.choose(2, 4)
    n <- Gen.choose(4, 6)
    scale <- Gen.oneOf(1e-12, 1e-9, 1.0, 1e6)
    seed <- Gen.long
  } yield CubeCase(attrs, vals, n, scale, seed)

  /** Initial m̄: 1, 4, the default 10·m, or at least ε (unrestricted). */
  val genM0: Gen[String] = Gen.oneOf("1", "4", "default", "eps")
  def m0Of(kind: String, cube: ExplCube): Int = kind match {
    case "default" => -1
    case "eps"     => cube.epsilon
    case k         => k.toInt
  }

  def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(20230401L))
    val res = Test.check(params, p)
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  def relClose(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  def sameAnswer(a: TopIds, b: TopIds): Boolean =
    a.ids.sameElements(b.ids) && a.gammas.sameElements(b.gammas) && a.taus.sameElements(b.taus) &&
      a.best.sameElements(b.best)

  /** The sub-cube a restricted solve stands for, built explicitly: `ids`
    * plus their in-cube ancestors, with the map back to the parent's ids.
    */
  def inducedSubCube(cube: ExplCube, ids: Seq[Int]): (ExplCube, Array[Int]) = {
    val keep = scala.collection.mutable.SortedSet(ids: _*)
    for (id <- ids; anc <- cube.expls(id).ancestors if anc.order > 0 && cube.contains(anc)) keep += cube.idOf(anc)
    val back = keep.toArray
    (new ExplCube(cube.attrs, cube.times, cube.total, back.toVector.map(cube.expls), back.map(cube.series)), back)
  }

  test("property: guess-and-verify reaches the CA optimum at every measure scale and m̄₀") {
    check(forAllNoShrink(genCase, genM0) { (c, m0) =>
      val gv = new GuessVerify(c.cube, 3, m0 = m0Of(m0, c.cube))
      val ca = new CascadingAnalysts(c.cube, 3)
      val off = c.segments.find(seg => !relClose(gv.topIds(seg).best(3), ca.topIds(seg).best(3)))
      off.isEmpty :| s"Best[m] differs from the CA optimum on $off"
    })
  }

  test("property: guess-and-verify returns parent-cube ids with the cube's γ and τ") {
    check(forAllNoShrink(genCase, genM0) { (c, m0) =>
      val cube = c.cube
      val gv = new GuessVerify(cube, 3, m0 = m0Of(m0, cube))
      val bad = c.segments.find { seg =>
        val t = gv.topIds(seg)
        !t.ids.indices.forall { r =>
          val id = t.ids(r)
          0 <= id && id < cube.epsilon && t.gammas(r) == cube.gamma(id, seg) && t.taus(r) == cube.tau(id, seg)
        }
      }
      bad.isEmpty :| s"ids, γ or τ wrong on $bad"
    })
  }

  test("property: interleaved restricted and unrestricted solves on one CA leak no state") {
    check(forAllNoShrink(genCase, Gen.long) { (c, callSeed) =>
      val cube = c.cube
      val shared = new CascadingAnalysts(cube, 3)
      val rnd = new Random(callSeed)
      val bad = (1 to 12).iterator.map { call =>
        val seg = c.segments(rnd.nextInt(c.segments.size))
        val ok =
          if (rnd.nextBoolean()) sameAnswer(shared.topIds(seg), new CascadingAnalysts(cube, 3).topIds(seg))
          else {
            val within = rnd.shuffle(cube.expls.indices.toVector).toArray
            val count = 1 + rnd.nextInt(cube.epsilon)
            val got = shared.topIds(seg, within, count)
            val (sub, back) = inducedSubCube(cube, within.take(count).toSeq)
            val ref = new CascadingAnalysts(sub, 3).topIds(seg)
            sameAnswer(got, new CascadingAnalysts(cube, 3).topIds(seg, within, count)) &&
              sameAnswer(got, ref.copy(ids = ref.ids.map(back)))
          }
        (call, seg, ok)
      }.find(!_._3)
      bad.isEmpty :| s"call ${bad.map(b => (b._1, b._2))} differs from a fresh instance or the induced sub-cube"
    })
  }

  test("guess-and-verify matches the vanilla CA score on every segment of random cubes") {
    val rnd = new Random(5)
    for (trial <- 1 to 15) {
      val cube = randomCube(rnd)
      val gv = new GuessVerify(cube, 3, m0 = 4) // small m̄ to force escalations
      val ca = new CascadingAnalysts(cube, 3)
      for (i <- 0 until cube.n; j <- i + 1 until cube.n) {
        val seg = Segment(i, j)
        val a = gv.topIds(seg)
        val b = ca.topIds(seg)
        assert(math.abs(a.best(3) - b.best(3)) < 1e-9, s"trial $trial seg [$i,$j]")
        assert(math.abs(a.gammas.sum - b.gammas.sum) < 1e-9, s"selection totals differ [$i,$j]")
      }
    }
  }

  test("returned ids reference the original cube and carry correct γ/τ") {
    val rnd = new Random(17)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3, m0 = 4)
    val seg = Segment(0, cube.n - 1)
    val top = gv.topIds(seg)
    for (r <- top.ids.indices) {
      assert(top.gammas(r) == cube.gamma(top.ids(r), seg))
      assert(top.taus(r) == cube.tau(top.ids(r), seg))
    }
  }

  test("selections are pairwise non-overlapping and within the order bound") {
    val rnd = new Random(23)
    val cube = randomCube(rnd, attrs = 3, vals = 3)
    val gv = new GuessVerify(cube, 3, m0 = 6)
    val top = gv.topIds(Segment(0, cube.n - 1))
    val es = top.ids.map(cube.expls)
    for (i <- es.indices; j <- i + 1 until es.length) assert(es(i).nonOverlapping(es(j)))
    assert(es.forall(_.order <= 3))
  }

  test("tiny m̄ forces escalation but still reaches the optimum") {
    val rnd = new Random(31)
    val cube = randomCube(rnd, vals = 5)
    val gv = new GuessVerify(cube, 3, m0 = 1)
    val ca = new CascadingAnalysts(cube, 3)
    val seg = Segment(0, cube.n - 1)
    assert(math.abs(gv.topIds(seg).best(3) - ca.topIds(seg).best(3)) < 1e-9)
    assert(gv.maxMBarUsed > 1, "must have escalated beyond the initial guess")
  }

  test("m̄ ≥ ε degenerates to the unrestricted CA") {
    val rnd = new Random(37)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3, m0 = cube.epsilon * 2)
    val ca = new CascadingAnalysts(cube, 3)
    val seg = Segment(1, 3)
    assert(gv.topIds(seg).ids.toSeq == ca.topIds(seg).ids.toSeq)
  }

  test("caRuns counts invocations") {
    val rnd = new Random(41)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3)
    gv.topIds(Segment(0, 1))
    gv.topIds(Segment(1, 2))
    assert(gv.caRuns >= 2)
  }

  test("default m̄ is 10·m as used in the paper (m=3 → 30)") {
    val rnd = new Random(43)
    val cube = randomCube(rnd, vals = 6) // ε = 6+6+36 = 48 > 30
    val gv = new GuessVerify(cube, 3)
    gv.topIds(Segment(0, cube.n - 1))
    assert(gv.maxMBarUsed >= 30 || gv.maxMBarUsed == cube.epsilon)
  }
}
