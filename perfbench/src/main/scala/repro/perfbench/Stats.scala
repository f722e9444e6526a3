package repro.perfbench

/** Summary statistics behind the reported timings. */
object Stats {

  /** Median with the middle pair averaged for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val h = s.size / 2
    if (s.size % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2.0
  }

  /** Number of samples that lie beyond the nearest-rank `p`-th percentile of
    * `n` samples: n − ⌈n·p/100⌉, in integers so p90 of 100 samples leaves 10.
    */
  def beyond(n: Int, p: Int): Int = n - (n * p + 99) / 100

  /** Nearest-rank `p`-th percentile, or None when fewer than `minBeyond`
    * samples lie beyond it — a tail figure resting on a handful of samples
    * is noise, so none is reported.
    */
  def percentile(xs: Seq[Double], p: Int, minBeyond: Int = 10): Option[Double] = {
    require(p > 0 && p < 100, s"percentile $p outside (0, 100)")
    if (xs.isEmpty || beyond(xs.size, p) < minBeyond) None
    else Some(xs.sorted.apply((xs.size * p + 99) / 100 - 1))
  }
}
