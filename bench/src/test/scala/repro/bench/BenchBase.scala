package repro.bench

import repro.SparkSpec

/** Base for bench suites: prints each experiment's paper-style table, saves
  * it under bench_reports/, and asserts only *lenient shape invariants*
  * (which system wins, roughly by how much) so benches are robust to
  * machine noise. Absolute numbers go into EXPERIMENTS.md.
  */
trait BenchBase extends SparkSpec {

  /** Reduced-scale run when BENCH_QUICK=1 (CI smoke). */
  def quick: Boolean = sys.env.get("BENCH_QUICK").contains("1")

  def emit(name: String, report: String): Unit = {
    println(report)
    val dir = new java.io.File(sys.props.getOrElse("bench.reports.dir",
      new java.io.File("..", "bench_reports").getPath))
    dir.mkdirs()
    val w = new java.io.PrintWriter(new java.io.File(dir, s"$name.txt"), "UTF-8")
    try w.print(report) finally w.close()
  }

  def geoMean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
}
