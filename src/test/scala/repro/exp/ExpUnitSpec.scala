package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Small units of the experiment harness itself. */
class ExpUnitSpec extends AnyFunSuite {

  test("table renders aligned columns") {
    val t = Timing.table(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.forall(_.contains("  ")))
  }

  test("fmt picks sensible units") {
    assert(Timing.fmt(2500) == "2.50s")
    assert(Timing.fmt(5.2) == "5.2ms")
    assert(Timing.fmt(0.004).endsWith("µs"))
  }

  test("bestOf <= meanOf on a monotone workload") {
    var x = 0L
    def work(): Long = { x += 1; Thread.sleep(1); x }
    val best = Timing.bestOfMs(3)(work())
    val mean = Timing.meanOfMs(3)(work())
    assert(best > 0 && mean > 0)
  }
}

/** GRIN-generic algorithm sanity on a known graph. */
class GrinAlgosSpec extends SparkSpec {
  test("GRIN pageRank/edgeScan agree with the reference") {
    val edges = repro.graph.GraphGen.simplify(
      repro.graph.GraphGen.rmat(spark, 9, 2500, seed = 71))
    val pgE = repro.graph.PropertyGraph.fromEdges(spark, edges)
    val store = repro.storage.VineyardStore.fromPropertyGraph(pgE)
    val csr = store.csr
    val pr = GrinAlgos.pageRank(store, 8)
    val want = repro.analytics.Reference.pageRank(csr, 8)
    assert(pr.zip(want).map { case (a, b) => math.abs(a - b) }.max < 1e-9)
    val (sum, m) = GrinAlgos.edgeScan(store)
    assert(m == csr.m)
    assert(sum == csr.scanSum())
  }
}
