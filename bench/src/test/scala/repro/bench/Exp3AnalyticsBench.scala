package repro.bench

import repro.exp.Exp3Analytics

/** Fig. 7h–k reproduction: PageRank + BFS across engines. */
class Exp3AnalyticsBench extends BenchBase {

  private lazy val r = Exp3Analytics.run(spark, quick)

  test("report") { emit("exp3-analytics", Exp3Analytics.report(r)) }

  test("shape: GRAPE beats PowerGraph-sim everywhere, by a large factor (paper 25.1x)") {
    val sp = Exp3Analytics.speedups(r, "PowerGraph")
    assert(sp.forall(_ > 1.5), s"per-case speedups $sp")
    assert(geoMean(sp) > 3, s"mean vs PowerGraph only ${geoMean(sp)}x")
  }

  test("shape: GRAPE at least matches Gemini-sim (paper 2.3x)") {
    val sp = Exp3Analytics.speedups(r, "Gemini")
    assert(geoMean(sp) > 0.9, s"mean vs Gemini ${geoMean(sp)}x")
  }

  test("shape: GRAPE at least matches the GPU-scheduler analogues (paper 3.3x)") {
    assert(geoMean(Exp3Analytics.speedups(r, "Groute")) > 0.9)
    assert(geoMean(Exp3Analytics.speedups(r, "Gunrock")) > 0.9)
  }

  test("shape: PowerGraph-sim is the slowest CPU engine on PageRank") {
    // The per-edge boxed-message overhead dominates PageRank (every edge,
    // every iteration); BFS frontiers are small so the gap is noisier there.
    r.rows.filter(_.algo == "PageRank").groupBy(_.graph).foreach { case (g, rows) =>
      def of(e: String) = rows.find(_.engine == e).get.ms
      assert(of("PowerGraph") > of("GRAPE"), s"PageRank/$g")
      assert(of("PowerGraph") > of("Gemini"), s"PageRank/$g: Gemini should beat PowerGraph")
    }
  }

  test("varint message encoding is >3x smaller than raw records (§6)") {
    assert(r.varintRatio > 3, s"ratio ${r.varintRatio}")
  }
}
