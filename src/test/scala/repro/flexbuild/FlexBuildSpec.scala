package repro.flexbuild

import repro.SparkSpec
import repro.graph.SnbData
import FlexBuild._

class FlexBuildSpec extends SparkSpec {

  private lazy val pg = SnbData.generate(spark, nPersons = 100, seed = 44)

  test("paper manifests validate") {
    assert(validate(Workload2AntiFraud).isRight)
    assert(validate(Workload5BiAnalysis).isRight)
    assert(validate(All).isRight)
  }

  test("front-end without an engine is rejected") {
    val r = validate(Set(CypherFrontend, GraphIr, GrinInterface, VineyardBackend))
    assert(r.isLeft && r.swap.toOption.get.contains("query engine"))
  }

  test("engine without GRIN is rejected") {
    val r = validate(Set(GrapeEngine, BuiltinAlgos))
    assert(r.isLeft && r.swap.toOption.get.contains("GRIN"))
  }

  test("GRIN without a backend is rejected") {
    val r = validate(Set(GrinInterface, GrapeEngine))
    assert(r.isLeft && r.swap.toOption.get.contains("backend"))
  }

  test("optimizer requires GraphIR") {
    assert(validate(Set(QueryOptimizer, GrinInterface, VineyardBackend)).isLeft)
  }

  test("assembled OLTP stack answers Cypher (Workload-5-style but OLTP)") {
    val sel = Set(CypherFrontend, GraphIr, QueryOptimizer, HiActorEngine,
      GrinInterface, VineyardBackend): Set[Component]
    val stack = assemble(spark, sel, pg).toOption.get
    try {
      val r = stack.queryOltp("MATCH (p:PERSON {id: 5}) RETURN p.firstName AS fn")
      assert(r.rows.length == 1)
      // Gremlin front-end was NOT selected — flexbuild must refuse it
      intercept[IllegalArgumentException](stack.queryOltp("g.V(5).out('KNOWS').count()"))
      // Gaia was NOT selected either
      intercept[IllegalArgumentException](
        stack.queryOlap("MATCH (p:PERSON) RETURN count(*) AS c"))
    } finally stack.shutdown()
  }

  test("assembled analytics stack runs PageRank (Workload-2 manifest)") {
    val stack = assemble(spark, Workload2AntiFraud, pg).toOption.get
    val pr = stack.pageRank(5)
    assert(math.abs(pr.sum - 1.0) < 1e-6)
    val want = repro.exp.GrinAlgos.pageRank(stack.grin.get, 5)
    assert(pr.length == want.length && pr.indices.forall(v => math.abs(pr(v) - want(v)) < 1e-9))
    intercept[IllegalArgumentException](
      stack.queryOltp("MATCH (p:PERSON) RETURN count(*) AS c"))
  }

  test("assembled OLAP stack on the GraphAr backend (Workload-5 manifest)") {
    val stack = assemble(spark, Workload5BiAnalysis, pg).toOption.get
    val df = stack.queryOlap(
      "MATCH (p:PERSON) RETURN p.country AS c, count(*) AS cnt")
    assert(df.collect().map(_.getLong(1)).sum == 100)
  }

  test("invalid manifests fail assembly, not runtime") {
    assert(assemble(spark, Set(GrapeEngine), pg).isLeft)
  }
}
