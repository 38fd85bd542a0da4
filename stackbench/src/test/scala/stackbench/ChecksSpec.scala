package stackbench

import org.scalatest.funsuite.AnyFunSuite
import repro.analytics.grape.{Fragment, GrapeEngine}
import repro.graph.LocalCsr
import repro.learning.{Batch, FeatureStore, NeighborSampler}
import repro.query.{CypherParser, HiActorExec, Optimizer}

/** Each check passes the engine's real output and rejects it once one
  * value is corrupted.
  */
class ChecksSpec extends AnyFunSuite {
  private val rng = new java.util.Random(5)
  private val m = 4000
  private val srcExt = Array.fill(m)(rng.nextInt(500).toLong * 3 + 7)
  private val dstExt = Array.fill(m)(rng.nextInt(500).toLong * 3 + 7)
  private val keep = srcExt.indices.filter(i => srcExt(i) != dstExt(i))
    .groupBy(i => (srcExt(i), dstExt(i))).values.map(_.head).toArray.sorted
  private val s = keep.map(srcExt); private val d = keep.map(dstExt)
  private val el = EdgeList(s, d)
  private val csr = LocalCsr.build(s, d)
  private val frags = Fragment.partition(csr, 3)

  test("BFS check rejects one distance off by one") {
    val src = (0 until el.n).maxBy(el.outDegree)
    val got = GrapeEngine.bfs(frags, src)
    assert(Checks.bfsMatches("bfs", el, src, got, Checks.bfs(el, src)).isEmpty)
    val v = got.indices.find(i => got(i) > 1).get
    got(v) += 1
    assert(Checks.bfsMatches("bfs", el, src, got, Checks.bfs(el, src)).nonEmpty)
  }

  test("BFS check rejects distances that break an edge even when the oracle agrees") {
    val src = (0 until el.n).maxBy(el.outDegree)
    val got = GrapeEngine.bfs(frags, src)
    val e = el.src.indices.find(i => got(el.src(i)) >= 0 && got(el.dst(i)) == got(el.src(i)) + 1).get
    got(el.dst(e)) += 1
    assert(Checks.bfsMatches("bfs", el, src, got, got.clone()).nonEmpty)
  }

  test("PageRank check rejects one perturbed entry") {
    val got = GrapeEngine.pageRank(frags, 10)
    val want = Checks.pageRank(el, 10)
    assert(Checks.pageRankMatches("pr", got, want).isEmpty)
    got(17) += 1e-7
    assert(Checks.pageRankMatches("pr", got, want).nonEmpty)
  }

  test("row check rejects a HiActor result with one row dropped") {
    val g = Load.vineyardOf(csr)
    val plan = Optimizer.optimize(CypherParser.parse("MATCH (a:V {id: $id})-[:E]->(b:V) RETURN b.id AS id"))
    val v = (0 until el.n).maxBy(el.outDegree)
    val rows = HiActorExec.execute(plan, g, Map("id" -> el.extIds(v))).rows.map(r => Checks.canon(r.head))
    val want = (el.off(v) until el.off(v + 1)).map(i => el.extIds(el.adj(i)).toString)
    assert(rows.size > 2 && Checks.rowsMatch("rows", rows, want).isEmpty)
    assert(Checks.rowsMatch("rows", rows.drop(1), want).nonEmpty)
  }

  test("batch check rejects a neighbour index that names a non-neighbour") {
    val g = Load.vineyardOf(csr)
    val fanouts = Array(5, 3)
    val store = new FeatureStore(g.vertexCount, 4, 4, nParts = 1, seed = 1)
    val b = new NeighborSampler(g, store, fanouts, 3).sample(Array.tabulate(64)(identity), 0)
    assert(Checks.batchValid("batch", b, fanouts, el.hasEdge).isEmpty)
    val owner = b.nbrPtr(0).indexWhere(_ > 0) - 1
    val self = b.levels(0)(owner)
    val bad = b.levels(1).indexWhere(u => u != self && !el.hasEdge(self, u))
    val idx = b.nbrIdx(0).clone(); idx(b.nbrPtr(0)(owner)) = bad
    val corrupted = new Batch(b.levels, b.selfIdx, b.nbrPtr, Array(idx, b.nbrIdx(1)), b.feats, b.labels)
    assert(Checks.batchValid("batch", corrupted, fanouts, el.hasEdge).nonEmpty)
  }

  test("edge-total check rejects a count off by one") {
    val (gart, _, _, _) = Load.streamIntoGart(el, Load.shuffled(el.m, 9), 100)
    val counted = gart.snapshot().edgeCount
    assert(Checks.countMatches("edges", counted, el.distinctEdges).isEmpty)
    assert(Checks.countMatches("edges", counted + 1, el.distinctEdges).nonEmpty)
  }
}
