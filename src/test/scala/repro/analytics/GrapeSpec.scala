package repro.analytics

import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.analytics.grape._
import repro.graph.{GraphGen, LocalCsr}
import repro.storage.VineyardStore

class GrapeSpec extends SparkSpec {

  private lazy val rmatCsr = LocalCsr.fromDataFrame(
    GraphGen.simplify(GraphGen.rmat(spark, scale = 11, edges = 12000, seed = 21)))
  private lazy val uniCsr = LocalCsr.fromDataFrame(
    GraphGen.uniform(spark, n = 1500, edges = 9000, seed = 22))
  private lazy val csrs = Seq("rmat" -> rmatCsr, "uniform" -> uniCsr)

  // the 4-vertex star 0 -> {1, 2, 3}: its leaves dangle
  private lazy val star = LocalCsr.build(Array(0L, 0L, 0L), Array(1L, 2L, 3L))

  private def maxDiff(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => math.abs(x - y) }.max

  /** A comparator's 10-round PageRank on the uniform and RMAT graphs and the star. */
  private def assertMatchesReference(pageRank: (LocalCsr, Int) => Array[Double]): Unit =
    (csrs :+ ("star" -> star)).foreach { case (name, csr) =>
      assert(maxDiff(pageRank(csr, 10), Reference.pageRank(csr, 10)) < 1e-9, name)
    }

  test("fragment partition preserves every edge exactly once") {
    csrs.foreach { case (name, csr) =>
      val frags = Fragment.partition(csr, 8)
      assert(frags.map(_.edgeCount).sum == csr.m, name)
      assert(frags.map(_.innerCount).sum == csr.n, name)
      // spot-check adjacency of 50 vertices
      val bs = frags(0).blockSize
      (0 until math.min(50, csr.n)).foreach { v =>
        val f = frags(v / bs)
        val i = v % bs
        val got = (f.off(i) until f.off(i + 1)).map(f.dst).sorted
        val want = (csr.outOff(v) until csr.outOff(v + 1)).map(csr.outDst).sorted
        assert(got == want, s"$name vertex $v")
      }
    }
  }

  test("fragment in-edges, mapped back through outer, are the CSR's in-edges") {
    csrs.foreach { case (name, csr) =>
      Seq(1, 3, 8).foreach { nF =>
        Fragment.partition(csr, nF).foreach { f =>
          val (lo, hi) = (f.globalOf(0), f.globalOf(f.innerCount))
          def global(s: Int) = if (s < f.innerCount) lo + s else f.outer(s - f.innerCount)
          val got = (0 until f.innerCount).flatMap { i =>
            (f.inOff(i) until f.inOff(i + 1)).map(e => (lo + i, global(f.inSrc(e))))
          }.sorted
          val want = (lo until hi).flatMap(v => (csr.inOff(v) until csr.inOff(v + 1)).map(e => (v, csr.inSrc(e)))).sorted
          assert(got == want, s"$name nFrags=$nF fragment ${f.fid}")
          val outerWant = want.map(_._2).filter(s => s < lo || s >= hi).distinct.sorted
          assert(f.outer.toSeq == outerWant, s"$name nFrags=$nF fragment ${f.fid}")
          (0 until nF).foreach { g =>
            assert((f.outerOff(g) until f.outerOff(g + 1)).forall(k => f.outer(k) / f.blockSize == g))
          }
        }
      }
    }
  }

  test("partition and fromGrin over Vineyard give identical fragments") {
    csrs.foreach { case (name, csr) =>
      val vineyard = new VineyardStore(csr, new Array[Int](csr.n), Array("V"), Map.empty,
        new Array[Int](csr.m), Array("E"), new Array[Long](csr.m), Array.fill(csr.m)(1.0))
      Seq(1, 3, 8).foreach { nF =>
        Fragment.partition(csr, nF).zip(Fragment.fromGrin(vineyard, nF)).foreach { case (a, b) =>
          val clue = s"$name nFrags=$nF fragment ${a.fid}"
          assert(a.innerCount == b.innerCount && a.edgeCount == b.edgeCount, clue)
          (0 until a.innerCount).foreach { i =>
            assert(a.dst.slice(a.off(i), a.off(i + 1)).toSeq == b.dst.slice(b.off(i), b.off(i + 1)).toSeq, clue)
          }
          assert(a.inOff.toSeq == b.inOff.toSeq && a.inSrc.toSeq == b.inSrc.toSeq, clue)
          assert(a.outer.toSeq == b.outer.toSeq, clue)
        }
      }
    }
  }

  test("grape BFS goes bottom-up on the RMAT graph and matches the reference") {
    val src = (0 until rmatCsr.n).maxBy(rmatCsr.outDegree)
    Seq(1, 2, 8).foreach { nF =>
      val (dist, stats) = GrapeEngine.bfsWithStats(Fragment.partition(rmatCsr, nF), src)
      assert(stats.pullRounds >= 1, s"nFrags=$nF: no bottom-up level in ${stats.byRound}")
      assert(dist.toSeq == Reference.bfs(rmatCsr, src).toSeq, s"nFrags=$nF")
    }
  }

  test("grape BFS follows edge direction when it goes bottom-up") {
    // hub 0 -> 1..200, a one-way chain 200 -> 201 -> ... -> 260, and edges
    // into the reached part from vertices the hub cannot reach: 301..400 -> 0
    // and the chain 461 -> ... -> 500 -> 1. A bottom-up step that read
    // out-edges would settle those.
    val edges = (1 to 200).map(0 -> _) ++ (200 until 260).map(v => v -> (v + 1)) ++
      (301 to 400).map(_ -> 0) ++ (461 until 500).map(v => v -> (v + 1)) ++ Seq(500 -> 1)
    val csr = LocalCsr.build(edges.map(_._1.toLong).toArray, edges.map(_._2.toLong).toArray)
    Seq(0L, 461L, 200L).foreach { ext =>
      val src = csr.idMap.get(ext)
      Seq(1, 2, 3).foreach { nF =>
        val (dist, stats) = GrapeEngine.bfsWithStats(Fragment.partition(csr, nF), src)
        if (ext == 0L) assert(stats.pullRounds >= 1, s"nFrags=$nF: no bottom-up level")
        assert(dist.toSeq == Reference.bfs(csr, src).toSeq, s"source $ext nFrags=$nF")
      }
    }
  }

  test("grape BFS matches DuckDB recursive CTE") {
    val edges = GraphGen.simplify(GraphGen.rmat(spark, scale = 8, edges = 1200, seed = 41)).cache()
    val csr = LocalCsr.fromDataFrame(edges)
    val src = (0 until csr.n).maxBy(csr.outDegree)
    import spark.implicits._
    Seq(1, 2, 8).foreach { nF =>
      val dist = GrapeEngine.bfs(Fragment.partition(csr, nF), src)
      val got = dist.indices.filter(dist(_) >= 0).map(v => (csr.extIds(v), dist(v).toLong)).toDF("id", "dist")
        .select(col("id"), col("dist"))
      Oracle.assertEquivalent(got,
        s"""WITH RECURSIVE r(id, dist) AS (
              SELECT CAST(${csr.extIds(src)} AS BIGINT), CAST(0 AS BIGINT)
              UNION
              SELECT CAST(e.dst AS BIGINT), r.dist + 1
              FROM r JOIN e ON CAST(e.src AS BIGINT) = r.id
              WHERE r.dist < 50
            )
            SELECT id, min(dist) AS dist FROM r GROUP BY id""",
        "e" -> edges)
    }
  }

  test("grape BFS matches the sequential reference on a high-diameter graph") {
    val grid = LocalCsr.fromDataFrame(GraphGen.highDiameter(spark, side = 10, shortcutFrac = 0.0))
    val src = grid.idMap.get(0L)
    Seq(1, 2, 8).foreach { nF =>
      assert(GrapeEngine.bfs(Fragment.partition(grid, nF), src).toSeq == Reference.bfs(grid, src).toSeq,
        s"nFrags=$nF")
    }
  }

  test("grape PageRank matches the sequential reference") {
    csrs.foreach { case (name, csr) =>
      val frags = Fragment.partition(csr, 8)
      val got = GrapeEngine.pageRank(frags, iters = 15)
      val want = Reference.pageRank(csr, iters = 15)
      assert(maxDiff(got, want) < 1e-9, name)
      assert(math.abs(got.sum - 1.0) < 1e-6, s"$name ranks must sum to 1")
    }
  }

  test("grape BFS matches the sequential reference") {
    csrs.foreach { case (name, csr) =>
      val frags = Fragment.partition(csr, 8)
      val src = (0 until csr.n).maxBy(csr.outDegree)
      assert(GrapeEngine.bfs(frags, src).toSeq == Reference.bfs(csr, src).toSeq, name)
    }
  }

  test("grape works with any fragment count") {
    val sym = symmetrize(uniCsr)
    val wantWcc = groups(Reference.wcc(sym))
    val rng = new java.util.Random(31)
    val weights = Array.fill(uniCsr.m)(0.5 + rng.nextDouble())
    val wantSssp = Reference.sssp(uniCsr, weights, 0)
    val src = (0 until uniCsr.n).maxBy(uniCsr.outDegree)
    Seq(1, 2, 3, 8, 16).foreach { nF =>
      val frags = Fragment.partition(uniCsr, nF)
      val got = GrapeEngine.pageRank(frags, 5)
      assert(maxDiff(got, Reference.pageRank(uniCsr, 5)) < 1e-9, s"PageRank nFrags=$nF")
      assert(GrapeEngine.bfs(frags, src).toSeq == Reference.bfs(uniCsr, src).toSeq, s"BFS nFrags=$nF")
      assert(groups(wcc(sym, nF)._1) == wantWcc, s"WCC nFrags=$nF")
      assertSssp(sssp(uniCsr, weights, nF, 0), wantSssp, s"SSSP nFrags=$nF")
    }
  }

  test("grape works with more fragments than vertices") {
    // the star on 8 fragments: four stay empty
    val frags = Fragment.partition(star, 8)
    assert(frags.count(_.innerCount == 0) == 4)
    assert(maxDiff(GrapeEngine.pageRank(frags, 10), Reference.pageRank(star, 10)) < 1e-9)
    assert(GrapeEngine.bfs(frags, 0).toSeq == Reference.bfs(star, 0).toSeq)
    assert(GrapeEngine.bfs(frags, 2).toSeq == Reference.bfs(star, 2).toSeq)
    val sym = symmetrize(star)
    assert(groups(wcc(sym, 8)._1) == groups(Reference.wcc(sym)))
    val weights = Array(1.5, 0.5, 2.0)
    assertSssp(sssp(star, weights, 8, 0), Reference.sssp(star, weights, 0), "star")
  }

  test("grape PageRank and BFS are deterministic") {
    csrs.foreach { case (name, csr) =>
      val frags = Fragment.partition(csr, 4)
      val src = (0 until csr.n).maxBy(csr.outDegree)
      assert(java.util.Arrays.equals(GrapeEngine.pageRank(frags, 10), GrapeEngine.pageRank(frags, 10)), name)
      assert(java.util.Arrays.equals(GrapeEngine.bfs(frags, src), GrapeEngine.bfs(frags, src)), name)
    }
  }

  test("PowerGraph-sim PageRank matches reference") {
    assertMatchesReference(Baselines.PowerGraphSim.pageRank)
  }

  test("Gemini-sim PageRank matches reference") {
    assertMatchesReference(Baselines.GeminiSim.pageRank)
  }

  test("Groute-sim PageRank matches reference") {
    assertMatchesReference(Baselines.GrouteSim.pageRank)
  }

  test("Gunrock-sim PageRank matches reference") {
    assertMatchesReference(Baselines.GunrockSim.pageRank)
  }

  test("all BFS engines agree with the reference") {
    val grid = LocalCsr.fromDataFrame(GraphGen.highDiameter(spark, side = 10, shortcutFrac = 0.0))
    (csrs ++ Seq("star" -> star, "grid" -> grid)).foreach { case (name, csr) =>
      val src = (0 until csr.n).maxBy(csr.outDegree)
      val want = Reference.bfs(csr, src).toSeq
      assert(Baselines.PowerGraphSim.bfs(csr, src).toSeq == want, s"$name powergraph")
      assert(Baselines.GeminiSim.bfs(csr, src).toSeq == want, s"$name gemini")
      assert(Baselines.GrouteSim.bfs(csr, src).toSeq == want, s"$name groute")
      assert(Baselines.GunrockSim.bfs(csr, src).toSeq == want, s"$name gunrock")
    }
  }

  test("WCC via PIE matches reference components (symmetrized)") {
    val sym = symmetrize(uniCsr)
    val (got, rounds) = wcc(sym, 8)
    // same partition of vertices into components
    assert(groups(got) == groups(Reference.wcc(sym)))
    assert(rounds < 50, s"PIE should converge quickly, took $rounds rounds")
  }

  test("PIE converges in fewer rounds than vertex-centric would need") {
    // local fixpoint inside fragments ⇒ rounds ≈ fragment-hop diameter, far
    // below the graph's vertex-hop diameter (GRAPE's PEval advantage)
    val grid = LocalCsr.fromDataFrame(GraphGen.highDiameter(spark, side = 14, shortcutFrac = 0.0))
    val sym = symmetrize(grid)
    val (_, rounds) = wcc(sym, 4)
    val vertexDiameter = Reference.bfs(sym, 0).max
    assert(rounds < vertexDiameter, s"PIE rounds $rounds vs diameter $vertexDiameter")
  }

  test("SSSP in the Pregel model matches Dijkstra") {
    val rng = new java.util.Random(31)
    val weights = Array.fill(uniCsr.m)(0.5 + rng.nextDouble())
    assertSssp(sssp(uniCsr, weights, 8, 0), Reference.sssp(uniCsr, weights, 0), "uniform")
  }

  test("k-core via FLASH matches reference peeling") {
    val sym = symmetrize(rmatCsr)
    (2 to 5).foreach { k =>
      assert(Flash.kCore(sym, k).toSeq == Reference.kCore(sym, k).toSeq, s"k=$k")
    }
  }

  test("FLASH vertexMap/edgeMap primitives") {
    val csr = LocalCsr.build(Array(0L, 0L, 1L), Array(1L, 2L, 2L))
    val u = Flash.vertexMap(Flash.all(3), _ == 0)
    assert(u.size == 1)
    val touched = Flash.edgeMap(csr, u, (_, _) => true)
    assert((0 until 3).filter(touched.contains) == Seq(1, 2))
  }

  test("varint message encoding shrinks sorted-vid batches (§6 claim)") {
    val vids = Array.tabulate(10000)(i => i * 3)
    val values = Array.fill(10000)(7L)
    val (varintBytes, rawBytes) = GrapeEngine.messageBytesVarint(vids, values)
    assert(varintBytes < rawBytes / 4,
      s"varint $varintBytes should be <25% of raw $rawBytes")
  }

  test("dangling vertices keep PageRank a distribution") {
    val frags = Fragment.partition(star, 2)
    val pr = GrapeEngine.pageRank(frags, 30)
    assert(math.abs(pr.sum - 1.0) < 1e-9)
    assert(pr(1) > pr(0), "leaves receive mass from the hub")
  }

  /** WCC labels by global id, and the IncEval rounds PIE needed. */
  private def wcc(sym: LocalCsr, nF: Int): (Array[Int], Int) = {
    val frags = Fragment.partition(sym, nF)
    val pie = new WccPie(frags)
    val rounds = Pie.run(frags, pie).rounds
    (pie.labels, rounds)
  }

  /** The vertex sets of the components a labelling induces. */
  private def groups(labels: Array[Int]): Set[Set[Int]] =
    labels.zipWithIndex.groupBy(_._1).values.map(_.map(_._2).toSet).toSet

  private def sssp(csr: LocalCsr, weights: Array[Double], nF: Int, src: Int): Array[Double] =
    Pregel.run(Fragment.partition(csr, nF, weights), new SsspPregel(src), maxSupersteps = 200)

  private def assertSssp(got: Array[Double], want: Array[Double], clue: String): Unit =
    want.indices.foreach { v =>
      assert(math.abs(got(v) - want(v)) < 1e-9 || (got(v).isInfinity && want(v).isInfinity), s"$clue v=$v")
    }

  private def symmetrize(csr: LocalCsr): LocalCsr = {
    val src = new scala.collection.mutable.ArrayBuffer[Long]()
    val dst = new scala.collection.mutable.ArrayBuffer[Long]()
    val seen = scala.collection.mutable.HashSet.empty[(Int, Int)]
    var v = 0
    while (v < csr.n) {
      var e = csr.outOff(v)
      while (e < csr.outOff(v + 1)) {
        val u = csr.outDst(e)
        if (seen.add((v, u))) { src += v; dst += u }
        if (seen.add((u, v))) { src += u; dst += v }
        e += 1
      }
      v += 1
    }
    LocalCsr.build(src.toArray, dst.toArray, Array.tabulate(csr.n)(_.toLong))
  }
}
