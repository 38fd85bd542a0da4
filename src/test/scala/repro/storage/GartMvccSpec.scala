package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.grin.Direction

class GartMvccSpec extends AnyFunSuite {

  private def neighbors(s: GartSnapshot, v: Int, dir: Direction.Value = Direction.Out): Seq[Long] = {
    val c = s.newCursor(dir).seek(v)
    val out = Seq.newBuilder[Long]
    while (c.moveNext()) out += s.externalId(c.neighbor)
    out.result().sorted
  }

  /** Out-neighbours in cursor order (append order), not sorted. */
  private def appendOrder(s: GartSnapshot, v: Int): Seq[Int] = {
    val c = s.newCursor(Direction.Out).seek(v)
    val out = Seq.newBuilder[Int]
    while (c.moveNext()) out += s.externalId(c.neighbor).toInt
    out.result()
  }

  test("uncommitted writes are invisible") {
    val g = new GartStore(8)
    g.addVertex(1, "V"); g.addVertex(2, "V")
    g.commit()
    val snap = g.snapshot()
    g.addEdge(1, 2, "E", 0, 1.0)
    assert(neighbors(snap, snap.internalId(1)).isEmpty)
    assert(neighbors(g.snapshot(), 0).isEmpty, "still uncommitted")
    g.commit()
    assert(neighbors(g.snapshot(), g.snapshot().internalId(1)) == Seq(2L))
    assert(neighbors(snap, snap.internalId(1)).isEmpty, "old snapshot stays frozen")
  }

  test("snapshots are versioned and stable") {
    val g = new GartStore(8)
    (1 to 5).foreach(i => g.addVertex(i, "V"))
    g.commit()
    val versions = (1 to 4).map { i =>
      g.addEdge(i, i + 1, "E", i, 1.0)
      g.commit()
    }
    assert(versions == (2 to 5))
    (1 to 4).foreach { k =>
      val s = g.snapshotAt(versions(k - 1))
      val total = (0 until s.vertexCount).map(v => neighbors(s, v).size).sum
      assert(total == k, s"snapshot at version ${versions(k - 1)} sees $total edges")
      // every commit here compacts, so versions before 5 read an older-than-base view
      assert(s.stats == GartStats(versions(k - 1), 5, k, 0, 0))
      assert(s.edgeCount == k)
      assert((0 until s.vertexCount).map(v => s.degree(v, Direction.Out)).sum == k)
    }
  }

  test("new vertices become visible only after commit") {
    val g = new GartStore(4)
    g.addVertex(1, "A")
    g.commit()
    val s1 = g.snapshot()
    g.addVertex(2, "A")
    assert(s1.vertexCount == 1)
    assert(g.snapshot().vertexCount == 1)
    g.commit()
    assert(g.snapshot().vertexCount == 2)
    assert(s1.internalId(2) == -1, "old snapshot must not resolve the new id")
  }

  test("in-direction mirrors out-direction") {
    val g = new GartStore(8)
    (1 to 3).foreach(i => g.addVertex(i, "V"))
    g.addEdge(1, 3, "E", 0, 1.0)
    g.addEdge(2, 3, "E", 0, 1.0)
    g.commit()
    val s = g.snapshot()
    assert(neighbors(s, s.internalId(3), Direction.In) == Seq(1L, 2L))
    assert(neighbors(s, s.internalId(3), Direction.Out).isEmpty)
  }

  test("block chaining handles high-degree vertices") {
    val g = new GartStore(4)
    g.addVertex(0, "V")
    (1 to 5000).foreach(i => g.addVertex(i, "V"))
    (1 to 5000).foreach(i => g.addEdge(0, i, "E", i, 1.0))
    g.commit()
    val s = g.snapshot()
    assert(s.degree(s.internalId(0), Direction.Out) == 5000)
    assert(neighbors(s, s.internalId(0)) == (1 to 5000).map(_.toLong))
    assert(s.stats.deltaEdges == 0, "a bulk load ends compacted")
    // 300 more edges stay in the delta: 6 blocks of 8, 16, ..., 128 and 52 slots
    (1 to 300).foreach(i => g.addEdge(0, i, "E", i, 1.0))
    g.commit()
    val s2 = g.snapshot()
    assert(s2.stats == GartStats(2, 1, 5000, 300, 6))
    assert(s2.degree(0, Direction.Out) == 5300 && s2.edgeCount == 5300)
    assert(appendOrder(s2, 0) == (1 to 5000) ++ (1 to 300))
    assert(s.degree(0, Direction.Out) == 5000, "the older snapshot stops at the first newer edge")
  }

  test("edge properties survive through the cursor") {
    val g = new GartStore(4)
    g.addVertex(1, "V"); g.addVertex(2, "V")
    g.addEdge(1, 2, "BUY", ts = 777, weight = 2.5)
    g.commit()
    val s = g.snapshot()
    val c = s.newCursor(Direction.Out).seek(s.internalId(1))
    assert(c.moveNext())
    assert(c.ts == 777 && c.weight == 2.5)
    assert(s.edgeLabelName(c.edgeLabelId) == "BUY")
    assert(!c.moveNext())
  }

  test("edge properties survive compaction, in both directions") {
    val g = new GartStore(4)
    (0 until 40).foreach(i => g.addVertex(i, "V"))
    def props(s: GartSnapshot, v: Int, dir: Direction.Value): Seq[(Long, String, Long, Double)] = {
      val c = s.newCursor(dir).seek(v)
      val out = Seq.newBuilder[(Long, String, Long, Double)]
      while (c.moveNext()) out += ((s.externalId(c.neighbor), s.edgeLabelName(c.edgeLabelId), c.ts, c.weight))
      out.result()
    }
    val want = Seq.newBuilder[(Long, String, Long, Double)]
    (1 to 39).foreach { i =>
      val e = (i.toLong, if (i % 3 == 0) "SELL" else "BUY", 100L * i, i + 0.25)
      g.addEdge(0, e._1, e._2, e._3, e._4)
      want += e
      g.commit()
      val s = g.snapshot()
      assert(props(s, 0, Direction.Out) == want.result(), s"after commit ${s.version}")
      assert(props(s, i, Direction.In) == Seq((0L, e._2, e._3, e._4)))
    }
    val st = g.snapshot().stats
    assert(st.baseVersion > 2 && st.baseEdges > 0 && st.deltaEdges > 0,
      s"the edges span a compacted base and the delta: $st")
  }

  test("concurrent reader sees a consistent edge count while writer appends") {
    val g = new GartStore(128)
    (0 until 100).foreach(i => g.addVertex(i, "V"))
    g.commit()
    val rng = new java.util.Random(5)
    @volatile var stop = false
    val errors = new java.util.concurrent.atomic.AtomicInteger(0)
    val readers = (0 until 4).map { _ =>
      val t = new Thread(() => {
        while (!stop) {
          val s = g.snapshot()
          val c1 = (0 until s.vertexCount).map(v => s.degree(v, Direction.Out)).sum
          // the same snapshot must count the same edges on a second pass
          val c2 = (0 until s.vertexCount).map(v => s.degree(v, Direction.Out)).sum
          if (c1 != c2) errors.incrementAndGet()
        }
      })
      t.start(); t
    }
    (0 until 200).foreach { _ =>
      (0 until 20).foreach { _ =>
        g.addEdge(rng.nextInt(100), rng.nextInt(100), "E", 0, 1.0)
      }
      g.commit()
    }
    stop = true
    readers.foreach(_.join())
    assert(errors.get() == 0, "snapshot reads were not repeatable")
    val s = g.snapshot()
    assert((0 until s.vertexCount).map(v => s.degree(v, Direction.Out)).sum == 4000)
  }

  test("vertex props are readable through the snapshot") {
    val g = new GartStore(4)
    g.addVertex(1, "PERSON", Map("firstName" -> "Ana", "age" -> 30L))
    g.commit()
    val s = g.snapshot()
    val v = s.internalId(1)
    assert(s.vertexProp(v, "firstName") == "Ana")
    assert(s.vertexProp(v, "age") == 30L)
    assert(s.vertexProp(v, "missing") == null)
    assert(s.vertexProp(v, "label") == "PERSON")
  }

  test("neighbour order is append order across compactions; the delta stays bounded") {
    val g = new GartStore(16)
    (0 until 64).foreach(i => g.addVertex(i, "V"))
    g.commit()
    val rng = new java.util.Random(3)
    val appended = Array.fill(64)(Vector.newBuilder[Int])
    val baseVersions = scala.collection.mutable.Set.empty[Int]
    (1 to 300).foreach { _ =>
      (0 until 1 + rng.nextInt(12)).foreach { _ =>
        val s = rng.nextInt(8); val d = rng.nextInt(64)
        g.addEdge(s, d, "E", 0, 1.0); appended(s) += d
      }
      g.commit()
      val snap = g.snapshot()
      (0 until 8).foreach(v => assert(appendOrder(snap, v) == appended(v).result(), s"vertex $v"))
      val st = snap.stats
      assert(8 * st.deltaEdges < st.baseEdges + snap.vertexCount, s"delta over its bound: $st")
      assert(st.baseEdges + st.deltaEdges == snap.edgeCount)
      baseVersions += st.baseVersion
    }
    assert(baseVersions.size >= 5, s"only ${baseVersions.size} compactions")
  }

  test("vertices added after a compaction") {
    val g = new GartStore(4)
    (0 until 10).foreach(i => g.addVertex(i, "V"))
    (1 until 10).foreach(i => g.addEdge(0, i, "E", 0, 1.0))
    g.commit()
    val s0 = g.snapshot()
    assert(s0.stats == GartStats(1, 1, 9, 0, 0))
    g.addVertex(10, "W"); g.addVertex(11, "W")
    g.addEdge(10, 11, "E", 0, 1.0); g.addEdge(0, 10, "E", 0, 1.0)
    g.commit()
    val s1 = g.snapshot()
    assert(s1.stats.baseVersion == 1 && s1.stats.deltaEdges == 2)
    assert(s1.vertexCount == 12 && s1.internalId(11) == 11)
    assert(neighbors(s1, 10) == Seq(11L) && neighbors(s1, 11, Direction.In) == Seq(10L))
    assert(s1.degree(10, Direction.In) == 1 && s1.degree(11, Direction.Out) == 0)
    assert(s0.vertexCount == 10 && s0.degree(0, Direction.Out) == 9)
    // compact with the new vertices inside the base
    (1 to 12).foreach(i => g.addEdge(11, i % 12, "E", 0, 1.0))
    g.commit()
    val s2 = g.snapshot()
    assert(s2.stats == GartStats(3, 3, 23, 0, 0))
    assert(neighbors(s2, 10) == Seq(11L) && neighbors(s2, 11).size == 12)
    assert(neighbors(s2, 10, Direction.In) == Seq(0L, 11L))
    assert(g.snapshotAt(2).edgeCount == 11 && g.snapshotAt(2).vertexCount == 12)
  }

  test("stress: 2 readers and 1 writer across compactions see exactly the committed edges") {
    // The whole write plan is fixed up front, so readers can rebuild the
    // model of any version without sharing state with the writer.
    val n0 = 200; val commits = 900
    val rng = new java.util.Random(21)
    val vVer = Array.fill(n0)(1) ++ Array.tabulate(commits / 10)(c => 2 + c * 10)
    val nAll = vVer.length
    val src = IndexedSeq.newBuilder[Int]; val dst = IndexedSeq.newBuilder[Int]
    val ver = IndexedSeq.newBuilder[Int]
    (0 until commits).foreach { c =>
      val version = 2 + c
      val live = vVer.count(_ <= version)
      (0 until 1 + rng.nextInt(48)).foreach { _ =>
        // vertex 0 is a hub, so its chain outgrows a block between compactions
        src += (if (rng.nextInt(4) == 0) 0 else rng.nextInt(live)); dst += rng.nextInt(live)
        ver += version
      }
    }
    val (es, ed, ev) = (src.result(), dst.result(), ver.result())
    val outModel = Array.fill(nAll)(Vector.newBuilder[(Int, Int)])
    val inModel = Array.fill(nAll)(Vector.newBuilder[(Int, Int)])
    es.indices.foreach { i => outModel(es(i)) += ((ed(i), ev(i))); inModel(ed(i)) += ((es(i), ev(i))) }
    val outM = outModel.map(_.result()); val inM = inModel.map(_.result())

    val g = new GartStore(16)
    (0 until n0).foreach(i => g.addVertex(i, "V"))
    g.commit()
    def check(s: GartSnapshot): Option[String] = {
      val v = s.version
      val n = vVer.count(_ <= v)
      if (s.vertexCount != n) return Some(s"v$v: ${s.vertexCount} vertices, want $n")
      var total = 0L
      for ((dir, model) <- Seq(Direction.Out -> outM, Direction.In -> inM); u <- 0 until n) {
        val want = model(u).takeWhile(_._2 <= v).map(_._1)
        val c = s.newCursor(dir).seek(u)
        val got = Vector.newBuilder[Int]
        while (c.moveNext()) got += c.neighbor
        if (got.result() != want) return Some(s"v$v $dir $u: ${got.result()} != $want")
        if (s.degree(u, dir) != want.size) return Some(s"v$v $dir $u: degree ${s.degree(u, dir)}")
        if (dir == Direction.Out) total += want.size
      }
      if (s.edgeCount != total) return Some(s"v$v: edgeCount ${s.edgeCount} != $total")
      None
    }
    @volatile var stop = false
    val checked = new java.util.concurrent.atomic.AtomicInteger(0)
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val readers = (0 until 2).map { r =>
      val t = new Thread(() => {
        val rr = new java.util.Random(r)
        var held: GartSnapshot = null
        while (!stop) {
          val s = g.snapshot()
          val st = s.stats
          if (8 * st.deltaEdges >= st.baseEdges + s.vertexCount) errors.add(s"delta over its bound: $st")
          // the latest snapshot, one held since the last pass, and an older version
          Seq(s, held, g.snapshotAt(rr.nextInt(s.version + 1))).filter(_ != null)
            .foreach(x => check(x).foreach(errors.add))
          held = s
          checked.incrementAndGet()
        }
      })
      t.start(); t
    }
    var i = 0; var next = n0
    val baseVersions = scala.collection.mutable.Set.empty[Int]
    (0 until commits).foreach { c =>
      val version = 2 + c
      while (next < nAll && vVer(next) == version) { g.addVertex(next, "V"); next += 1 }
      while (i < ev.length && ev(i) == version) { g.addEdge(es(i), ed(i), "E", i, 1.0); i += 1 }
      assert(g.commit() == version)
      baseVersions += g.snapshot().stats.baseVersion
      // every 50 commits, let both readers finish a pass before going on
      if (c % 50 == 0) { val k = checked.get(); while (checked.get() < k + 2 && errors.isEmpty) Thread.`yield`() }
    }
    stop = true
    readers.foreach(_.join())
    assert(errors.isEmpty, String.valueOf(errors.peek()))
    assert(baseVersions.size >= 5, s"only ${baseVersions.size} compactions")
    assert(check(g.snapshot()).isEmpty)
  }

  test("LiveGraph-sim snapshot agrees with GART on the same inserts") {
    val rng = new java.util.Random(11)
    val gart = new GartStore(64)
    val live = new LiveGraphSim(64)
    (0 until 50).foreach { i => gart.addVertex(i, "V"); live.addVertex(i, "V") }
    (0 until 500).foreach { _ =>
      val s = rng.nextInt(50); val d = rng.nextInt(50)
      gart.addEdge(s, d, "E", 0, 1.0); live.addEdge(s, d, "E", 0, 1.0)
    }
    gart.commit(); live.commit()
    val gs = gart.snapshot(); val ls = live.snapshot()
    (0 until 50).foreach { v =>
      assert(neighbors(gs, v) == {
        val c = ls.newCursor(Direction.Out).seek(v)
        val out = Seq.newBuilder[Long]
        while (c.moveNext()) out += ls.externalId(c.neighbor)
        out.result().sorted
      })
    }
    assert(ls.edgeCount == 500)
  }
}
