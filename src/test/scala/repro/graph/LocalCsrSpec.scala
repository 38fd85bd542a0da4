package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class LocalCsrSpec extends AnyFunSuite {

  private def model(src: Array[Long], dst: Array[Long]): Map[Long, Seq[Long]] =
    src.zip(dst).groupBy(_._1).map { case (s, es) => s -> es.map(_._2).toSeq.sorted }

  test("dense ids follow sorted external-id order") {
    val csr = LocalCsr.build(Array(10L, 5L, 10L), Array(5L, 99L, 99L))
    assert(csr.extIds.toSeq == Seq(5L, 10L, 99L))
    assert(csr.idMap.get(5L) == 0)
    assert(csr.idMap.get(10L) == 1)
    assert(csr.idMap.get(99L) == 2)
  }

  test("out/in adjacency matches the edge list") {
    val src = Array(1L, 1L, 2L, 3L)
    val dst = Array(2L, 3L, 3L, 1L)
    val csr = LocalCsr.build(src, dst)
    def outOf(ext: Long): Seq[Long] = {
      val v = csr.idMap.get(ext)
      (csr.outOff(v) until csr.outOff(v + 1)).map(e => csr.extIds(csr.outDst(e))).sorted
    }
    assert(outOf(1L) == Seq(2L, 3L))
    assert(outOf(2L) == Seq(3L))
    assert(outOf(3L) == Seq(1L))
    def inOf(ext: Long): Seq[Long] = {
      val v = csr.idMap.get(ext)
      (csr.inOff(v) until csr.inOff(v + 1)).map(e => csr.extIds(csr.inSrc(e))).sorted
    }
    assert(inOf(3L) == Seq(1L, 2L))
    assert(inOf(1L) == Seq(3L))
  }

  test("inEdge maps CSC slots back to CSR edge indices") {
    val csr = LocalCsr.build(Array(1L, 2L, 3L), Array(9L, 9L, 9L))
    val v9 = csr.idMap.get(9L)
    (csr.inOff(v9) until csr.inOff(v9 + 1)).foreach { i =>
      val e = csr.inEdge(i)
      // the CSR edge e must start at inSrc(i) and end at 9
      assert(csr.outDst(e) == v9)
      val s = csr.inSrc(i)
      assert(csr.outOff(s) <= e && e < csr.outOff(s + 1))
    }
  }

  test("edgeSlots: edge i sits at outDst(slot(i)); the slots are a permutation") {
    // parallel edges (1->2 twice), self-loops (2->2, 3->3), isolated 7 and 8
    val src = Array(1L, 2L, 1L, 3L, 2L, 1L, 3L)
    val dst = Array(2L, 2L, 2L, 3L, 1L, 3L, 1L)
    val csr = LocalCsr.build(src, dst, extraVertexIds = Array(7L, 8L))
    val slot = LocalCsr.edgeSlots(csr, src)
    assert(slot.sorted.toSeq == src.indices)
    src.indices.foreach { i =>
      val s = csr.idMap.get(src(i))
      assert(csr.outDst(slot(i)) == csr.idMap.get(dst(i)), s"edge $i")
      assert(csr.outOff(s) <= slot(i) && slot(i) < csr.outOff(s + 1), s"edge $i")
    }
  }

  test("isolated vertices via extraVertexIds") {
    val csr = LocalCsr.build(Array(1L), Array(2L), extraVertexIds = Array(50L, 60L))
    assert(csr.n == 4)
    assert(csr.outDegree(csr.idMap.get(50L)) == 0)
    assert(csr.inDegree(csr.idMap.get(60L)) == 0)
  }

  test("random graphs match a reference model") {
    val rng = new java.util.Random(7)
    (0 until 20).foreach { _ =>
      val m = 1 + rng.nextInt(300)
      val src = Array.fill(m)(rng.nextInt(50).toLong)
      val dst = Array.fill(m)(rng.nextInt(50).toLong)
      val csr = LocalCsr.build(src, dst)
      val ref = model(src, dst)
      ref.foreach { case (s, outs) =>
        val v = csr.idMap.get(s)
        val got = (csr.outOff(v) until csr.outOff(v + 1))
          .map(e => csr.extIds(csr.outDst(e))).sorted
        assert(got == outs)
      }
      assert(csr.m == m)
      // in-degree sum equals edge count
      assert((0 until csr.n).map(csr.inDegree).sum == m)
    }
  }

  test("scanSum equals the sum of all dense targets") {
    val src = Array(1L, 1L, 2L)
    val dst = Array(2L, 3L, 3L)
    val csr = LocalCsr.build(src, dst)
    val expected = (0 until csr.n).flatMap(v =>
      (csr.outOff(v) until csr.outOff(v + 1)).map(csr.outDst(_).toLong)).sum
    assert(csr.scanSum() == expected)
  }

  test("duplicate edges are preserved (multigraph)") {
    val csr = LocalCsr.build(Array(1L, 1L), Array(2L, 2L))
    assert(csr.m == 2)
    assert(csr.outDegree(csr.idMap.get(1L)) == 2)
  }

  test("self loops are preserved") {
    val csr = LocalCsr.build(Array(1L), Array(1L))
    val v = csr.idMap.get(1L)
    assert(csr.outDegree(v) == 1 && csr.inDegree(v) == 1)
  }
}
