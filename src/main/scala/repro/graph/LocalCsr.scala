package repro.graph

import repro.util.LongIntMap

/** Immutable driver-local CSR + CSC over dense vertex ids.
  *
  * The in-memory substrate under the OLTP engine (HiActor), the GNN
  * sampler, the storage-scan benchmarks and the Vineyard store. External
  * 64-bit ids are densified (sorted order, so construction is
  * deterministic); `inEdge` maps each CSC slot back to its CSR edge index
  * so edge properties are stored once, in CSR order.
  */
final class LocalCsr(
    val n: Int,
    val extIds: Array[Long],
    val idMap: LongIntMap,
    val outOff: Array[Int],
    val outDst: Array[Int],
    val inOff: Array[Int],
    val inSrc: Array[Int],
    val inEdge: Array[Int],
) extends Serializable {

  def m: Int = outDst.length

  @inline def outDegree(v: Int): Int = outOff(v + 1) - outOff(v)
  @inline def inDegree(v: Int): Int = inOff(v + 1) - inOff(v)

  /** Sum of all out-neighbor ids — the edge-scan kernel used by benches. */
  def scanSum(): Long = {
    var acc = 0L
    var v = 0
    while (v < n) {
      var i = outOff(v)
      val end = outOff(v + 1)
      while (i < end) { acc += outDst(i); i += 1 }
      v += 1
    }
    acc
  }
}

object LocalCsr {

  /** Builds from parallel (srcExt, dstExt) arrays; extra ids may be passed
    * for isolated vertices so the dense-id space covers them too.
    */
  def build(srcExt: Array[Long], dstExt: Array[Long],
            extraVertexIds: Array[Long] = Array.empty): LocalCsr = {
    require(srcExt.length == dstExt.length, "src/dst length mismatch")
    val m = srcExt.length

    // Dense-id assignment: sorted distinct external ids.
    val all = new java.util.TreeSet[java.lang.Long]()
    var i = 0
    while (i < m) { all.add(srcExt(i)); all.add(dstExt(i)); i += 1 }
    extraVertexIds.foreach(all.add(_))
    val n = all.size
    val extIds = new Array[Long](n)
    val it = all.iterator()
    i = 0
    while (it.hasNext) { extIds(i) = it.next(); i += 1 }
    val idMap = new LongIntMap(n)
    i = 0
    while (i < n) { idMap.put(extIds(i), i); i += 1 }

    // Degree count then fill (classic two-pass CSR build).
    val outOff = new Array[Int](n + 1)
    val inOff = new Array[Int](n + 1)
    i = 0
    while (i < m) {
      outOff(idMap.get(srcExt(i)) + 1) += 1
      inOff(idMap.get(dstExt(i)) + 1) += 1
      i += 1
    }
    i = 1
    while (i <= n) { outOff(i) += outOff(i - 1); inOff(i) += inOff(i - 1); i += 1 }

    val outDst = new Array[Int](m)
    val inSrc = new Array[Int](m)
    val inEdge = new Array[Int](m)
    val outPos = java.util.Arrays.copyOf(outOff, n)
    val inPos = java.util.Arrays.copyOf(inOff, n)
    i = 0
    while (i < m) {
      val s = idMap.get(srcExt(i)); val d = idMap.get(dstExt(i))
      val e = outPos(s)
      outDst(e) = d; outPos(s) += 1
      val j = inPos(d)
      inSrc(j) = s; inEdge(j) = e; inPos(d) += 1
      i += 1
    }
    new LocalCsr(n, extIds, idMap, outOff, outDst, inOff, inSrc, inEdge)
  }

  /** Where each input edge landed: `build(srcExt, ...)` puts edge `i` at
    * CSR slot `slot(i)` (so its destination is `outDst(slot(i))`). Computed
    * on demand by the same fill walk as `build`, so the CSR stores no
    * per-edge map.
    */
  def edgeSlots(csr: LocalCsr, srcExt: Array[Long]): Array[Int] = {
    val pos = java.util.Arrays.copyOf(csr.outOff, csr.n)
    val slot = new Array[Int](srcExt.length)
    var i = 0
    while (i < srcExt.length) { val s = csr.idMap.get(srcExt(i)); slot(i) = pos(s); pos(s) += 1; i += 1 }
    slot
  }

  /** Builds from a Spark edge DataFrame with `src`/`dst` long columns.
    * Collect is intentional: these stores are driver-local substrates.
    */
  def fromDataFrame(edges: org.apache.spark.sql.DataFrame,
                    extraVertexIds: Array[Long] = Array.empty): LocalCsr = {
    val rows = edges.select("src", "dst").collect()
    val src = new Array[Long](rows.length)
    val dst = new Array[Long](rows.length)
    var i = 0
    while (i < rows.length) { src(i) = rows(i).getLong(0); dst(i) = rows(i).getLong(1); i += 1 }
    build(src, dst, extraVertexIds)
  }
}
