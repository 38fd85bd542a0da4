package repro.analytics.grape

import repro.graph.LocalCsr
import repro.grin.{Direction, GrinGraph}

/** One GRAPE fragment (paper §6): the out-edges of the inner vertices this
  * fragment owns, under edge-cut partitioning.
  *
  * Vertex ownership is by contiguous range — global vertex `v` belongs to
  * fragment `v / blockSize` as inner index `v % blockSize`. This is GRAPE's
  * scheme: vertices are renumbered so each worker owns a contiguous block,
  * making owner and local index pure arithmetic (the "perfect hash" — no
  * hash-map lookups on the message path) and preserving locality so PEval's
  * fragment-local fixpoints actually cover subgraphs.
  * Edge targets stay global; senders translate them to (owner, innerIdx)
  * when building per-destination compact buffers.
  */
final class Fragment(
    val fid: Int,
    val nFrags: Int,
    val nGlobal: Int,
    val off: Array[Int],  // innerCount+1
    val dst: Array[Int],  // global ids
    val weight: Array[Double], // parallel to dst (null when unweighted)
) {
  val blockSize: Int = Fragment.blockSizeOf(nGlobal, nFrags)
  val innerCount: Int = off.length - 1
  @inline def globalOf(i: Int): Int = fid * blockSize + i
  @inline def degree(i: Int): Int = off(i + 1) - off(i)
  def edgeCount: Int = dst.length
}

object Fragment {
  @inline def blockSizeOf(n: Int, nFrags: Int): Int = (n + nFrags - 1) / nFrags

  /** Partitions a global CSR into fragments (weights optional). */
  def partition(csr: LocalCsr, nFrags: Int, weights: Array[Double] = null): Array[Fragment] =
    split(csr.outOff, csr.outDst, weights, nFrags)

  /** Partitions any GRIN backend's out-edges, read in one cursor pass. */
  def fromGrin(g: GrinGraph, nFrags: Int): Array[Fragment] = {
    val off = new Array[Int](g.vertexCount + 1)
    val dst = new IntBuf
    val c = g.newCursor(Direction.Out)
    (0 until g.vertexCount).foreach { v =>
      val cur = c.seek(v)
      while (cur.moveNext()) dst.add(cur.neighbor)
      off(v + 1) = dst.size
    }
    split(off, dst.toArray, null, nFrags)
  }

  /** Cuts a CSR into contiguous vertex ranges, whose edges are contiguous too. */
  private def split(outOff: Array[Int], outDst: Array[Int], weights: Array[Double],
                    nFrags: Int): Array[Fragment] = {
    import java.util.Arrays.copyOfRange
    val n = outOff.length - 1
    val bs = blockSizeOf(n, nFrags)
    Array.tabulate(nFrags) { fid =>
      val lo = math.min(n, fid * bs)
      val off = copyOfRange(outOff, lo, math.min(n, lo + bs) + 1)
      val (e0, e1) = (off(0), off(off.length - 1))
      var i = 0
      while (i < off.length) { off(i) -= e0; i += 1 }
      new Fragment(fid, nFrags, n, off, copyOfRange(outDst, e0, e1),
        if (weights == null) null else copyOfRange(weights, e0, e1))
    }
  }
}
