package repro.analytics.grape

import repro.graph.LocalCsr
import repro.grin.{Direction, GrinGraph}
import repro.util.{IntBuf, Parallel}

/** One GRAPE fragment (paper §6) under edge-cut partitioning: the inner
  * vertices it owns, their out-edges (CSR) and in-edges (CSC), and the
  * mirrors of the outer vertices those in-edges come from.
  *
  * Vertex ownership is by contiguous range — global vertex `v` belongs to
  * fragment `v / blockSize` as inner index `v % blockSize`. This is GRAPE's
  * scheme: vertices are renumbered so each worker owns a contiguous block,
  * making owner and local index pure arithmetic (the "perfect hash" — no
  * hash-map lookups on the message path) and preserving locality so PEval's
  * fragment-local fixpoints actually cover subgraphs.
  *
  * Out-edges keep global targets, and push senders translate them to
  * (owner, innerIdx). The fragments of one partition share one out-edge
  * array (`dst`, and `weight` when weighted): `off` holds absolute offsets
  * into it, so a fragment's out-edges are `dst(off(0) until off(innerCount))`.
  *
  * In-edges are in local ids, as libgrape-lite keeps them: inner `i`, or
  * `innerCount + k` for mirror `k`, where `outer(k)` is the global id that
  * mirror stands for. `outer` is sorted, so the mirrors of owner `g` are the
  * contiguous range `outerOff(g) until outerOff(g + 1)`. A pull program reads
  * one array by local id whose mirror slots the owners fill once a round
  * ([[PieContext.syncMirrors]]), so an in-edge scan never branches on
  * ownership and never reads another fragment's state.
  */
final class Fragment(
    val fid: Int,
    val nFrags: Int,
    val nGlobal: Int,
    val off: Array[Int],       // innerCount+1, absolute offsets into dst
    val dst: Array[Int],       // global ids, shared by the partition's fragments
    val weight: Array[Double], // parallel to dst (null when unweighted)
    val inOff: Array[Int],     // innerCount+1, offsets into inSrc
    val inSrc: Array[Int],     // local ids of in-edge sources
    val outer: Array[Int],     // sorted global ids of the mirrored outer vertices
) {
  val blockSize: Int = Fragment.blockSizeOf(nGlobal, nFrags)
  val innerCount: Int = off.length - 1
  /** Owner `g`'s mirrors are `outer(outerOff(g) until outerOff(g + 1))`. */
  val outerOff: Array[Int] = Array.tabulate(nFrags + 1) { g =>
    val i = java.util.Arrays.binarySearch(outer, math.min(nGlobal, g * blockSize))
    if (i >= 0) i else -i - 1
  }
  @inline def globalOf(i: Int): Int = fid * blockSize + i
  @inline def degree(i: Int): Int = off(i + 1) - off(i)
  @inline def inDegree(i: Int): Int = inOff(i + 1) - inOff(i)
  def edgeCount: Int = off(innerCount) - off(0)
}

object Fragment {
  @inline def blockSizeOf(n: Int, nFrags: Int): Int = (n + nFrags - 1) / nFrags

  /** Partitions a global CSR into fragments (weights optional), sharing its
    * out-edge arrays.
    */
  def partition(csr: LocalCsr, nFrags: Int, weights: Array[Double] = null): Array[Fragment] =
    split(csr.outOff, csr.outDst, weights, csr.inOff, csr.inSrc, nFrags)

  /** Partitions any GRIN backend, its out- and in-edges read in one cursor
    * pass each.
    */
  def fromGrin(g: GrinGraph, nFrags: Int): Array[Fragment] = {
    def read(dir: Direction.Value): (Array[Int], Array[Int]) = {
      val off = new Array[Int](g.vertexCount + 1)
      val nbr = new IntBuf
      val c = g.newCursor(dir)
      (0 until g.vertexCount).foreach { v =>
        val cur = c.seek(v)
        while (cur.moveNext()) nbr.add(cur.neighbor)
        off(v + 1) = nbr.size
      }
      (off, nbr.toArray)
    }
    val (outOff, outDst) = read(Direction.Out)
    val (inOff, inSrc) = read(Direction.In)
    split(outOff, outDst, null, inOff, inSrc, nFrags)
  }

  /** Cuts a CSR + CSC into contiguous vertex ranges, one fragment per
    * worker: the out-edges are shared, the in-edges re-labelled into each
    * fragment's local ids.
    */
  private def split(outOff: Array[Int], outDst: Array[Int], weights: Array[Double],
                    inOff: Array[Int], inSrc: Array[Int], nFrags: Int): Array[Fragment] = {
    import java.util.Arrays.copyOfRange
    val n = outOff.length - 1
    val bs = blockSizeOf(n, nFrags)
    val frags = new Array[Fragment](nFrags)
    Parallel.run(nFrags) { fid =>
      val lo = math.min(n, fid * bs)
      val hi = math.min(n, lo + bs)
      val (e0, e1) = (inOff(lo), inOff(hi))
      // outer: the in-neighbours outside [lo, hi), as a bitmap; mirror k is
      // the k-th set bit, so outer comes out sorted
      val seen = new Array[Long]((n + 63) >>> 6)
      var e = e0
      while (e < e1) {
        val s = inSrc(e)
        if (s < lo || s >= hi) seen(s >>> 6) |= 1L << s
        e += 1
      }
      val rank = new Array[Int](seen.length + 1) // set bits before each word
      var w = 0
      while (w < seen.length) { rank(w + 1) = rank(w) + java.lang.Long.bitCount(seen(w)); w += 1 }
      val outer = new Array[Int](rank(seen.length))
      w = 0
      while (w < seen.length) {
        var bits = seen(w)
        var k = rank(w)
        while (bits != 0) {
          outer(k) = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          k += 1
          bits &= bits - 1
        }
        w += 1
      }
      val localSrc = new Array[Int](e1 - e0)
      e = e0
      while (e < e1) {
        val s = inSrc(e)
        localSrc(e - e0) =
          if (s >= lo && s < hi) s - lo
          else (hi - lo) + rank(s >>> 6) + java.lang.Long.bitCount(seen(s >>> 6) & ((1L << s) - 1))
        e += 1
      }
      val localOff = copyOfRange(inOff, lo, hi + 1)
      var i = 0
      while (i < localOff.length) { localOff(i) -= e0; i += 1 }
      frags(fid) = new Fragment(fid, nFrags, n, copyOfRange(outOff, lo, hi + 1), outDst, weights,
        localOff, localSrc, outer)
    }
    frags
  }
}
