package repro.analytics.grape

import repro.util.{GrowableBytes, Varint}

/** GRAPE — the fragment-centric analytics engine (§6), simulated in shared
  * memory (DESIGN.md substitution 2). Its built-in algorithms are PIE
  * programs on [[Pie.run]]. Results live in one array by global id, and a
  * fragment writes only its own range. [[messageBytesVarint]] reports the
  * wire size under GRAPE's varint message encoding (the peak-memory claim).
  */
object GrapeEngine {

  /** PageRank: each IncEval round folds the summed contributions into the
    * ranks and scatters the next; dangling mass goes through the global sum.
    */
  def pageRank(frags: Array[Fragment], iters: Int, d: Double = 0.85): Array[Double] = {
    val n = frags(0).nGlobal
    val rank = new Array[Double](n)
    java.util.Arrays.fill(rank, 1.0 / n)
    def scatter(f: Fragment, ctx: PieContext): Unit = {
      val lo = f.globalOf(0)
      var dangling = 0.0
      var i = 0
      while (i < f.innerCount) {
        val deg = f.degree(i)
        if (deg == 0) dangling += rank(lo + i)
        else {
          val c = rank(lo + i) / deg
          var e = f.off(i)
          val end = f.off(i + 1)
          while (e < end) { ctx.send(f.dst(e), c); e += 1 }
        }
        i += 1
      }
      ctx.aggregate(dangling)
    }
    Pie.run(frags, new PieProgram {
      val combiner: Combiner = Combiner.Sum
      def pEval(f: Fragment, ctx: PieContext): Unit = if (iters > 0) scatter(f, ctx)
      def incEval(f: Fragment, ctx: PieContext): Unit = {
        val lo = f.globalOf(0)
        val hi = lo + f.innerCount
        java.util.Arrays.fill(rank, lo, hi, 0.0)
        (0 until ctx.nFrags).foreach { sf =>
          val in = ctx.inbound(sf)
          var v = lo
          while (v < hi) { rank(v) += in(v - lo); v += 1 }
        }
        val danglingShare = ctx.globalSum / n
        var v = lo
        while (v < hi) { rank(v) = (1 - d) / n + d * (rank(v) + danglingShare); v += 1 }
        if (ctx.round < iters) scatter(f, ctx)
      }
    }, maxRounds = iters)
    rank
  }

  /** Level-synchronous BFS: round r settles the vertices first messaged in
    * round r - 1 and messages their neighbors. A fragment offers a vertex at
    * most once (its state for outer vertices); min folds several offers.
    */
  def bfs(frags: Array[Fragment], source: Int): Array[Int] = {
    val n = frags(0).nGlobal
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, -1)
    val frontier = frags.map(_ => new IntBuf) // global ids settled this round
    val offered = frags.map(_ => new Array[Long]((n + 63) >>> 6))
    def expand(f: Fragment, ctx: PieContext): Unit = {
      val fr = frontier(f.fid)
      val seen = offered(f.fid)
      var k = 0
      while (k < fr.size) {
        val i = fr(k) - f.globalOf(0)
        var e = f.off(i)
        val end = f.off(i + 1)
        while (e < end) {
          val u = f.dst(e)
          if ((seen(u >>> 6) & 1L << u) == 0) { seen(u >>> 6) |= 1L << u; ctx.send(u, ctx.round + 1) }
          e += 1
        }
        k += 1
      }
    }
    Pie.run(frags, new PieProgram {
      val combiner: Combiner = Combiner.Min
      def pEval(f: Fragment, ctx: PieContext): Unit = {
        if (source / f.blockSize == f.fid) { dist(source) = 0; frontier(f.fid).add(source) }
        expand(f, ctx)
      }
      def incEval(f: Fragment, ctx: PieContext): Unit = {
        frontier(f.fid).clear()
        (0 until ctx.nFrags).foreach { sf =>
          val ch = ctx.inbound(sf)
          var k = 0
          while (k < ch.messages) {
            val v = f.globalOf(ch.index(k))
            if (dist(v) < 0) { dist(v) = ch(ch.index(k)).toInt; frontier(f.fid).add(v) }
            k += 1
          }
        }
        expand(f, ctx)
      }
    }, maxRounds = Int.MaxValue)
    dist
  }

  /** Wire size of a (vid, value) message batch under varint encoding vs raw
    * 12-byte records — the §6 bandwidth/memory claim, reported by Exp-3.
    */
  def messageBytesVarint(vids: Array[Int], values: Array[Long]): (Long, Long) = {
    val buf = new GrowableBytes(vids.length * 4)
    var prev = 0L
    var i = 0
    while (i < vids.length) {
      Varint.writeToBuffer(buf, vids(i).toLong - prev) // delta on sorted vids
      prev = vids(i).toLong
      Varint.writeToBuffer(buf, values(i))
      i += 1
    }
    (buf.size.toLong, vids.length.toLong * 12)
  }
}

/** Growable primitive int buffer (no boxing on the frontier path). */
final class IntBuf(initial: Int = 16) {
  private var arr = new Array[Int](initial)
  private var n = 0
  @inline def add(v: Int): Unit = {
    if (n == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    arr(n) = v; n += 1
  }
  @inline def apply(i: Int): Int = arr(i)
  def size: Int = n
  def clear(): Unit = n = 0
  def toArray: Array[Int] = java.util.Arrays.copyOf(arr, n)
}
