package repro.analytics.grape

import repro.util.{GrowableBytes, IntBuf, Varint}

/** GRAPE — the fragment-centric analytics engine (§6), simulated in shared
  * memory (DESIGN.md substitution 2). Its built-in algorithms are PIE
  * programs on [[Pie.run]]: PageRank pulls over the fragments' in-edges and
  * mirrors, and BFS switches between push and pull. Results live in one
  * array by global id, and a fragment writes only its own range.
  * [[messageBytesVarint]] reports the wire size under GRAPE's varint message
  * encoding (the peak-memory claim).
  */
object GrapeEngine {

  /** PageRank's damping factor, shared by GRAPE, the GRIN algorithms and the
    * Exp-3 simulators.
    */
  final val Damping = 0.85

  /** PageRank, pulled as in libgrape-lite: each round publishes `rank/deg`
    * of the inner vertices and syncs it to their mirrors, and the next round
    * sums it over each inner vertex's in-edges. Dangling mass goes through
    * the global sum.
    */
  def pageRank(frags: Array[Fragment], iters: Int): Array[Double] = {
    val n = frags(0).nGlobal
    val rank = new Array[Double](n)
    java.util.Arrays.fill(rank, 1.0 / n)
    def scatter(f: Fragment, ctx: PieContext): Unit = {
      val lo = f.globalOf(0)
      val out = ctx.publish
      var dangling = 0.0
      var i = 0
      while (i < f.innerCount) {
        val deg = f.degree(i)
        if (deg == 0) dangling += rank(lo + i) else out(i) = rank(lo + i) / deg
        i += 1
      }
      ctx.aggregate(dangling)
      ctx.syncMirrors()
    }
    Pie.run(frags, new PieProgram {
      def pEval(f: Fragment, ctx: PieContext): Unit = if (iters > 0) scatter(f, ctx)
      def incEval(f: Fragment, ctx: PieContext): Unit = {
        val lo = f.globalOf(0)
        val contrib = ctx.pull
        val danglingShare = ctx.globalSum / n
        var i = 0
        while (i < f.innerCount) {
          var sum = 0.0
          var e = f.inOff(i)
          val end = f.inOff(i + 1)
          while (e < end) { sum += contrib(f.inSrc(e)); e += 1 }
          rank(lo + i) = (1 - Damping) / n + Damping * (sum + danglingShare)
          i += 1
        }
        ctx.markActive(f.innerCount)
        if (ctx.round < iters) scatter(f, ctx)
      }
    }, maxRounds = iters)
    rank
  }

  /** Level-synchronous, direction-optimizing BFS; see [[bfsWithStats]]. */
  def bfs(frags: Array[Fragment], source: Int): Array[Int] = bfsWithStats(frags, source)._1

  /** Direction-optimizing BFS (Beamer, Asanović, Patterson, SC 2012): round
    * r settles level r, then each fragment expands its part of it one of two
    * ways, by Beamer's tests on its own share of the graph.
    *  - Top-down: offer every out-neighbour the next level; a fragment offers
    *    a vertex at most once (its state for outer vertices).
    *  - Bottom-up: publish the level (as `dist + 1`, so no stale value
    *    matches) and sync it to the mirrors. Next round, every unsettled
    *    inner vertex scans its in-edges, inner and mirror sources alike, and
    *    stops at the first one settled the round before.
    * A round scans whenever some fragment published; the stats count those
    * rounds as pull rounds.
    */
  def bfsWithStats(frags: Array[Fragment], source: Int): (Array[Int], SuperstepStats) = {
    val dist = new Array[Int](frags(0).nGlobal)
    java.util.Arrays.fill(dist, -1)
    // made by each fragment's own thread, so no two threads write one cache line
    val state = new Array[BfsFragment](frags.length)
    val stats = Pie.run(frags, new PieProgram {
      def pEval(f: Fragment, ctx: PieContext): Unit = {
        val s = new BfsFragment(f, dist)
        state(f.fid) = s
        if (source / f.blockSize == f.fid) s.settle(source, 0)
        s.expand(ctx)
      }
      def incEval(f: Fragment, ctx: PieContext): Unit = state(f.fid).step(ctx)
    }, maxRounds = Int.MaxValue)
    (dist, stats)
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

/** One fragment's side of [[GrapeEngine.bfsWithStats]]: its frontier and
  * the counts behind Beamer's tests. `dist` is by global id, and this
  * fragment writes only its own range.
  */
private final class BfsFragment(f: Fragment, dist: Array[Int]) {
  // Beamer et al.'s constants: hand the frontier to a bottom-up step once it
  // grows and its out-edges exceed the unexplored in-edges / Alpha; push
  // again once it shrinks and is under innerCount / Beta.
  private val Alpha = 14
  private val Beta = 24
  private val lo = f.globalOf(0)
  private val frontier = new IntBuf // global ids settled this round
  private var offered: Array[Long] = null // by global id, made on the first push
  private var unsettled: IntBuf = null    // inner ids, made on the first scan
  private var unexplored = f.inOff(f.innerCount).toLong // in-edges of unsettled inner vertices
  private var bottomUp = false
  private var lastSize = 0

  def settle(v: Int, level: Int): Unit = {
    dist(v) = level
    frontier.add(v)
    unexplored -= f.inDegree(v - lo)
  }

  /** Settles this round's level from the offers and, when some fragment
    * published the last level, from a bottom-up scan; then expands it.
    */
  def step(ctx: PieContext): Unit = {
    frontier.clear()
    (0 until ctx.nFrags).foreach { sf =>
      val ch = ctx.inbound(sf)
      var k = 0
      while (k < ch.messages) {
        val v = lo + ch.index(k)
        if (dist(v) < 0) settle(v, ctx.round)
        k += 1
      }
    }
    if (ctx.globalSum > 0) scan(ctx)
    expand(ctx)
  }

  def expand(ctx: PieContext): Unit = {
    var edges = 0L
    var k = 0
    while (k < frontier.size) { edges += f.degree(frontier(k) - lo); k += 1 }
    val size = frontier.size
    bottomUp =
      if (!bottomUp) size > lastSize && edges > unexplored / Alpha
      else size >= lastSize || size.toLong * Beta >= f.innerCount
    lastSize = size
    ctx.markActive(size)
    if (!bottomUp) push(ctx)
    else if (size > 0) {
      val out = ctx.publish
      k = 0
      while (k < size) { out(frontier(k) - lo) = ctx.round + 1; k += 1 }
      ctx.syncMirrors()
      ctx.aggregate(1)
    }
  }

  /** Top-down: offers the next level to every out-neighbour, once each. */
  private def push(ctx: PieContext): Unit = {
    if (offered == null) offered = new Array[Long]((f.nGlobal + 63) >>> 6)
    val seen = offered
    var k = 0
    while (k < frontier.size) {
      val i = frontier(k) - lo
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

  /** Bottom-up: each unsettled inner vertex scans its in-edges for a source
    * the last round published, and stops at the first.
    */
  private def scan(ctx: PieContext): Unit = {
    val level = ctx.round
    val last = ctx.pull
    if (unsettled == null) {
      unsettled = new IntBuf(math.max(1, f.innerCount))
      var i = 0
      while (i < f.innerCount) { if (dist(lo + i) < 0) unsettled.add(i); i += 1 }
    }
    val todo = unsettled
    var kept = 0
    var k = 0
    while (k < todo.size) {
      val i = todo(k)
      if (dist(lo + i) < 0) {
        var e = f.inOff(i)
        val end = f.inOff(i + 1)
        while (e < end && last(f.inSrc(e)) != level) e += 1
        if (e < end) settle(lo + i, level) else { todo(kept) = i; kept += 1 }
      }
      k += 1
    }
    todo.truncate(kept)
  }
}
