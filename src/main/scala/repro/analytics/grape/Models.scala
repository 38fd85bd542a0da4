package repro.analytics.grape

import repro.graph.LocalCsr
import repro.util.{IntBuf, Parallel}

/** The three programming models GraphScope Flex layers over GRAPE (§6):
  * subgraph-centric PIE, the one runtime; vertex-centric Pregel, an adapter
  * on it; and FLASH's vertex-subset algebra with non-neighbor communication.
  */

// ---------------------------------------------------------------------------
// PIE — PEval / IncEval over fragments (GRAPE's native model)
// ---------------------------------------------------------------------------

/** One round's messages from one fragment to another (§6's "continuous
  * compact buffer"): the least value sent to each destination inner vertex,
  * and the indices messaged. A bitmap marks the messaged indices, so the
  * values need no fill; an index is listed on its first send.
  */
final class MinChannel(size: Int) {
  private val vals = new Array[Double](size)
  private val listed = new IntBuf
  private val marked = new Array[Long]((size + 63) >>> 6)

  @inline def send(inner: Int, msg: Double): Unit = {
    val w = inner >>> 6
    val bit = 1L << inner
    if ((marked(w) & bit) == 0) { marked(w) |= bit; listed.add(inner); vals(inner) = msg }
    else if (msg < vals(inner)) vals(inner) = msg
  }
  /** Number of distinct vertices messaged. */
  def messages: Int = listed.size
  /** The `k`-th messaged inner index. */
  @inline def index(k: Int): Int = listed(k)
  /** The least message to the `k`-th messaged inner index. */
  @inline def value(k: Int): Double = vals(listed(k))

  /** Forgets the round's messages, clearing the messaged marks. */
  private[grape] def reset(): Unit = {
    var k = 0
    while (k < listed.size) { marked(listed(k) >>> 6) = 0L; k += 1 }
    listed.clear()
  }
}

object MinChannel {
  /** The inbound channel of a pair that never sent. */
  private[grape] val Empty = new MinChannel(0)
}

/** One round's keyed messages from one fragment to another: §6's compact
  * buffer with a key column, as parallel primitive buffers of (destination
  * inner index, key, value) in send order. Messages to one (index, key) add
  * up; the receiver folds them, so a send is one append.
  */
final class KeyedChannel {
  private var idx = new Array[Int](16)
  private var keys = new Array[Int](16)
  private var vals = new Array[Double](16)
  private var n = 0

  def send(inner: Int, key: Int, msg: Double): Unit = {
    if (n == idx.length) {
      idx = java.util.Arrays.copyOf(idx, n * 2)
      keys = java.util.Arrays.copyOf(keys, n * 2)
      vals = java.util.Arrays.copyOf(vals, n * 2)
    }
    idx(n) = inner; keys(n) = key; vals(n) = msg
    n += 1
  }
  /** Number of messages sent. */
  def messages: Int = n
  @inline def index(k: Int): Int = idx(k)
  @inline def key(k: Int): Int = keys(k)
  @inline def value(k: Int): Double = vals(k)
  private[grape] def reset(): Unit = n = 0
}

object KeyedChannel {
  /** The inbound keyed channel of a pair that never sent one. */
  private[grape] val Empty = new KeyedChannel
}

/** The vertex values behind the mirror sync: per round parity and fragment,
  * one array by local id (inner slots, then mirror slots). Allocated for the
  * whole run on the first use, so programs that never sync pay nothing.
  */
private[grape] final class Mirrors(frags: Array[Fragment]) {
  lazy val byParity: Array[Array[Array[Double]]] =
    Array.fill(2)(frags.map(f => new Array[Double](f.innerCount + f.outer.length)))
}

/** Fragment `fid`'s view of one round: `round` is 0 in PEval, then 1, 2, …;
  * `globalSum` adds up all fragments' [[aggregate]] calls of the last round.
  * Besides min-folded messages ([[send]] / [[inbound]]) and keyed, summed
  * ones ([[sendKeyed]] / [[inboundKeyed]]), a round can publish vertex
  * values to the fragments that mirror them ([[publish]], [[syncMirrors]])
  * and pull what the last round published ([[pull]]).
  */
final class PieContext private[grape] (frags: Array[Fragment], val fid: Int, val round: Int,
    val globalSum: Double, out: Array[MinChannel], in: Array[Array[MinChannel]],
    keyedOut: Array[KeyedChannel], keyedIn: Array[Array[KeyedChannel]], mirrors: Mirrors) {
  val nFrags: Int = frags.length
  val blockSize: Int = frags(fid).blockSize
  private[grape] var partialSum = 0.0
  private[grape] var active = 0L
  private[grape] var pulled = false
  private[grape] var synced = false
  private[grape] var mirrorValues = 0L

  @inline def send(globalVid: Int, msg: Double): Unit = {
    val owner = globalVid / blockSize
    var ch = out(owner)
    if (ch == null) ch = open(owner)
    ch.send(globalVid - owner * blockSize, msg)
  }
  // Kept out of `send` so that the JIT inlines `send` whole into the
  // programs' edge loops; with the allocation inside, it did not.
  private def open(owner: Int): MinChannel = {
    val ch = new MinChannel(frags(owner).innerCount)
    out(owner) = ch
    ch
  }
  /** Sends `msg` under `key` to `globalVid`; the owner's [[inboundKeyed]]
    * sees it next round.
    */
  def sendKeyed(globalVid: Int, key: Int, msg: Double): Unit = {
    val owner = globalVid / blockSize
    var ch = keyedOut(owner)
    if (ch == null) { ch = new KeyedChannel; keyedOut(owner) = ch }
    ch.send(globalVid - owner * blockSize, key, msg)
  }
  def aggregate(x: Double): Unit = partialSum += x
  /** What fragment `srcFid` sent to this one in the previous round. */
  def inbound(srcFid: Int): MinChannel = {
    val ch = in(srcFid)(fid)
    if (ch == null) MinChannel.Empty else ch
  }
  /** What fragment `srcFid` sent to this one with keys in the previous round. */
  def inboundKeyed(srcFid: Int): KeyedChannel = {
    val ch = keyedIn(srcFid)(fid)
    if (ch == null) KeyedChannel.Empty else ch
  }
  /** Counts vertices this round computed on, for [[SuperstepStats]]. */
  def markActive(count: Int): Unit = active += count

  /** The values this round publishes, by local id: the fragment writes its
    * inner slots, then [[syncMirrors]] copies them to their mirrors.
    */
  def publish: Array[Double] = mirrors.byParity(round & 1)(fid)
  /** Writes this fragment's published inner values into the mirror slots of
    * every fragment that mirrors them; those fragments [[pull]] them next
    * round. A round that syncs is active, as one that sends.
    */
  def syncMirrors(): Unit = {
    val bufs = mirrors.byParity(round & 1)
    val mine = bufs(fid)
    val lo = fid * blockSize
    var g = 0
    while (g < nFrags) {
      val f = frags(g)
      if (g != fid) {
        val to = bufs(g)
        var k = f.outerOff(fid)
        val end = f.outerOff(fid + 1)
        mirrorValues += end - k
        while (k < end) { to(f.innerCount + k) = mine(f.outer(k) - lo); k += 1 }
      }
      g += 1
    }
    synced = true
  }
  /** What the last round published, by local id: this fragment's inner
    * slots and its mirrors'. Reading it makes this a pull round.
    */
  def pull: Array[Double] = { pulled = true; mirrors.byParity((round + 1) & 1)(fid) }
}

trait PieProgram {
  /** Partial evaluation: run the (sequential) algorithm on the local
    * fragment to a local fixpoint, emitting boundary messages.
    */
  def pEval(frag: Fragment, ctx: PieContext): Unit
  /** Incremental evaluation on arrival of remote updates (`ctx.inbound`). */
  def incEval(frag: Fragment, ctx: PieContext): Unit
}

/** What each round of one [[Pie.run]] did; round 0 is PEval. */
final class SuperstepStats {
  private val all = scala.collection.mutable.ArrayBuffer.empty[SuperstepStats.Round]
  private[grape] def add(r: SuperstepStats.Round): Unit = all += r
  def byRound: IndexedSeq[SuperstepStats.Round] = all.toIndexedSeq
  /** IncEval rounds run. */
  def rounds: Int = all.size - 1
  /** Rounds in which some fragment pulled over its in-edges. */
  def pullRounds: Int = all.count(_.pull)
}

object SuperstepStats {
  /** One round: whether it pulled (else it pushed), the vertices the
    * fragments marked active, the distinct vertices messaged, the mirror
    * values synced, and the slowest fragment's compute time.
    */
  final case class Round(pull: Boolean, active: Long, messages: Long, mirrorValues: Long, computeNs: Long)
}

object Pie {
  /** Runs PEval, then IncEval rounds until one neither sends a message nor
    * syncs mirrors, or `maxRounds` have run; each round is one parallel phase.
    * Round r sends and publishes on buffer set r % 2, and reads the other;
    * a fragment pair's channel, and its keyed channel, is made on its first
    * send of that kind.
    */
  def run(frags: Array[Fragment], program: PieProgram, maxRounds: Int = 1000): SuperstepStats = {
    val nF = frags.length
    val chans = Array.fill(2)(Array.ofDim[MinChannel](nF, nF)) // (parity)(src)(dst)
    val keyed = Array.fill(2)(Array.ofDim[KeyedChannel](nF, nF))
    val mirrors = new Mirrors(frags)
    val ctxs = new Array[PieContext](nF)
    val computeNs = new Array[Long](nF)
    val messages = new Array[Long](nF)
    val stats = new SuperstepStats
    var globalSum = 0.0
    def superstep(round: Int): Boolean = {
      val (out, in) = (chans(round & 1), chans((round + 1) & 1))
      val (keyedOut, keyedIn) = (keyed(round & 1), keyed((round + 1) & 1))
      Parallel.run(nF) { fid =>
        val t0 = System.nanoTime()
        val f = frags(fid)
        val ctx = new PieContext(frags, fid, round, globalSum, out(fid), in, keyedOut(fid), keyedIn, mirrors)
        ctxs(fid) = ctx
        if (f.innerCount == 0) () // more fragments than vertices: nothing to evaluate
        else if (round == 0) program.pEval(f, ctx) else program.incEval(f, ctx)
        var sent = 0L
        var g = 0
        while (g < nF) {
          val i = in(g)(fid)
          if (i != null) i.reset()
          val ki = keyedIn(g)(fid)
          if (ki != null) ki.reset()
          val o = out(fid)(g)
          if (o != null) sent += o.messages
          val ko = keyedOut(fid)(g)
          if (ko != null) sent += ko.messages
          g += 1
        }
        messages(fid) = sent
        computeNs(fid) = System.nanoTime() - t0
      }
      globalSum = ctxs.foldLeft(0.0)(_ + _.partialSum)
      stats.add(SuperstepStats.Round(ctxs.exists(_.pulled), ctxs.map(_.active).sum, messages.sum,
        ctxs.map(_.mirrorValues).sum, computeNs.max))
      messages.sum > 0 || ctxs.exists(_.synced)
    }
    var active = superstep(0)
    var rounds = 0
    while (active && rounds < maxRounds) { rounds += 1; active = superstep(rounds) }
    stats
  }
}

/** Connected components as a PIE program: PEval runs label propagation to a
  * *local* fixpoint inside each fragment — the PIE trait that separates
  * GRAPE from think-like-a-vertex engines — then IncEval re-propagates only
  * what remote updates disturb. Run on a symmetrized graph.
  */
final class WccPie(frags: Array[Fragment]) extends PieProgram {
  /** Component label (the least vertex id reached) by global id. */
  val labels: Array[Int] = Array.range(0, frags(0).nGlobal)

  private def localFix(frag: Fragment, work: IntBuf, ctx: PieContext): Unit = {
    val lo = frag.globalOf(0)
    val hi = lo + frag.innerCount
    var head = 0
    while (head < work.size) {
      val v = work(head); head += 1
      val l = labels(v)
      var e = frag.off(v - lo)
      val end = frag.off(v - lo + 1)
      while (e < end) {
        val u = frag.dst(e)
        if (u < lo || u >= hi) ctx.send(u, l)
        else if (labels(u) > l) { labels(u) = l; work.add(u) }
        e += 1
      }
    }
    ctx.markActive(work.size)
  }

  def pEval(frag: Fragment, ctx: PieContext): Unit = {
    val all = new IntBuf(math.max(1, frag.innerCount))
    (0 until frag.innerCount).foreach(i => all.add(frag.globalOf(i)))
    localFix(frag, all, ctx)
  }

  def incEval(frag: Fragment, ctx: PieContext): Unit = {
    val changed = new IntBuf
    (0 until ctx.nFrags).foreach { sf =>
      val ch = ctx.inbound(sf)
      var k = 0
      while (k < ch.messages) {
        val v = frag.globalOf(ch.index(k))
        val l = ch.value(k).toInt
        if (labels(v) > l) { labels(v) = l; changed.add(v) }
        k += 1
      }
    }
    localFix(frag, changed, ctx)
  }
}

// ---------------------------------------------------------------------------
// Pregel — think-like-a-vertex adapter over PIE
// ---------------------------------------------------------------------------

trait PregelProgram {
  def init(globalVid: Int): Double
  /** Runs at superstep 0 on every vertex (`msg` = +∞), then on each vertex
    * messaged, with its messages folded by min; returns the new value.
    */
  def compute(superstep: Int, frag: Fragment, inner: Int, value: Double,
              msg: Double, ctx: PieContext): Double
}

object Pregel {
  /** Runs `program` on [[Pie.run]], PEval being superstep 0 and each
    * IncEval round the next superstep. Returns the vertex values by global id.
    */
  def run(frags: Array[Fragment], program: PregelProgram, maxSupersteps: Int = 100): Array[Double] = {
    val values = Array.tabulate(frags(0).nGlobal)(program.init)
    val none = Double.PositiveInfinity
    // each fragment folds its inbound messages into one inbox by inner index
    val inbox = frags.map(f => Array.fill(f.innerCount)(none))
    Pie.run(frags, new PieProgram {
      def pEval(frag: Fragment, ctx: PieContext): Unit = incEval(frag, ctx)
      def incEval(frag: Fragment, ctx: PieContext): Unit = {
        val msgs = inbox(frag.fid)
        (0 until ctx.nFrags).foreach { sf =>
          val ch = ctx.inbound(sf)
          var k = 0
          while (k < ch.messages) { val i = ch.index(k); msgs(i) = math.min(msgs(i), ch.value(k)); k += 1 }
        }
        var i = 0
        while (i < frag.innerCount) {
          val msg = msgs(i)
          val v = frag.globalOf(i)
          if (ctx.round == 0 || msg != none) {
            msgs(i) = none
            values(v) = program.compute(ctx.round, frag, i, values(v), msg, ctx)
            ctx.markActive(1)
          }
          i += 1
        }
      }
    }, maxRounds = maxSupersteps - 1)
    values
  }
}

/** SSSP in the Pregel model: weighted relaxation, offers folded by min. */
final class SsspPregel(source: Int) extends PregelProgram {
  def init(v: Int): Double = if (v == source) 0.0 else Double.PositiveInfinity
  def compute(step: Int, frag: Fragment, i: Int, dist: Double,
              msg: Double, ctx: PieContext): Double = {
    val best = math.min(dist, msg)
    if ((step == 0 || best < dist) && best < Double.PositiveInfinity) {
      var e = frag.off(i)
      val end = frag.off(i + 1)
      while (e < end) {
        val w = if (frag.weight == null) 1.0 else frag.weight(e)
        ctx.send(frag.dst(e), best + w)
        e += 1
      }
    }
    best
  }
}

// ---------------------------------------------------------------------------
// FLASH — vertex-subset algebra (non-neighbor communication capable)
// ---------------------------------------------------------------------------

/** FLASH's core abstractions (§6): vertex subsets + map primitives. The
  * subset is a bitset; `edgeMap` relaxes along edges from a subset;
  * `vertexMap` filters/updates. k-core peeling below uses them.
  */
object Flash {
  final class VSet(val n: Int) {
    val bits = new java.util.BitSet(n)
    def add(v: Int): Unit = bits.set(v)
    def contains(v: Int): Boolean = bits.get(v)
    def size: Int = bits.cardinality()
    def isEmpty: Boolean = bits.isEmpty
    def foreach(f: Int => Unit): Unit = {
      var v = bits.nextSetBit(0)
      while (v >= 0) { f(v); v = bits.nextSetBit(v + 1) }
    }
  }

  def all(n: Int): VSet = { val s = new VSet(n); (0 until n).foreach(s.add); s }

  def vertexMap(u: VSet, pred: Int => Boolean): VSet = {
    val out = new VSet(u.n)
    u.foreach(v => if (pred(v)) out.add(v))
    out
  }

  /** Applies `update(src, dst)` along out-edges from `u`; returns the set of
    * dsts for which `update` reported a change.
    */
  def edgeMap(csr: LocalCsr, u: VSet, update: (Int, Int) => Boolean): VSet = {
    val out = new VSet(u.n)
    u.foreach { v =>
      var e = csr.outOff(v)
      while (e < csr.outOff(v + 1)) {
        val d = csr.outDst(e)
        if (update(v, d)) out.add(d)
        e += 1
      }
    }
    out
  }

  /** k-core via FLASH peeling (runs on a symmetrized graph): returns the
    * coreness-≥k membership flags.
    */
  def kCore(csr: LocalCsr, k: Int): Array[Boolean] = {
    val n = csr.n
    val deg = Array.tabulate(n)(csr.outDegree)
    val alive = Array.fill(n)(true)
    var frontier = vertexMap(all(n), v => deg(v) < k)
    frontier.foreach(v => alive(v) = false)
    while (!frontier.isEmpty) {
      val touched = edgeMap(csr, frontier, (_, d) => {
        if (alive(d)) { deg(d) -= 1; deg(d) < k } else false
      })
      val removed = vertexMap(touched, v => alive(v) && deg(v) < k)
      removed.foreach(v => alive(v) = false)
      frontier = removed
    }
    alive
  }
}
