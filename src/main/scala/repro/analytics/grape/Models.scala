package repro.analytics.grape

import repro.graph.LocalCsr
import repro.util.Parallel

/** The three programming models GraphScope Flex layers over GRAPE (§6):
  * subgraph-centric PIE, the one runtime; vertex-centric Pregel, an adapter
  * on it; and FLASH's vertex-subset algebra with non-neighbor communication.
  */

// ---------------------------------------------------------------------------
// PIE — PEval / IncEval over fragments (GRAPE's native model)
// ---------------------------------------------------------------------------

/** How a channel folds the messages one vertex receives in a round. */
sealed abstract class Combiner(val identity: Double) {
  def apply(a: Double, b: Double): Double
  private[grape] def channel(size: Int): Channel
}

object Combiner {
  case object Sum extends Combiner(0.0) {
    def apply(a: Double, b: Double): Double = a + b
    private[grape] def channel(size: Int): Channel = new SumChannel(size)
  }
  case object Min extends Combiner(Double.PositiveInfinity) {
    def apply(a: Double, b: Double): Double = if (b < a) b else a
    private[grape] def channel(size: Int): Channel = new MinChannel(size)
  }
}

/** One round's messages from one fragment to another (§6's "continuous
  * compact buffer"): the folded value per destination inner vertex, and the
  * indices messaged. There is one subclass per combiner, so a send never
  * dispatches on the combiner.
  */
sealed abstract class Channel(size: Int) {
  protected final val vals = new Array[Double](size)
  protected final val listed = new IntBuf

  def send(inner: Int, msg: Double): Unit
  /** Number of distinct vertices messaged. */
  final def messages: Int = listed.size
  /** The `k`-th messaged inner index. */
  @inline final def index(k: Int): Int = listed(k)
  /** The folded message to the `k`-th messaged inner index. */
  @inline final def value(k: Int): Double = vals(listed(k))

  private[grape] def seal(): Unit
  /** Forgets the round's messages, restoring the messaged entries. */
  private[grape] def reset(): Unit
}

object Channel {
  /** The inbound channel of a pair that never sent. */
  private[grape] val Empty: Channel = new SumChannel(0)
}

/** Sum: the zeroed array is the identity, so a send is one add and the seal
  * lists the messaged indices in one scan (Sum messages must be non-zero).
  */
final class SumChannel(size: Int) extends Channel(size) {
  @inline def send(inner: Int, msg: Double): Unit = vals(inner) += msg
  private[grape] def seal(): Unit = {
    var i = 0
    while (i < size) { if (vals(i) != 0.0) listed.add(i); i += 1 }
  }
  private[grape] def reset(): Unit = {
    var k = 0
    while (k < listed.size) { vals(listed(k)) = 0.0; k += 1 }
    listed.clear()
  }
}

/** Min: a bitmap marks the messaged indices, so the values need no fill;
  * an index is listed on its first send.
  */
final class MinChannel(size: Int) extends Channel(size) {
  private val marked = new Array[Long]((size + 63) >>> 6)
  @inline def send(inner: Int, msg: Double): Unit = {
    val w = inner >>> 6
    val bit = 1L << inner
    if ((marked(w) & bit) == 0) { marked(w) |= bit; listed.add(inner); vals(inner) = msg }
    else if (msg < vals(inner)) vals(inner) = msg
  }
  private[grape] def seal(): Unit = ()
  private[grape] def reset(): Unit = {
    var k = 0
    while (k < listed.size) { marked(listed(k) >>> 6) = 0L; k += 1 }
    listed.clear()
  }
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
  * Besides messages ([[send]] / [[inbound]]), a round can publish vertex
  * values to the fragments that mirror them ([[publish]], [[syncMirrors]])
  * and pull what the last round published ([[pull]]).
  */
final class PieContext private[grape] (frags: Array[Fragment], val fid: Int, val round: Int,
    val globalSum: Double, combiner: Combiner, out: Array[Channel], in: Array[Array[Channel]],
    mirrors: Mirrors) {
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
    if (ch == null) { ch = combiner.channel(frags(owner).innerCount); out(owner) = ch }
    ch.send(globalVid - owner * blockSize, msg)
  }
  def aggregate(x: Double): Unit = partialSum += x
  /** What fragment `srcFid` sent to this one in the previous round. */
  def inbound(srcFid: Int): Channel = {
    val ch = in(srcFid)(fid)
    if (ch == null) Channel.Empty else ch
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
  def combiner: Combiner
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
    * a fragment pair's channel is made on its first send.
    */
  def run(frags: Array[Fragment], program: PieProgram, maxRounds: Int = 1000): SuperstepStats = {
    val nF = frags.length
    val chans = Array.fill(2)(Array.ofDim[Channel](nF, nF)) // (parity)(src)(dst)
    val mirrors = new Mirrors(frags)
    val ctxs = new Array[PieContext](nF)
    val computeNs = new Array[Long](nF)
    val messages = new Array[Long](nF)
    val stats = new SuperstepStats
    var globalSum = 0.0
    def superstep(round: Int): Boolean = {
      val (out, in) = (chans(round & 1), chans((round + 1) & 1))
      Parallel.run(nF) { fid =>
        val t0 = System.nanoTime()
        val f = frags(fid)
        val ctx = new PieContext(frags, fid, round, globalSum, program.combiner, out(fid), in, mirrors)
        ctxs(fid) = ctx
        if (f.innerCount == 0) () // more fragments than vertices: nothing to evaluate
        else if (round == 0) program.pEval(f, ctx) else program.incEval(f, ctx)
        var sent = 0L
        var g = 0
        while (g < nF) {
          val i = in(g)(fid)
          if (i != null) i.reset()
          val o = out(fid)(g)
          if (o != null) { o.seal(); sent += o.messages }
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
  val combiner: Combiner = Combiner.Min
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
  def combiner: Combiner
  def init(globalVid: Int): Double
  /** Runs at superstep 0 on every vertex (`msg` = the identity), then on
    * each vertex messaged, with its messages folded; returns the new value.
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
    val comb = program.combiner
    // each fragment folds its inbound messages into one inbox by inner index
    val inbox = frags.map(f => Array.fill(f.innerCount)(comb.identity))
    Pie.run(frags, new PieProgram {
      val combiner: Combiner = comb
      def pEval(frag: Fragment, ctx: PieContext): Unit = incEval(frag, ctx)
      def incEval(frag: Fragment, ctx: PieContext): Unit = {
        val msgs = inbox(frag.fid)
        (0 until ctx.nFrags).foreach { sf =>
          val ch = ctx.inbound(sf)
          var k = 0
          while (k < ch.messages) { val i = ch.index(k); msgs(i) = comb(msgs(i), ch.value(k)); k += 1 }
        }
        var i = 0
        while (i < frag.innerCount) {
          val msg = msgs(i)
          val v = frag.globalOf(i)
          if (ctx.round == 0 || msg != comb.identity) {
            msgs(i) = comb.identity
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
  val combiner: Combiner = Combiner.Min
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
