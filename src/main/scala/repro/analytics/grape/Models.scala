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
sealed abstract class Combiner(val identity: Double) { def apply(a: Double, b: Double): Double }

object Combiner {
  case object Sum extends Combiner(0.0) { def apply(a: Double, b: Double): Double = a + b }
  case object Min extends Combiner(Double.PositiveInfinity) {
    def apply(a: Double, b: Double): Double = if (b < a) b else a
  }
}

/** One round's messages from one fragment to another (§6's "continuous
  * compact buffer"): a value per destination inner vertex, the combiner's
  * identity where none was sent (so Sum messages must be non-negative), and
  * the indices messaged. Min channels list an index on its first send; in
  * dense Sum rounds (PageRank) that branch would double a send's cost, so
  * one scan lists them after sending.
  */
final class Channel(size: Int, combiner: Combiner) {
  private val identity = combiner.identity
  private val listOnSend = combiner eq Combiner.Min
  private val value = new Array[Double](size)
  java.util.Arrays.fill(value, identity)
  private val indices = new IntBuf

  @inline def send(inner: Int, msg: Double): Unit = {
    val old = value(inner)
    if (listOnSend && old == identity && msg != identity) indices.add(inner)
    value(inner) = combiner(old, msg)
  }

  private[grape] def seal(): Unit =
    if (!listOnSend) {
      var i = 0
      while (i < size) { if (value(i) != identity) indices.add(i); i += 1 }
    }

  /** Number of distinct vertices messaged. */
  def messages: Int = indices.size
  /** The `k`-th messaged inner index. */
  @inline def index(k: Int): Int = indices(k)
  @inline def apply(inner: Int): Double = value(inner)

  /** Restores the messaged entries to the identity. */
  private[grape] def reset(): Unit = {
    var k = 0
    while (k < indices.size) { value(indices(k)) = identity; k += 1 }
    indices.clear()
  }
}

/** Fragment `fid`'s view of one round: `round` is 0 in PEval, then 1, 2, …;
  * `globalSum` adds up all fragments' [[aggregate]] calls of the last round.
  */
final class PieContext private[grape] (val fid: Int, val nFrags: Int, val blockSize: Int,
    val round: Int, val globalSum: Double, out: Array[Channel], in: Array[Array[Channel]]) {
  private[grape] var partialSum = 0.0
  @inline def send(globalVid: Int, msg: Double): Unit =
    out(globalVid / blockSize).send(globalVid % blockSize, msg)
  def aggregate(x: Double): Unit = partialSum += x
  /** What fragment `srcFid` sent to this one in the previous round. */
  @inline def inbound(srcFid: Int): Channel = in(srcFid)(fid)
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

object Pie {
  /** Runs PEval, then IncEval rounds until one sends no message or
    * `maxRounds` have run, each round one parallel phase; returns the IncEval
    * rounds. Round r sends on channel set r % 2 and reads, then resets, the other.
    */
  def run(frags: Array[Fragment], program: PieProgram, maxRounds: Int = 1000): Int = {
    val nF = frags.length
    val chans = Array.fill(2)(
      Array.tabulate(nF, nF)((_, dst) => new Channel(frags(dst).innerCount, program.combiner)))
    val ctxs = new Array[PieContext](nF)
    var globalSum = 0.0
    def superstep(round: Int): Boolean = {
      val (out, in) = (chans(round & 1), chans((round + 1) & 1))
      Parallel.run(nF) { fid =>
        val f = frags(fid)
        val ctx = new PieContext(fid, nF, f.blockSize, round, globalSum, out(fid), in)
        ctxs(fid) = ctx
        if (f.innerCount == 0) () // more fragments than vertices: nothing to evaluate
        else if (round == 0) program.pEval(f, ctx) else program.incEval(f, ctx)
        (0 until nF).foreach { g => in(g)(fid).reset(); out(fid)(g).seal() }
      }
      globalSum = ctxs.foldLeft(0.0)(_ + _.partialSum)
      out.exists(_.exists(_.messages > 0))
    }
    var active = superstep(0)
    var rounds = 0
    while (active && rounds < maxRounds) { rounds += 1; active = superstep(rounds) }
    rounds
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
        val l = ch(ch.index(k)).toInt
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
    Pie.run(frags, new PieProgram {
      val combiner: Combiner = comb
      def pEval(frag: Fragment, ctx: PieContext): Unit = incEval(frag, ctx)
      def incEval(frag: Fragment, ctx: PieContext): Unit = {
        var i = 0
        while (i < frag.innerCount) {
          var msg = comb.identity
          var sf = 0
          while (sf < ctx.nFrags) { msg = comb(msg, ctx.inbound(sf)(i)); sf += 1 }
          val v = frag.globalOf(i)
          if (ctx.round == 0 || msg != comb.identity)
            values(v) = program.compute(ctx.round, frag, i, values(v), msg, ctx)
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
