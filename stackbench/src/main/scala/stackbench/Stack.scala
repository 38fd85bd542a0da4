package stackbench

import java.util.concurrent.atomic.LongAdder
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalCsr
import repro.grin._
import repro.storage.{GartStore, VineyardStore}

/** What every workload shares: the run's arguments and clock, the tracer,
  * the Spark session and the figures of the set-up layers.
  */
final class Ctx(val args: Args, val startMillis: Long, val workDir: java.nio.file.Path) {
  val tracer = new Tracer(args.trace)
  val nproc: Int = Runtime.getRuntime.availableProcessors()
  /** Threads a workload keeps busy at once: half the cores. The cores are
    * shared with other guests, and the CPU time they take (steal) grew with
    * our own load: at 3 busy threads on 4 cores some runs' barrier-bound
    * GRAPE rounds took 2-2.5x as long as the others; at 2, none did.
    */
  val threads: Int = math.max(1, nproc / 2)
  private val layer = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]

  def log(msg: String): Unit = System.err.println(f"[stackbench ${secondsSinceStart()}%6.1fs] $msg")

  /** Seed for one named input, derived from the run's --seed. */
  def seedOf(name: String): Long = repro.util.Rng.mix(args.seed * 1000003L + name.hashCode)

  def put(name: String, value: Double, unit: String): Unit = layer(name) = (value, unit)
  def layerMetrics: Seq[(String, Double, String)] = layer.toSeq.map { case (k, (v, u)) => (k, v, u) }

  /** Times `body` and records it as a set-up layer figure (ms). */
  def setupStep[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val r = tracer.span(name)(body)
    val ms = (System.nanoTime() - t0) / 1e6
    put(name, layer.get(name).map(_._1).getOrElse(0.0) + ms, "ms")
    r
  }

  def secondsSinceStart(): Double = (System.currentTimeMillis() - startMillis) / 1e3

  /** Ends set-up (a full collection, then the live heap and the set-up
    * time), then runs whole rounds until --seconds have passed, at least
    * `minRounds`. `round(i)` returns its own duration in ms.
    */
  def timed(minRounds: Int)(round: Int => Double): Phase = {
    val liveMb = Jvm.liveHeapMb()
    val setupS = secondsSinceStart()
    log(f"set-up done; live heap $liveMb%.0f MB")
    val (gc0, gcMs0) = Jvm.gc(); val cpu0 = Jvm.processCpuNanos(); val steal0 = Jvm.stealSeconds()
    val t0 = System.nanoTime()
    val deadline = t0 + args.seconds * 1000000000L
    val roundMs = Vector.newBuilder[Double]
    var i = 0
    while (i < minRounds || System.nanoTime() < deadline) {
      roundMs += tracer.span("round", i)(round(i))
      i += 1
    }
    val wallNs = System.nanoTime() - t0
    val (gc1, gcMs1) = Jvm.gc()
    val ph = Phase(setupS, liveMb, roundMs.result(), wallNs, Jvm.processCpuNanos() - cpu0,
      gc1 - gc0, gcMs1 - gcMs0, Jvm.stealSeconds() - steal0)
    log(f"${ph.rounds} rounds in ${wallNs / 1e9}%.1f s; median round ${Stats.median(ph.roundMs)}%.2f ms; " +
      f"CPU steal ${ph.stealS}%.2f s")
    ph
  }

  /** Stops Spark once set-up no longer needs it: its listener threads then
    * neither run beside the timed phase nor hold data they have yet to drop
    * when the live heap is measured. Stopping twice is harmless.
    */
  def stopSpark(): Unit = spark.stop()

  lazy val spark: SparkSession = setupStep("spark.start_ms") {
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("stackbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * threads).toString)
      .getOrCreate()
  }
}

/** Figures of one run's set-up and timed phase. */
final case class Phase(setupS: Double, liveMb: Double, roundMs: Vector[Double], wallNs: Long,
                       cpuNs: Long, gcCount: Long, gcMs: Long, stealS: Double) {
  def rounds: Int = roundMs.length
  def endToEnd: Seq[(String, Double, String)] = Seq(
    ("setup_s", setupS, "s"), ("live_heap_mb", liveMb, "MB"),
    ("round_ms", Stats.median(roundMs), "ms"), ("round_cpu_ms", cpuNs / 1e6 / rounds, "ms"))
}

/** Loading the generated graphs into the program's stores. */
object Load {

  /** Collects a (src, dst) DataFrame into external-id arrays. */
  def collectEdges(df: DataFrame): (Array[Long], Array[Long]) = {
    val rows = df.select("src", "dst").collect()
    (rows.map(_.getLong(0)), rows.map(_.getLong(1)))
  }

  /** Streams edges into a fresh GART in the given order, committing every
    * `commitEvery` edges. Vertices go in first, in external-id order, so
    * GART's internal ids equal the dense ids of [[EdgeList]].
    * Returns the store and the time spent in addEdge and in commit (ns).
    */
  def streamIntoGart(g: EdgeList, order: Array[Int], commitEvery: Int): (GartStore, Long, Long, Int) = {
    val store = new GartStore(g.n)
    g.extIds.foreach(id => store.addVertex(id, "V"))
    store.commit()
    var addNs = 0L; var commitNs = 0L; var commits = 0
    var i = 0
    while (i < order.length) {
      val end = math.min(order.length, i + commitEvery)
      val t0 = System.nanoTime()
      while (i < end) {
        val e = order(i)
        store.addEdge(g.extIds(g.src(e)), g.extIds(g.dst(e)), "E", i.toLong, 1.0)
        i += 1
      }
      val t1 = System.nanoTime()
      store.commit()
      addNs += t1 - t0; commitNs += System.nanoTime() - t1; commits += 1
    }
    (store, addNs, commitNs, commits)
  }

  /** A seeded permutation of 0 until n (Fisher–Yates). */
  def shuffled(n: Int, seed: Long): Array[Int] = {
    val a = Array.tabulate(n)(identity)
    val rng = new java.util.Random(seed)
    var i = n - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a
  }

  /** A Vineyard store over a topology-only CSR (one vertex and edge label). */
  def vineyardOf(csr: LocalCsr): VineyardStore =
    new VineyardStore(csr, new Array[Int](csr.n), Array("V"), Map.empty,
      new Array[Int](csr.m), Array("E"), new Array[Long](csr.m), Array.fill(csr.m)(1.0))
}

/** A GRIN graph that passes every call on to `g`; subclasses change one
  * thing about it.
  */
class DelegatingGrin(val g: GrinGraph) extends GrinGraph {
  def capabilities: Set[Capability.Value] = g.capabilities
  def vertexCount: Int = g.vertexCount
  def edgeCount: Long = g.edgeCount
  def newCursor(dir: Direction.Value): NeighborCursor = g.newCursor(dir)
  override def degree(v: Int, dir: Direction.Value): Int = g.degree(v, dir)
  override def neighborAt(v: Int, dir: Direction.Value, i: Int): Int = g.neighborAt(v, dir, i)
  def vertexLabelId(v: Int): Int = g.vertexLabelId(v)
  def vertexLabelName(id: Int): String = g.vertexLabelName(id)
  def vertexLabelIdOf(name: String): Int = g.vertexLabelIdOf(name)
  def edgeLabelName(id: Int): String = g.edgeLabelName(id)
  def edgeLabelIdOf(name: String): Int = g.edgeLabelIdOf(name)
  def vertexProp(v: Int, name: String): Any = g.vertexProp(v, name)
  def internalId(extId: Long): Int = g.internalId(extId)
  def externalId(v: Int): Long = g.externalId(v)
  def verticesByLabel(labelId: Int): Array[Int] = g.verticesByLabel(labelId)
  override def scanVerticesWhere(labelId: Int, prop: String, op: String, value: Any): Iterator[Int] =
    g.scanVerticesWhere(labelId, prop, op, value)
}

/** Counts cursor seeks and steps: how many adjacency entries an engine
  * walks per unit of work. Many views may share one pair of counters.
  */
final class CountingGrin(g: GrinGraph, val seeks: LongAdder = new LongAdder,
                         val steps: LongAdder = new LongAdder) extends DelegatingGrin(g) {
  override def newCursor(dir: Direction.Value): NeighborCursor = new NeighborCursor {
    private val c = g.newCursor(dir)
    def seek(v: Int): NeighborCursor = { seeks.increment(); c.seek(v); this }
    def moveNext(): Boolean = { steps.increment(); c.moveNext() }
    def neighbor: Int = c.neighbor
    def edgeLabelId: Int = c.edgeLabelId
    def ts: Long = c.ts
    def weight: Double = c.weight
  }
}

object CountingGrin {
  /** (seeks, steps) so far; zeros for a graph that does not count. */
  def counts(g: GrinGraph): (Long, Long) = g match {
    case c: CountingGrin => (c.seeks.sum(), c.steps.sum())
    case _ => (0L, 0L)
  }
}
