package stackbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** Command line of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

object Args {
  def parse(a: Array[String]): Args = {
    val m = a.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      m.getOrElse("trace", "0") == "1")
  }
}

/** What a workload hands back: its end-to-end figures, the per-layer ones
  * (traced runs only), the operation counts and the outcome of its checks.
  */
final case class Outcome(
    endToEnd: Seq[(String, Double, String)],
    perLayer: Seq[(String, Double, String)],
    attempted: Long,
    failed: Long,
    problems: Seq[String])

/** One span: a call into a layer, made from the benchmark's own code. */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, op: Long)

/** In-memory span recorder. Off in untraced runs: then `span` only runs the
  * body, so end-to-end figures carry no tracing cost.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = new java.util.concurrent.ConcurrentLinkedQueue[Span]()
  private val ids = new java.util.concurrent.atomic.AtomicInteger(0)
  private val current = new ThreadLocal[Integer] { override def initialValue(): Integer = -1 }

  def span[T](name: String, op: Long = -1L)(body: => T): T =
    if (!enabled) body
    else {
      val id = ids.incrementAndGet()
      val parent: Int = current.get()
      current.set(id)
      val t0 = System.nanoTime()
      try body
      finally {
        spans.add(Span(id, name, t0, System.nanoTime(), parent, op))
        current.set(parent)
      }
    }

  def all: Seq[Span] = { val b = Vector.newBuilder[Span]; spans.forEach(s => b += s); b.result() }

  /** Writes the spans as tab-separated lines: id, name, start, end, parent, op. */
  def write(path: java.nio.file.Path): Unit = {
    Option(path.getParent).foreach(java.nio.file.Files.createDirectories(_))
    val w = java.nio.file.Files.newBufferedWriter(path, java.nio.charset.StandardCharsets.UTF_8)
    try {
      w.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
      all.sortBy(_.startNs).foreach { s =>
        w.write(s"${s.id}\t${s.name}\t${s.startNs}\t${s.endNs}\t${s.parent}\t${s.op}\n")
      }
    } finally w.close()
  }
}

object Stats {
  /** Median; NaN when empty. */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val h = s.length / 2
      if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
    }
}

/** JVM-level counters: collections, CPU time, heap after a full collection. */
object Jvm {
  private def gcBeans = ManagementFactory.getGarbageCollectorMXBeans.toArray
    .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean])

  /** (collections, collection ms) since JVM start. */
  def gc(): (Long, Long) =
    gcBeans.foldLeft((0L, 0L)) { case ((c, t), b) =>
      (c + math.max(0, b.getCollectionCount), t + math.max(0, b.getCollectionTime)) }

  def processCpuNanos(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Heap in use (MB) after full collections, once it stops shrinking.
    * The pause between collections lets Spark's cleaner thread drop what
    * the previous collection released (broadcasts, shuffle state).
    */
  def liveHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    var prev = Long.MaxValue
    var cur = Long.MaxValue - 1
    var tries = 0
    while (cur < prev && tries < 5) {
      prev = cur
      System.gc()
      Thread.sleep(200)
      cur = mem.getHeapMemoryUsage.getUsed
      tries += 1
    }
    cur / (1024.0 * 1024.0)
  }

  /** CPU time the hypervisor gave to other guests (steal), in seconds
    * summed over all CPUs, from /proc/stat; 0 where that file is absent.
    */
  def stealSeconds(): Double =
    try {
      val f = scala.io.Source.fromFile("/proc/stat")
      try {
        val cpu = f.getLines().next().trim.split("\\s+")
        if (cpu.length > 8) cpu(8).toDouble / 100.0 else 0.0
      } finally f.close()
    } catch { case _: java.io.IOException => 0.0 }

  def collectorNames: String = gcBeans.map(_.getName).mkString("+")
}

/** Minimal JSON rendering for the result line (numbers keep all digits). */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)

  def result(correct: Boolean, attempted: Long, failed: Long,
             metrics: Seq[(String, Double, String)]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map { case (n, v, u) => s"""${str(n)}: {"value": ${num(v)}, "unit": ${str(u)}}""" }
        .mkString(", ") + "}}"
}

/** Thread-safe sample buffer for latencies. */
final class Samples {
  private val buf = mutable.ArrayBuffer.empty[Double]
  def add(x: Double): Unit = synchronized { buf += x }
  def values: Vector[Double] = synchronized(buf.toVector)
}
