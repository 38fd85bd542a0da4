package repro.util

import java.util.concurrent.{Executors, ThreadFactory}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** Minimal fork-join helper for the driver-side analytics engines. */
object Parallel {

  // Cached (unbounded) so callers whose workers block on each other, or that
  // nest `run`, always get a thread per index; idle threads are reused across
  // phases and supersteps, and retire after a minute.
  private lazy val pool = {
    val ids = new AtomicInteger()
    Executors.newCachedThreadPool(new ThreadFactory {
      def newThread(r: Runnable): Thread = {
        val t = new Thread(r, s"par-${ids.incrementAndGet()}")
        t.setDaemon(true)
        t
      }
    })
  }

  /** Runs `body(0 until nThreads)` concurrently — index 0 on the caller, the
    * rest on pooled daemon threads — waits for all of them, and rethrows the
    * first failure.
    */
  def run(nThreads: Int)(body: Int => Unit): Unit = {
    val errs = new AtomicReference[Throwable]()
    def guarded(i: Int): Unit =
      try body(i)
      catch { case e: Throwable => errs.compareAndSet(null, e) }
    val rest = (1 until nThreads).map(i => pool.submit(new Runnable { def run(): Unit = guarded(i) }))
    if (nThreads > 0) guarded(0)
    rest.foreach(_.get())
    val e = errs.get()
    if (e != null) throw e
  }

  /** CAS-based add into an AtomicLongArray holding double bits. */
  @inline def atomicAddDouble(a: java.util.concurrent.atomic.AtomicLongArray,
                              i: Int, v: Double): Unit = {
    var done = false
    while (!done) {
      val cur = a.get(i)
      val upd = java.lang.Double.doubleToRawLongBits(
        java.lang.Double.longBitsToDouble(cur) + v)
      done = a.compareAndSet(i, cur, upd)
    }
  }
}
