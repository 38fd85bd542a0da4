package repro.analytics.grape

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicLongArray}
import repro.analytics.grape.GrapeEngine.Damping
import repro.graph.LocalCsr
import repro.util.{IntBuf, Parallel}

/** Comparator engines for Exp-3 (paper Fig. 7h–k).
  *
  * PowerGraph, Gemini, Groute and Gunrock are native (and for the latter
  * two, GPU) systems we cannot run; each simulator below implements that
  * system's *published execution strategy* on the same thread/CSR substrate
  * as GRAPE, so measured deltas isolate the strategy (DESIGN.md
  * substitution 2). The PageRanks share one power iteration and the
  * level-synchronous BFSs one level loop; each simulator supplies only the
  * step its system is known for:
  *
  *  - [[PowerGraphSim]]: GAS decomposition with *fragmented small messages* —
  *    one heap-allocated message object per edge pushed through shared
  *    queues, plus a mirror-synchronization pass (vertex-cut replication).
  *    This is exactly the overhead GRAPE's compact aggregated buffers remove.
  *  - [[GeminiSim]]: chunk-parallel dense push into one shared accumulator
  *    array with CAS atomics (Gemini's push mode) — no allocation, but every
  *    edge pays an atomic RMW on a contended cache line.
  *  - [[GrouteSim]]: asynchronous worklist of small vertex chunks taken from
  *    a shared concurrent queue (Groute's async multi-"device" scheduling),
  *    updates via atomics, no superstep barriers.
  *  - [[GunrockSim]]: BSP frontier advance with atomic frontier compaction
  *    per iteration (Gunrock's advance/filter operators); PageRank pulls
  *    over the CSC like Gunrock's gather kernels.
  */
object Baselines {

  private def threads: Int = Runtime.getRuntime.availableProcessors()

  /** The power iteration every simulator's PageRank runs: ranks start at
    * 1/n, dangling mass is spread evenly, and a parallel pass applies the
    * damping. `gather(rank, sum)` is the simulator's own step: it adds
    * rank(v) / outDegree(v) into `sum(u)` for every edge v -> u, and `sum`
    * starts zeroed.
    */
  private def powerIteration(csr: LocalCsr, iters: Int)(gather: (Array[Double], Array[Double]) => Unit): Array[Double] = {
    val n = csr.n
    val nT = threads
    val dangling = new IntBuf
    var v = 0
    while (v < n) { if (csr.outDegree(v) == 0) dangling.add(v); v += 1 }
    var rank = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      var mass = 0.0
      var k = 0
      while (k < dangling.size) { mass += rank(dangling(k)); k += 1 }
      val share = mass / n
      val next = new Array[Double](n)
      gather(rank, next)
      Parallel.run(nT) { tid =>
        var v = tid
        while (v < n) { next(v) = (1 - Damping) / n + Damping * (next(v) + share); v += nT }
      }
      rank = next
      it += 1
    }
    rank
  }

  /** The level loop every level-synchronous BFS runs: `dist` starts at -1
    * except the source's 0, and `expand(dist, frontier, level)`, the
    * simulator's own step, settles level + 1 from `frontier` and returns it.
    */
  private def levels(csr: LocalCsr, source: Int)(
      expand: (AtomicIntegerArray, Array[Int], Int) => Array[Int]): Array[Int] = {
    val dist = new AtomicIntegerArray(Array.fill(csr.n)(-1))
    dist.set(source, 0)
    var frontier = Array(source)
    var level = 0
    while (frontier.nonEmpty) {
      frontier = expand(dist, frontier, level)
      level += 1
    }
    Array.tabulate(csr.n)(dist.get)
  }

  /** Gemini's and Groute's push: adds rank(v) / outDegree(v) into `acc` (by
    * CAS, as double bits) for every out-edge of each v in `lo until hi`.
    */
  private def casPush(csr: LocalCsr, rank: Array[Double], acc: AtomicLongArray, lo: Int, hi: Int): Unit = {
    var v = lo
    while (v < hi) {
      val c = rank(v) / csr.outDegree(v)
      var e = csr.outOff(v)
      while (e < csr.outOff(v + 1)) {
        Parallel.atomicAddDouble(acc, csr.outDst(e), c)
        e += 1
      }
      v += 1
    }
  }

  /** Copies the double bits in `acc` into `sum`, in parallel. */
  private def unpack(acc: AtomicLongArray, sum: Array[Double]): Unit = {
    val nT = threads
    Parallel.run(nT) { tid =>
      var v = tid
      while (v < sum.length) { sum(v) = java.lang.Double.longBitsToDouble(acc.get(v)); v += nT }
    }
  }

  // ----------------------------------------------------------------- PowerGraph

  /** One boxed message per edge — the "fragmented, randomly distributed
    * small messages" of §6.
    */
  final class Msg(val target: Int, val value: Double)

  object PowerGraphSim {
    def pageRank(csr: LocalCsr, iters: Int): Array[Double] = {
      val n = csr.n
      val nT = threads
      val queues = Array.fill(nT)(new ConcurrentLinkedQueue[Msg]())
      val mirrors = new Array[Double](n) // vertex-cut mirror copies
      powerIteration(csr, iters) { (rank, sum) =>
        // apply+sync phase: replicate master values to mirrors (extra pass)
        System.arraycopy(rank, 0, mirrors, 0, n)
        // scatter (GAS "scatter"): one message object per edge
        Parallel.run(nT) { tid =>
          var v = tid
          while (v < n) {
            val c = mirrors(v) / csr.outDegree(v)
            var e = csr.outOff(v)
            while (e < csr.outOff(v + 1)) {
              val u = csr.outDst(e)
              queues(u % nT).add(new Msg(u, c))
              e += 1
            }
            v += nT
          }
        }
        // gather: drain queues into sums
        Parallel.run(nT) { tid =>
          val q = queues(tid)
          var m = q.poll()
          while (m != null) {
            sum(m.target) += m.value // targets of queue tid are disjoint mod nT
            m = q.poll()
          }
        }
      }
    }

    def bfs(csr: LocalCsr, source: Int): Array[Int] = {
      val nT = threads
      val queues = Array.fill(nT)(new ConcurrentLinkedQueue[Msg]())
      levels(csr, source) { (dist, fr, level) =>
        Parallel.run(nT) { tid =>
          var k = tid
          while (k < fr.length) {
            val v = fr(k)
            var e = csr.outOff(v)
            while (e < csr.outOff(v + 1)) {
              val u = csr.outDst(e)
              if (dist.getPlain(u) < 0) queues(u % nT).add(new Msg(u, 0))
              e += 1
            }
            k += nT
          }
        }
        val parts = new Array[Array[Int]](nT)
        Parallel.run(nT) { tid =>
          val buf = new IntBuf
          val q = queues(tid)
          var m = q.poll()
          while (m != null) {
            // plain: the targets of queue tid are disjoint mod nT
            if (dist.getPlain(m.target) < 0) { dist.setPlain(m.target, level + 1); buf.add(m.target) }
            m = q.poll()
          }
          parts(tid) = buf.toArray
        }
        parts.flatten
      }
    }
  }

  // --------------------------------------------------------------------- Gemini

  object GeminiSim {
    def pageRank(csr: LocalCsr, iters: Int): Array[Double] = {
      val n = csr.n
      val nT = threads
      powerIteration(csr, iters) { (rank, sum) =>
        val acc = new AtomicLongArray(n) // doubles as bits; CAS adds
        Parallel.run(nT) { tid =>
          casPush(csr, rank, acc, (n.toLong * tid / nT).toInt, (n.toLong * (tid + 1) / nT).toInt)
        }
        unpack(acc, sum)
      }
    }

    def bfs(csr: LocalCsr, source: Int): Array[Int] = {
      val nT = threads
      levels(csr, source) { (dist, fr, level) =>
        val parts = new Array[Array[Int]](nT)
        Parallel.run(nT) { tid =>
          val buf = new IntBuf
          var k = tid
          while (k < fr.length) {
            val v = fr(k)
            var e = csr.outOff(v)
            while (e < csr.outOff(v + 1)) {
              val u = csr.outDst(e)
              if (dist.get(u) < 0 && dist.compareAndSet(u, -1, level + 1)) buf.add(u)
              e += 1
            }
            k += nT
          }
          parts(tid) = buf.toArray
        }
        parts.flatten
      }
    }
  }

  // --------------------------------------------------------------------- Groute

  object GrouteSim {
    private val ChunkSize = 128

    def pageRank(csr: LocalCsr, iters: Int): Array[Double] = {
      val n = csr.n
      powerIteration(csr, iters) { (rank, sum) =>
        val acc = new AtomicLongArray(n)
        // async-style: workers pull small chunks from a shared queue
        val chunkQ = new ConcurrentLinkedQueue[Integer]()
        var c = 0
        while (c * ChunkSize < n) { chunkQ.add(c); c += 1 }
        Parallel.run(threads) { _ =>
          var chunk = chunkQ.poll()
          while (chunk != null) {
            casPush(csr, rank, acc, chunk * ChunkSize, math.min(n, chunk * ChunkSize + ChunkSize))
            chunk = chunkQ.poll()
          }
        }
        unpack(acc, sum)
      }
    }

    /** Asynchronous BFS: a shared worklist of chunks, no level barriers;
      * distances settle by monotone CAS relaxation (may revisit vertices —
      * Groute trades redundant work for asynchrony).
      */
    def bfs(csr: LocalCsr, source: Int): Array[Int] = {
      val n = csr.n
      val nT = threads
      val dist = new AtomicIntegerArray(n)
      (0 until n).foreach(dist.set(_, Int.MaxValue))
      dist.set(source, 0)
      val work = new ConcurrentLinkedQueue[Array[Int]]()
      work.add(Array(source))
      val inflight = new AtomicInteger(1)
      Parallel.run(nT) { _ =>
        var spin = 0
        while (inflight.get() > 0) {
          val chunk = work.poll()
          if (chunk == null) {
            spin += 1
            if (spin > 1000) { Thread.onSpinWait(); spin = 0 }
          } else {
            val buf = new IntBuf
            var k = 0
            while (k < chunk.length) {
              val v = chunk(k)
              val dv = dist.get(v)
              var e = csr.outOff(v)
              while (e < csr.outOff(v + 1)) {
                val u = csr.outDst(e)
                var cur = dist.get(u)
                while (cur > dv + 1 && !dist.compareAndSet(u, cur, dv + 1)) cur = dist.get(u)
                if (cur > dv + 1) buf.add(u)
                e += 1
              }
              k += 1
            }
            if (buf.size > 0) {
              var off = 0
              while (off < buf.size) {
                val m = math.min(ChunkSize, buf.size - off)
                val arr = new Array[Int](m)
                var i = 0
                while (i < m) { arr(i) = buf(off + i); i += 1 }
                inflight.incrementAndGet()
                work.add(arr)
                off += m
              }
            }
            inflight.decrementAndGet()
          }
        }
      }
      Array.tabulate(n)(v => { val d0 = dist.get(v); if (d0 == Int.MaxValue) -1 else d0 })
    }
  }

  // -------------------------------------------------------------------- Gunrock

  object GunrockSim {
    def pageRank(csr: LocalCsr, iters: Int): Array[Double] = {
      val n = csr.n
      val nT = threads
      val deg = Array.tabulate(n)(csr.outDegree)
      powerIteration(csr, iters) { (rank, sum) =>
        // pull over CSC (gather kernel): random reads of rank per in-edge
        Parallel.run(nT) { tid =>
          val lo = (n.toLong * tid / nT).toInt
          val hi = (n.toLong * (tid + 1) / nT).toInt
          var u = lo
          while (u < hi) {
            var s = 0.0
            var e = csr.inOff(u)
            while (e < csr.inOff(u + 1)) {
              val v = csr.inSrc(e)
              s += rank(v) / deg(v)
              e += 1
            }
            sum(u) = s
            u += 1
          }
        }
      }
    }

    def bfs(csr: LocalCsr, source: Int): Array[Int] = {
      val nT = threads
      levels(csr, source) { (dist, fr, level) =>
        // advance + filter: expand into a shared next-frontier with an
        // atomic write cursor (Gunrock's compaction)
        val next = new Array[Int](csr.n)
        val cursor = new AtomicInteger(0)
        Parallel.run(nT) { tid =>
          var k = tid
          while (k < fr.length) {
            val v = fr(k)
            var e = csr.outOff(v)
            while (e < csr.outOff(v + 1)) {
              val u = csr.outDst(e)
              if (dist.get(u) < 0 && dist.compareAndSet(u, -1, level + 1))
                next(cursor.getAndIncrement()) = u
              e += 1
            }
            k += nT
          }
        }
        java.util.Arrays.copyOf(next, cursor.get)
      }
    }
  }
}
