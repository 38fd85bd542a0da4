package repro.exp

import org.apache.spark.sql.SparkSession
import repro.apps.FraudDetection
import repro.graph.SnbData
import repro.query.HiActorRuntime
import repro.storage.GartStore

/** Exp-5 — real-time fraud detection throughput (paper **Table 2**):
  * the co-purchase stored procedure on HiActor over GART, under a live
  * order stream, at increasing worker-thread counts.
  *
  * Paper (10/20/30/40 threads): 98,907 / 184,826 / 279,005 / 355,813 ops/s,
  * near-linear. We have 16 cores, so the sweep is 2/4/8/16 threads; the
  * claim under test is the *linearity*, which the per-mailbox actor runtime
  * provides.
  */
object Exp5Fraud {

  final case class Row(threads: Int, opsPerSec: Double, alerts: Long)
  final case class Result(rows: Seq[Row])

  def run(spark: SparkSession, quick: Boolean = false): Result = {
    val nAccounts = if (quick) 2000 else 20000
    val pg = SnbData.fraudGraph(spark, nAccounts = nAccounts, nItems = nAccounts / 4,
      nOrders = nAccounts.toLong * 10, avgKnows = 4, seed = 91)
    val gart = GartStore.fromPropertyGraph(pg)
    val snap0 = gart.snapshot()
    val rng = new java.util.Random(3)
    val seedExt = (0 until 200).map(_ => rng.nextInt(nAccounts).toLong + 1).distinct

    val threadCounts = if (quick) Seq(2, 4) else Seq(2, 4, 8, 16)
    val opsPerThread = if (quick) 2000 else 25000

    val rows = threadCounts.map { w =>
      val rt = new HiActorRuntime(w)
      val nOps = opsPerThread * w
      // live writer: new orders stream in while queries run, one BUY edge
      // per four completed checks (the write mix of the oltp-live
      // workload), so the graph grows with the work done, not with how
      // long the reads take; it blocks while it is ahead of the readers
      val edges = nOps / 4
      val paid = new java.util.concurrent.Semaphore(0)
      val writer = new Thread(() => {
        val wr = new java.util.Random(7)
        var i = 0
        while (i < edges) {
          paid.acquire()
          gart.addEdge(wr.nextInt(nAccounts).toLong + 1,
            SnbData.TagBase + wr.nextInt(nAccounts / 4), "BUY",
            18400L + i % 100, 1.0)
          i += 1
          if (i % 100 == 0) gart.commit()
        }
        gart.commit()
      })
      writer.start()

      // Internal ids are stable across GART snapshots — resolve seeds once.
      val seeds = FraudDetection.seedBitSet(snap0, seedExt)
      val alerts = new java.util.concurrent.atomic.AtomicLong(0)
      val t0 = System.nanoTime()
      val futs = (0 until nOps).map { i =>
        rt.submit {
          val snap = gart.snapshot()
          val acc = snap.internalId((i % nAccounts) + 1L)
          val v = FraudDetection.check(snap, acc, seeds, threshold = 3.0)
          if (v.alert) alerts.incrementAndGet()
          if (i % 4 == 3) paid.release()
        }
      }
      futs.foreach(_.get())
      val secs = (System.nanoTime() - t0) / 1e9
      writer.join()
      rt.shutdown()
      Row(w, nOps / secs, alerts.get())
    }
    Result(rows)
  }

  def report(r: Result): String = {
    val base = r.rows.head
    "== Exp-5 (Table 2): real-time fraud detection throughput ==\n" +
      Timing.table(Seq("#threads", "throughput (ops/s)", "scaling", "alerts"),
        r.rows.map(x => Seq(x.threads.toString, f"${x.opsPerSec}%.0f",
          f"${x.opsPerSec / base.opsPerSec}%.2fx (ideal ${x.threads.toDouble / base.threads}%.0fx)",
          x.alerts.toString))) +
      "\n   paper Table 2 (10/20/30/40 threads): 98,907 / 184,826 / 279,005 / 355,813 ops/s\n" +
      "   claim under test: near-linear scaling with worker threads under a live write stream\n"
  }
}
