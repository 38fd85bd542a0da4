package repro.learning

import java.util.concurrent.{ArrayBlockingQueue, TimeUnit}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicLong, DoubleAdder}
import repro.grin.GrinGraph
import repro.util.Parallel

/** The decoupled, asynchronously pipelined sampling/training runtime (§7).
  *
  * Sampler workers (the "CPU sampling cluster") pull batch indices, build
  * their batches, and push them into a bounded prefetch channel; trainer
  * workers (the "GPU instances") consume from the channel and train.
  * Sampler and trainer counts scale independently — the paper's core §7
  * claim — and `pipelined = false` runs the coupled sample-then-train loop
  * for comparison. [[run]] takes any sampler/trainer pair: GraphSAGE
  * ([[trainEpoch]]) and NCN (Exp-7) both train through it.
  *
  * "Nodes" in scale-out mode are worker groups whose feature fetches pay
  * the simulated network cost (see [[FeatureStore]]).
  */
object LearnPipeline {

  private val Prefetch = 8
  private val LearningRate = 0.05f

  final case class Config(
      nSamplers: Int,
      nTrainers: Int,
      nNodes: Int = 1,
      batchSize: Int = 1024,
      fanouts: Array[Int] = Array(15, 10, 5),
      pipelined: Boolean = true,
      distributed: Boolean = false,
      seed: Long = 17)

  final case class Metrics(epochMillis: Long, meanLoss: Double, accuracy: Double,
                           batches: Int, samplerBusyMillis: Long, trainerBusyMillis: Long)

  /** Runs one epoch over all vertices as seeds (shuffled deterministic). */
  def trainEpoch(g: GrinGraph, store: FeatureStore, model: Sage, cfg: Config): Metrics = {
    val n = g.vertexCount
    val order = {
      val a = Array.tabulate(n)(identity)
      val rng = new java.util.Random(cfg.seed)
      var i = n - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
      a
    }
    val nBatches = (n + cfg.batchSize - 1) / cfg.batchSize
    run[Batch](nBatches, n, cfg.nSamplers, cfg.nTrainers, cfg.pipelined) { w =>
      val sampler = new NeighborSampler(g, store, cfg.fanouts, cfg.seed + w)
      val part = w % math.max(1, cfg.nNodes)
      b => {
        val lo = b * cfg.batchSize
        val seeds = java.util.Arrays.copyOfRange(order, lo, math.min(n, lo + cfg.batchSize))
        sampler.sample(seeds, b, localPart = part, distributed = cfg.distributed)
      }
    }(model.trainStep(_, LearningRate))
  }

  /** Trains batches `0 until nBatches` once each and returns the totals.
    * `sampler(w)` builds worker `w`'s sampler, which maps a batch index to
    * its batch; `train` returns a batch's (loss, #correct), and accuracy is
    * #correct over `items`. Pipelined, `nSamplers` samplers feed `nTrainers`
    * trainers through the prefetch channel; coupled, `nTrainers` workers
    * each sample a batch and then train on it. The first failure on either
    * side stops every worker and is rethrown.
    */
  def run[B](nBatches: Int, items: Int, nSamplers: Int, nTrainers: Int, pipelined: Boolean)
            (sampler: Int => Int => B)(train: B => (Double, Int)): Metrics = {
    val nextBatch = new AtomicInteger(0)
    val lossSum = new DoubleAdder
    val correct = new AtomicInteger(0)
    val samplerBusy = new AtomicLong(0)
    val trainerBusy = new AtomicLong(0)
    val failed = new AtomicBoolean(false)

    // hands out batch indices until they run out or a worker has failed
    def eachBatch(body: Int => Unit): Unit = {
      def next(): Int = if (failed.get()) nBatches else nextBatch.getAndIncrement()
      var b = next()
      while (b < nBatches) { body(b); b = next() }
    }
    def timed[T](busy: AtomicLong)(body: => T): T = {
      val s0 = System.nanoTime()
      val r = body
      busy.addAndGet(System.nanoTime() - s0)
      r
    }
    def trainOne(batch: B): Unit = {
      val (loss, corr) = timed(trainerBusy)(train(batch))
      lossSum.add(loss)
      correct.addAndGet(corr)
    }
    def failFast(body: => Unit): Unit =
      try body catch { case e: Throwable => failed.set(true); throw e }

    val t0 = System.nanoTime()
    if (pipelined) {
      val channel = new ArrayBlockingQueue[B](Prefetch)
      val done = new AtomicInteger(0)
      def samplerLoop(w: Int): Unit =
        try {
          val sample = sampler(w)
          eachBatch { b =>
            val batch = timed(samplerBusy)(sample(b))
            while (!channel.offer(batch, 2, TimeUnit.MILLISECONDS) && !failed.get()) {}
          }
        } finally done.incrementAndGet()
      def trainerLoop(): Unit = {
        var open = true
        while (open && !failed.get()) {
          val batch = channel.poll(2, TimeUnit.MILLISECONDS)
          if (batch != null) trainOne(batch)
          else if (done.get() == nSamplers && channel.isEmpty) open = false
        }
      }
      Parallel.run(nSamplers + nTrainers) { i =>
        failFast(if (i < nSamplers) samplerLoop(i) else trainerLoop())
      }
    } else {
      Parallel.run(math.max(nTrainers, 1)) { w =>
        failFast {
          val sample = sampler(w)
          eachBatch(b => trainOne(timed(samplerBusy)(sample(b))))
        }
      }
    }

    val ms = (System.nanoTime() - t0) / 1000000
    Metrics(ms, lossSum.sum() / nBatches, correct.get().toDouble / items, nBatches,
      samplerBusy.get() / 1000000, trainerBusy.get() / 1000000)
  }
}
