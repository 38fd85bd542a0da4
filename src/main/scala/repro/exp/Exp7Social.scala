package repro.exp

import org.apache.spark.sql.SparkSession
import repro.graph.PropertyGraph
import repro.learning._
import repro.storage.VineyardStore

/** Exp-7 — social relation prediction (paper §9.2): NCN training on a
  * social graph with decoupled sampling/training. The paper runs 10
  * sampling + 20 training nodes for 1.5 h/epoch and reports linear
  * scalability; here we sweep sampler counts (the NCN bottleneck is
  * common-neighbor extraction + k-hop sampling) and show near-linear
  * sampling throughput plus the benefit of sizing samplers vs trainers
  * independently.
  */
object Exp7Social {

  final case class Row(nSamplers: Int, pairsPerSec: Double)
  final case class Result(scaling: Seq[Row], nPairs: Int,
                          decoupled: LearnPipeline.Metrics, coupled: LearnPipeline.Metrics) {
    def decoupledPairsPerSec: Double = nPairs * 1000.0 / decoupled.epochMillis
    def coupledPairsPerSec: Double = nPairs * 1000.0 / coupled.epochMillis
  }

  def run(spark: SparkSession, quick: Boolean = false): Result = {
    val edges = if (quick)
      repro.graph.GraphGen.simplify(repro.graph.GraphGen.rmat(spark, 12, 40000, seed = 107))
    else
      repro.graph.GraphGen.simplify(repro.graph.GraphGen.rmat(spark, 16, 1000000, seed = 107))
    val grin = VineyardStore.fromPropertyGraph(PropertyGraph.fromEdges(spark, edges))
    val store = new FeatureStore(grin.vertexCount, 32, 4, 4, seed = 15)
    val enc = new Sage(32, 32, 2, 4, seed = 15)
    val nPairs = if (quick) 4000 else 20000
    val batchPairs = 128

    val rng = new java.util.Random(9)
    val pairs = Array.fill(nPairs) {
      (rng.nextInt(grin.vertexCount), rng.nextInt(grin.vertexCount))
    }
    val labels = Array.fill(nPairs)(rng.nextInt(2))

    val nBatches = nPairs / batchPairs

    // Worker w's sampler over the pair slices, seeded from `seedBase`.
    def ncnSampler(seedBase: Int)(w: Int): Int => NcnSampler#NcnBatch = {
      val sampler = new NcnSampler(grin, store, Array(10, 5), seed = seedBase + w)
      b => {
        val lo = b * batchPairs
        sampler.sampleBatch(pairs.slice(lo, lo + batchPairs), labels.slice(lo, lo + batchPairs), b)
      }
    }

    // sampler-only sweep: the coupled loop with a no-op train step
    def sampleAll(nSamplers: Int): Double = {
      val m = LearnPipeline.run(nBatches, nBatches * batchPairs, nSamplers, nSamplers,
        pipelined = false)(ncnSampler(15))(_ => (0.0, 0))
      nPairs * 1000.0 / m.epochMillis
    }

    val counts = if (quick) Seq(1, 2) else Seq(1, 2, 4, 8)
    val scaling = counts.map(c => Row(c, sampleAll(c)))

    // decoupled (4 samplers feeding 2 trainers via a channel) vs coupled
    // (2 workers that each sample, then train)
    val trainer = new NcnTrainer(enc)
    def endToEnd(decoupled: Boolean): LearnPipeline.Metrics =
      LearnPipeline.run(nBatches, nBatches * batchPairs, nSamplers = 4, nTrainers = 2,
        pipelined = decoupled)(ncnSampler(31))(trainer.trainStep)

    // One untimed epoch first, so neither timed epoch pays for the JIT
    // compiling the encoder (NcnTrainer only scores, so the model is unchanged).
    endToEnd(decoupled = true)
    Result(scaling, nPairs, endToEnd(decoupled = true), endToEnd(decoupled = false))
  }

  def report(r: Result): String = {
    val base = r.scaling.head
    "== Exp-7: NCN social relation prediction ==\n" +
      Timing.table(Seq("#samplers", "pairs/s", "scaling"),
        r.scaling.map(x => Seq(x.nSamplers.toString, f"${x.pairsPerSec}%.0f",
          f"${x.pairsPerSec / base.pairsPerSec}%.2fx (ideal ${x.nSamplers / base.nSamplers}%dx)"))) +
      f"\n   end-to-end pairs/s: decoupled(4 samplers:2 trainers) ${r.decoupledPairsPerSec}%.0f" +
      f" vs coupled(2 workers) ${r.coupledPairsPerSec}%.0f" +
      f" = ${r.decoupledPairsPerSec / r.coupledPairsPerSec}%.2fx\n" +
      f"   busy ms: decoupled sampler ${r.decoupled.samplerBusyMillis} trainer ${r.decoupled.trainerBusyMillis};" +
      f" coupled sampler ${r.coupled.samplerBusyMillis} trainer ${r.coupled.trainerBusyMillis}\n" +
      "   paper: 10 sampling + 20 training nodes, 1.5h/epoch, linear scaling\n"
  }
}
