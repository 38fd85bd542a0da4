package repro.exp

import org.apache.spark.sql.SparkSession
import repro.graph.PropertyGraph
import repro.learning._
import repro.storage.VineyardStore

/** Exp-4 — graph learning scalability (paper Fig. 7l–m): 3-layer GraphSAGE,
  * fanout [15,10,5], batch 1024, on the ogbn-products analogue.
  * Scale-up: 1→4 trainer workers ("GPUs") on one node (paper 3.94× at 4).
  * Scale-out: 1→4 "nodes" × 2 trainers, with the simulated feature network
  * (paper 3.42× at 4 nodes, thanks to async pipelining + prefetch).
  */
object Exp4Learning {

  final case class Row(mode: String, workers: Int, epochMs: Long, loss: Double)
  final case class Result(scaleUp: Seq[Row], scaleOut: Seq[Row],
                          pipelined: LearnPipeline.Metrics, coupled: LearnPipeline.Metrics) {
    def pipelinedMs: Long = pipelined.epochMillis
    def coupledMs: Long = coupled.epochMillis
  }

  def run(spark: SparkSession, quick: Boolean = false): Result = {
    val edges = if (quick)
      repro.graph.GraphGen.simplify(repro.graph.GraphGen.rmat(spark, 11, 15000, seed = 106))
    else Datasets.gnnGraph(spark)
    val grin = VineyardStore.fromPropertyGraph(PropertyGraph.fromEdges(spark, edges))
    val dim = 64
    val store = new FeatureStore(grin.vertexCount, dim, 4, nParts = 4, seed = 13,
      remoteLatencyNanos = 200000, bytesPerSecond = 1e9)
    val fanouts = Array(15, 10, 5)
    val batch = 1024

    def epoch(nSamplers: Int, nTrainers: Int, nNodes: Int, distributed: Boolean,
              pipelined: Boolean = true): LearnPipeline.Metrics = {
      val model = new Sage(dim, 64, 3, 4, seed = 3)
      LearnPipeline.trainEpoch(grin, store, model, LearnPipeline.Config(
        nSamplers = nSamplers, nTrainers = nTrainers, nNodes = nNodes,
        batchSize = batch, fanouts = fanouts, pipelined = pipelined,
        distributed = distributed, seed = 29))
    }

    val upWorkers = if (quick) Seq(1, 2) else Seq(1, 2, 4)
    val scaleUp = upWorkers.map { w =>
      val m = epoch(nSamplers = w, nTrainers = w, nNodes = 1, distributed = false)
      Row("scale-up", w, m.epochMillis, m.meanLoss)
    }
    val outNodes = if (quick) Seq(1, 2) else Seq(1, 2, 3, 4)
    val scaleOut = outNodes.map { nodes =>
      val m = epoch(nSamplers = nodes * 2, nTrainers = nodes * 2, nNodes = nodes,
        distributed = true)
      Row("scale-out", nodes, m.epochMillis, m.meanLoss)
    }

    val w = if (quick) 2 else 4
    val pip = epoch(w, w, 1, distributed = false, pipelined = true)
    val coup = epoch(w, w, 1, distributed = false, pipelined = false)
    Result(scaleUp, scaleOut, pip, coup)
  }

  def report(r: Result): String = {
    val sb = new StringBuilder
    sb.append("== Exp-4 (Fig 7l): scale-up, trainer workers ('GPUs') on one node ==\n")
    val base = r.scaleUp.head.epochMs.toDouble
    sb.append(Timing.table(Seq("workers", "epoch", "speedup", "loss"),
      r.scaleUp.map(x => Seq(x.workers.toString, Timing.fmt(x.epochMs.toDouble),
        f"${base / x.epochMs}%.2fx", f"${x.loss}%.3f")))).append('\n')
    sb.append("   paper: near-linear, 3.94x at 4 GPUs\n\n")
    sb.append("== Exp-4 (Fig 7m): scale-out, nodes x 2 workers, simulated network ==\n")
    val base2 = r.scaleOut.head.epochMs.toDouble
    sb.append(Timing.table(Seq("nodes", "epoch", "speedup", "loss"),
      r.scaleOut.map(x => Seq(x.workers.toString, Timing.fmt(x.epochMs.toDouble),
        f"${base2 / x.epochMs}%.2fx", f"${x.loss}%.3f")))).append('\n')
    sb.append("   paper: almost-linear, 3.42x at 4 nodes\n\n")
    sb.append(f"async pipelining: ${Timing.fmt(r.pipelinedMs.toDouble)} vs coupled " +
      f"${Timing.fmt(r.coupledMs.toDouble)} = ${r.coupledMs.toDouble / r.pipelinedMs}%.2fx\n")
    sb.append(f"   busy ms: pipelined sampler ${r.pipelined.samplerBusyMillis} trainer " +
      f"${r.pipelined.trainerBusyMillis}; coupled sampler ${r.coupled.samplerBusyMillis} " +
      f"trainer ${r.coupled.trainerBusyMillis}\n")
    sb.toString
  }
}
