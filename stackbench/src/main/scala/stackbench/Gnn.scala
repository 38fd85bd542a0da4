package stackbench

import repro.graph.{GraphGen, LocalCsr, PropertyGraph}
import repro.grin.GrinGraph
import repro.learning.{FeatureStore, LearnPipeline, NeighborSampler, Sage}
import repro.storage.VineyardStore

/** `gnn`: 3-layer GraphSAGE, fan-out [15,10,5], batch 1024, trained through
  * the pipelined sampler/trainer runtime on the ogbn-products analogue in
  * a Vineyard store. One round is one epoch over the training split.
  */
object Gnn {
  val Dim = 64
  val Fanouts: Array[Int] = Array(15, 10, 5)
  val Batch = 1024
  /** Training vertices: two full batches, 5% of the graph (ogbn-products
    * trains on 8% of its vertices). Short epochs give a run enough of them
    * for a steady median.
    */
  val TrainVertices = 2 * Batch
  val WarmupEpochs = 2

  /** The first `nTrain` vertices, as the training split: trainEpoch uses
    * every vertex id below vertexCount as a seed.
    */
  final class TrainSplit(g: GrinGraph, nTrain: Int) extends DelegatingGrin(g) {
    override def vertexCount: Int = nTrain
  }

  /** Seeded bijection on 16-bit ids, as a Spark SQL expression: the dense
    * ids of the loaded graph then follow it, so its first vertices are a
    * random sample, not R-MAT's hubs.
    */
  def relabel(col: String, seed: Long): String = {
    val a = (seed & 0xfffe) | 1; val b = (seed >>> 16) & 0xffff; val c = ((seed >>> 32) & 0xfffe) | 1
    val y = s"(($col * $a + $b) & 65535)"
    s"((($y ^ shiftright($y, 7)) * $c) & 65535)"
  }

  def run(ctx: Ctx): Outcome = {
    val spark = ctx.spark
    val edges = ctx.setupStep("graph.gen_ms") {
      val s = ctx.seedOf("relabel")
      val df = GraphGen.simplify(GraphGen.rmat(spark, scale = 16, edges = 600000, seed = ctx.seedOf("gnn") & 0xffffffL))
        .selectExpr(s"${relabel("src", s)} AS src", s"${relabel("dst", s)} AS dst").cache()
      df.count()
      df
    }
    val (srcExt, dstExt) = ctx.setupStep("graph.gen_ms")(Load.collectEdges(edges))
    val el = EdgeList(srcExt, dstExt)
    val (vineyard, features) = ctx.setupStep("store.load_ms") {
      val v = VineyardStore.fromPropertyGraph(PropertyGraph.fromEdges(spark, edges))
      (v, new FeatureStore(v.vertexCount, Dim, 4, nParts = 1, seed = ctx.seedOf("features")))
    }
    ctx.stopSpark()
    val n = vineyard.vertexCount
    val nTrain = math.min(n, TrainVertices)
    val split = new TrainSplit(vineyard, nTrain)
    val g: GrinGraph = if (ctx.args.trace) new CountingGrin(split) else split
    ctx.log(s"gnn graph: $n vertices, ${vineyard.edgeCount} edges; $nTrain training vertices")
    val model = new Sage(Dim, 64, Fanouts.length, 4, seed = ctx.seedOf("model"))
    // One sampler feeding one trainer: the trainer is the bottleneck, and
    // with one trainer every epoch does the same work in the same order
    // (more trainers split an epoch's few batches unevenly from run to run).
    val samplers = 1
    val trainers = 1

    // Every epoch uses the same seed, as Exp-4 does: the same batches in the
    // same order, so epochs differ only in the model they update.
    def epoch(e: Int): LearnPipeline.Metrics = ctx.tracer.span("learning.epoch", e) {
      LearnPipeline.trainEpoch(g, features, model, LearnPipeline.Config(
        nSamplers = samplers, nTrainers = trainers, batchSize = Batch, fanouts = Fanouts,
        seed = ctx.seedOf("epoch")))
    }
    val epochs = Vector.newBuilder[LearnPipeline.Metrics]
    (0 until WarmupEpochs).foreach(e => epochs += epoch(e))

    val (seeks0, steps0) = CountingGrin.counts(g)
    val ph = ctx.timed(2) { r =>
      val r0 = System.nanoTime()
      epochs += epoch(WarmupEpochs + r)
      (System.nanoTime() - r0) / 1e6
    }
    val (seeks1, steps1) = CountingGrin.counts(g)
    val rounds = ph.rounds
    val rms = ph.roundMs
    val ms = epochs.result()
    ctx.log(f"$rounds epochs (ms): ${rms.map(x => f"$x%.0f").mkString(" ")}; loss " +
      ms.map(m => f"${m.meanLoss}%.3f").mkString(" ") + f"; accuracy ${ms.last.accuracy}%.3f; " +
      f"sampler busy ${ms.last.samplerBusyMillis} ms, trainer busy ${ms.last.trainerBusyMillis} ms per epoch")

    val problems = Seq.newBuilder[String]
    val wantBatches = (nTrain + Batch - 1) / Batch
    ms.foreach(m => problems ++= Checks.countMatches("batches per epoch", m.batches, wantBatches))
    if (!(ms.last.meanLoss < ms.head.meanLoss))
      problems += f"loss did not fall: ${ms.head.meanLoss}%.4f first, ${ms.last.meanLoss}%.4f last"
    if (!(ms.last.accuracy > 0.25)) problems += f"accuracy ${ms.last.accuracy}%.3f not above chance (0.25)"
    if (!java.util.Arrays.equals(vineyard.csr.extIds, el.extIds)) problems += "Vineyard ids differ from the edge list's"
    val sampler = new NeighborSampler(vineyard, features, Fanouts, ctx.seedOf("check"))
    val rng = new java.util.Random(ctx.seedOf("check"))
    (0 until 3).foreach { b =>
      val batch = sampler.sample(Array.fill(Batch)(rng.nextInt(nTrain)), b)
      problems ++= Checks.batchValid(s"sampled batch $b", batch, Fanouts, el.hasEdge)
    }

    if (ctx.args.trace) {
      ctx.put("grin.cursor_steps_per_round", (steps1 - steps0).toDouble / rounds, "count")
      ctx.put("grin.cursor_seeks_per_round", (seeks1 - seeks0).toDouble / rounds, "count")
      // The Vineyard load builds its CSR inside; the layer figure comes from
      // building one apart, here, where it cannot slow the timed phase.
      val csr = ctx.setupStep("graph.csr_build_ms")(LocalCsr.build(srcExt, dstExt))
      Probe.storage(ctx, el, csr, None)
      problems ++= Probe.query(ctx, vineyard, el)
      problems ++= Probe.learning(ctx, vineyard, el)
      Probe.phase(ctx, ph)
    }

    Outcome(ph.endToEnd, ctx.layerMetrics, attempted = rounds.toLong * wantBatches, failed = 0L, problems.result())
  }
}
