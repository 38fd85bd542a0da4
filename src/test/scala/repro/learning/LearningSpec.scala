package repro.learning

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import repro.SparkSpec
import repro.graph.{GraphGen, LocalCsr, PropertyGraph}
import repro.storage.VineyardStore

class LearningSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  /** Runs `body` off the test thread and fails the test if it has not
    * returned within 20 s, even if its workers ignore the interrupt.
    */
  private def within[T](body: => T): T = failAfter(20.seconds) {
    Await.result(Future(body)(ExecutionContext.global), Duration.Inf)
  }

  private lazy val grin = {
    val edges = GraphGen.simplify(GraphGen.rmat(spark, scale = 10, edges = 8000, seed = 51))
    VineyardStore.fromPropertyGraph(PropertyGraph.fromEdges(spark, edges))
  }
  private lazy val store = new FeatureStore(grin.vertexCount, dim = 16, nClasses = 4,
    nParts = 4, seed = 5)

  test("feature store is deterministic and labels carry signal") {
    val s2 = new FeatureStore(grin.vertexCount, 16, 4, 4, seed = 5)
    assert(store.features(10).toSeq == s2.features(10).toSeq)
    assert(store.labels.toSeq == s2.labels.toSeq)
    // labels mostly follow the feature quadrant (10% noise)
    val agree = (0 until store.n).count { v =>
      val f = store.features(v)
      store.labels(v) == ((if (f(0) > 0) 1 else 0) * 2 + (if (f(1) > 0) 1 else 0)) % 4
    }
    assert(agree > store.n * 0.8)
  }

  test("sampler: fanout bounds are respected") {
    val sampler = new NeighborSampler(grin, store, Array(5, 3), seed = 1)
    val b = sampler.sample(Array(0, 1, 2, 3), rngSeed = 0)
    assert(b.levels.length == 3)
    assert(b.levels(0).toSeq == Seq(0, 1, 2, 3))
    (0 until 2).foreach { l =>
      val fanout = Array(5, 3)(l)
      (0 until b.levels(l).length).foreach { i =>
        val sampled = b.nbrPtr(l)(i + 1) - b.nbrPtr(l)(i)
        assert(sampled <= fanout, s"level $l node $i sampled $sampled > $fanout")
      }
    }
  }

  test("sampler: self indices point at the same vertex one level deeper") {
    val sampler = new NeighborSampler(grin, store, Array(4, 4), seed = 2)
    val b = sampler.sample(Array(5, 6, 7), rngSeed = 1)
    (0 until 2).foreach { l =>
      b.levels(l).zipWithIndex.foreach { case (v, i) =>
        assert(b.levels(l + 1)(b.selfIdx(l)(i)) == v)
      }
    }
  }

  test("sampler: neighbor indices reference real out-neighbors") {
    val sampler = new NeighborSampler(grin, store, Array(6), seed = 3)
    val b = sampler.sample(Array(0, 9, 17), rngSeed = 2)
    val c = grin.newCursor(repro.grin.Direction.Out)
    b.levels(0).zipWithIndex.foreach { case (v, i) =>
      val nbrs = {
        val cur = c.seek(v)
        val s = scala.collection.mutable.Set.empty[Int]
        while (cur.moveNext()) s += cur.neighbor
        s
      }
      (b.nbrPtr(0)(i) until b.nbrPtr(0)(i + 1)).foreach { j =>
        assert(nbrs.contains(b.levels(1)(b.nbrIdx(0)(j))))
      }
    }
  }

  test("sampler: deterministic in seed") {
    val s1 = new NeighborSampler(grin, store, Array(5, 5), seed = 9)
    val s2 = new NeighborSampler(grin, store, Array(5, 5), seed = 9)
    val b1 = s1.sample(Array(1, 2), 7)
    val b2 = s2.sample(Array(1, 2), 7)
    assert(b1.levels.map(_.toSeq).toSeq == b2.levels.map(_.toSeq).toSeq)
    assert(b1.nbrIdx.map(_.toSeq).toSeq == b2.nbrIdx.map(_.toSeq).toSeq)
  }

  test("sampler: feature rows align with the deepest level") {
    val sampler = new NeighborSampler(grin, store, Array(3, 3), seed = 4)
    val b = sampler.sample(Array(2, 4), 3)
    assert(b.feats.length == b.levels(2).length)
    b.levels(2).zipWithIndex.foreach { case (v, i) =>
      assert(b.feats(i).toSeq == store.features(v).toSeq)
    }
  }

  /** The gradient of the loss on `b` with respect to the weights `param`
    * picks out of a model made by `make`. `analytic` holds every entry,
    * recovered from one `trainStep` with a tiny lr on a fresh model;
    * `numeric(k)` is entry k by central differences of `evalLoss`.
    */
  private final class GradProbe(b: Batch, make: () => Sage, param: Sage => Array[Float]) {
    private val lr = 1e-4f
    private val eps = 1e-3f
    val analytic: Array[Float] = {
      val stepped = make()
      val before = param(stepped).clone()
      stepped.trainStep(b, lr)
      Array.tabulate(before.length)(k => (before(k) - param(stepped)(k)) / lr)
    }
    private val model = make()
    def numeric(k: Int): Double = {
      val w = param(model)
      w(k) += eps
      val up = model.evalLoss(b)
      w(k) -= 2 * eps
      val down = model.evalLoss(b)
      w(k) += eps
      (up - down) / (2 * eps)
    }
  }

  test("sage: numeric gradient check on wOut") {
    val g2 = grin
    val sampler = new NeighborSampler(g2, store, Array(3, 2), seed = 6)
    val b = sampler.sample(Array(0, 1, 2, 3, 4, 5, 6, 7), 11)
    val probe = new GradProbe(b, () => new Sage(inputDim = 16, hidden = 8, nLayers = 2, nClasses = 4, seed = 2),
      _.wOut)
    val k = 5 // probe one weight
    val numericGrad = probe.numeric(k)
    val analyticGrad = probe.analytic(k)
    assert(math.abs(analyticGrad - numericGrad) < 0.05 * (math.abs(numericGrad) + 0.05),
      s"numeric $numericGrad vs analytic $analyticGrad")
  }

  test("sage: numeric gradient check on wSelf, wNeigh and bias of every layer") {
    val sampler = new NeighborSampler(grin, store, Array(3, 3, 3), seed = 6)
    val b = sampler.sample(Array(0, 1, 2, 3, 4, 5, 6, 7), 11)
    val make = () => new Sage(inputDim = 16, hidden = 8, nLayers = 3, nClasses = 4, seed = 2)
    val params = (0 until 3).flatMap { l =>
      Seq[(String, Sage => Array[Float])](
        s"wSelf($l)" -> (_.wSelf(l)), s"wNeigh($l)" -> (_.wNeigh(l)), s"bias($l)" -> (_.bias(l)))
    }
    params.foreach { case (name, param) =>
      val probe = new GradProbe(b, make, param)
      // the largest analytic entries, so a gradient of zeros cannot pass
      val probed = probe.analytic.indices.sortBy(k => -math.abs(probe.analytic(k))).take(3)
      val numeric = probed.map(probe.numeric)
      assert(numeric.exists(n => math.abs(n) > 1e-3), s"$name: numeric gradient ~0 at $probed")
      probed.zip(numeric).foreach { case (k, numericGrad) =>
        val analyticGrad = probe.analytic(k)
        assert(math.abs(analyticGrad - numericGrad) < 0.05 * (math.abs(numericGrad) + 0.05),
          s"$name($k): numeric $numericGrad vs analytic $analyticGrad")
      }
    }
  }

  test("sage: training reduces loss and beats random accuracy") {
    val sampler = new NeighborSampler(grin, store, Array(8, 4), seed = 7)
    val model = new Sage(16, 32, 2, 4, seed = 3)
    val batches = (0 until 30).map { i =>
      val seeds = Array.tabulate(128)(j => (i * 128 + j) % grin.vertexCount)
      sampler.sample(seeds, i)
    }
    val firstLoss = model.evalLoss(batches.head)
    var lastCorrect = 0
    (0 until 3).foreach { epoch =>
      batches.foreach { b =>
        val (_, c) = model.trainStep(b, 0.08f)
        lastCorrect = c
      }
    }
    val endLoss = model.evalLoss(batches.head)
    assert(endLoss < firstLoss * 0.8, s"loss did not decrease: $firstLoss -> $endLoss")
    val acc = batches.take(5).map { b =>
      val f = model.forward(b)
      b.labels.zipWithIndex.count { case (l, i) =>
        f.logits(i).indexOf(f.logits(i).max) == l
      }.toDouble / b.labels.length
    }.sum / 5
    assert(acc > 0.45, s"accuracy $acc barely above random (0.25)")
  }

  test("pipeline: pipelined epoch trains on every batch") {
    val model = new Sage(16, 16, 2, 4, seed = 4)
    val cfg = LearnPipeline.Config(nSamplers = 2, nTrainers = 2, batchSize = 256,
      fanouts = Array(5, 3), seed = 21)
    val m = LearnPipeline.trainEpoch(grin, store, model, cfg)
    assert(m.batches == (grin.vertexCount + 255) / 256)
    assert(m.meanLoss > 0)
    assert(m.epochMillis > 0)
  }

  test("pipeline: coupled mode processes the same number of batches") {
    val model = new Sage(16, 16, 2, 4, seed = 4)
    val cfg = LearnPipeline.Config(nSamplers = 2, nTrainers = 2, batchSize = 256,
      fanouts = Array(5, 3), pipelined = false, seed = 21)
    val m = LearnPipeline.trainEpoch(grin, store, model, cfg)
    assert(m.batches == (grin.vertexCount + 255) / 256)
  }

  test("pipeline: a sampler that throws fails the epoch, pipelined and coupled") {
    Seq(true, false).foreach { pipelined =>
      val e = intercept[IllegalStateException] {
        within {
          LearnPipeline.run[Int](100, 100, nSamplers = 2, nTrainers = 2, pipelined) { _ => b =>
            if (b == 5) throw new IllegalStateException("sampler failed on batch 5") else b
          }(_ => (1.0, 1))
        }
      }
      assert(e.getMessage == "sampler failed on batch 5", s"pipelined = $pipelined")
    }
  }

  test("pipeline: a trainer that throws fails the epoch, pipelined and coupled") {
    Seq(true, false).foreach { pipelined =>
      val e = intercept[IllegalStateException] {
        within {
          LearnPipeline.run[Int](100, 100, nSamplers = 2, nTrainers = 2, pipelined)(_ => b => b) {
            _ => throw new IllegalStateException("trainer failed")
          }
        }
      }
      assert(e.getMessage == "trainer failed", s"pipelined = $pipelined")
    }
  }

  test("pipeline: a NaN batch loss makes the mean loss NaN") {
    Seq(true, false).foreach { pipelined =>
      val m = LearnPipeline.run[Int](10, 10, nSamplers = 1, nTrainers = 1, pipelined)(_ => b => b) {
        b => (if (b == 3) Double.NaN else 1.0, 1)
      }
      assert(m.meanLoss.isNaN, s"pipelined = $pipelined: meanLoss ${m.meanLoss}")
    }
  }

  test("pipeline: an NCN epoch trains every pair batch once, pipelined and coupled") {
    val rng = new java.util.Random(12)
    val batchPairs = 16
    val nBatches = 20
    val pairs = Array.fill(nBatches * batchPairs)(
      (rng.nextInt(grin.vertexCount), rng.nextInt(grin.vertexCount)))
    val labels = Array.fill(pairs.length)(rng.nextInt(2))
    val trainer = new NcnTrainer(new Sage(16, 16, 2, 4, seed = 5))
    Seq(true, false).foreach { pipelined =>
      val trained = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Int)]()
      val m = LearnPipeline.run[NcnSampler#NcnBatch](nBatches, pairs.length, nSamplers = 3,
        nTrainers = 2, pipelined) { w =>
        val sampler = new NcnSampler(grin, store, Array(4, 3), seed = 8 + w)
        b => {
          val lo = b * batchPairs
          sampler.sampleBatch(pairs.slice(lo, lo + batchPairs), labels.slice(lo, lo + batchPairs), b)
        }
      } { nb =>
        nb.pairs.foreach(trained.add)
        trainer.trainStep(nb)
      }
      assert(m.batches == nBatches)
      assert(trained.asScala.toSeq.sorted == pairs.toSeq.sorted,
        s"pipelined = $pipelined")
      assert(m.meanLoss > 0 && !m.meanLoss.isNaN)
    }
  }

  test("distributed mode pays simulated network cost") {
    val slowStore = new FeatureStore(grin.vertexCount, 16, 4, nParts = 4, seed = 5,
      remoteLatencyNanos = 2000000) // 2ms per remote batch
    val ids = Array.tabulate(100)(identity)
    val t0 = System.nanoTime()
    slowStore.fetch(ids, localPart = 0, distributed = true)
    val slow = System.nanoTime() - t0
    val t1 = System.nanoTime()
    slowStore.fetch(ids, localPart = 0, distributed = false)
    val fast = System.nanoTime() - t1
    assert(slow > fast + 4000000, s"remote fetch $slow should pay ~6ms over local $fast")
  }

  test("ncn: common neighbors are correct") {
    val sampler = new NcnSampler(grin, store, Array(3), seed = 8)
    val c = grin.newCursor(repro.grin.Direction.Out)
    def outSet(v: Int) = {
      val cur = c.seek(v); val s = scala.collection.mutable.Set.empty[Int]
      while (cur.moveNext()) s += cur.neighbor
      s
    }
    (0 until 20).foreach { u =>
      val v = (u + 1) % grin.vertexCount
      val cn = sampler.commonNeighbors(u, v).toSet
      val want = outSet(u).intersect(outSet(v))
      assert(cn.subsetOf(want))
      if (want.size <= 8) assert(cn == want)
    }
  }

  test("ncn: scoring one batch gives a finite, positive loss") {
    val sampler = new NcnSampler(grin, store, Array(4, 3), seed = 9)
    val enc = new Sage(16, 16, 2, 4, seed = 5)
    val trainer = new NcnTrainer(enc)
    val rng = new java.util.Random(6)
    val pos = (0 until 32).map { _ =>
      var u = rng.nextInt(grin.vertexCount)
      while (grin.degree(u, repro.grin.Direction.Out) == 0) u = rng.nextInt(grin.vertexCount)
      val c = grin.newCursor(repro.grin.Direction.Out).seek(u)
      c.moveNext()
      (u, c.neighbor)
    }
    val neg = (0 until 32).map(_ => (rng.nextInt(grin.vertexCount), rng.nextInt(grin.vertexCount)))
    val pairs = (pos ++ neg).toArray
    val labels = (Array.fill(32)(1) ++ Array.fill(32)(0))
    val batch = sampler.sampleBatch(pairs, labels, 1)
    val (loss, _) = trainer.trainStep(batch)
    assert(loss > 0 && !loss.isNaN)
  }
}
