package stackbench

import repro.analytics.Reference
import repro.analytics.grape.{Fragment, GrapeEngine}
import repro.exp.GrinAlgos
import repro.graph.LocalCsr
import repro.grin.GrinGraph
import repro.learning.{FeatureStore, NeighborSampler, Sage}
import repro.query.{Catalog, CypherParser, HiActorExec, HiActorRuntime, Optimizer, SnbWorkloads}
import repro.storage.VineyardStore

/** Per-layer figures for a traced run. Every traced run reports every layer
  * of the stack: a layer the workload's timed phase exercises reports what
  * that phase measured (the workload puts those first); any other layer is
  * measured here by a short probe on the workload's own graph.
  */
object Probe {

  /** Results land here so the JIT cannot drop a call whose value is unused. */
  @volatile private var sink: Any = _

  private def medianMs(reps: Int)(body: => Any): Double = {
    sink = body // warm
    Stats.median((0 until reps).map { _ =>
      val t0 = System.nanoTime(); sink = body; (System.nanoTime() - t0) / 1e6
    })
  }

  private def has(ctx: Ctx, name: String) = ctx.layerMetrics.exists(_._1 == name)

  /** Storage and GRIN reads, GRAPE, and GART writes on `el`. */
  def storage(ctx: Ctx, el: EdgeList, csr: LocalCsr, gart: Option[GrinGraph]): Unit = {
    val vineyard = Load.vineyardOf(csr)
    val g = gart.getOrElse {
      val (store, addNs, commitNs, commits) = Load.streamIntoGart(el, Load.shuffled(el.m, ctx.seedOf("probe")), 1000)
      if (!has(ctx, "gart.add_edge_us")) {
        ctx.put("gart.add_edge_us", addNs / 1e3 / el.m, "us")
        ctx.put("gart.commit_us", commitNs / 1e3 / commits, "us")
        ctx.put("gart.snapshot_us", medianMs(9)(store.snapshot()) * 1e3, "us")
      }
      store.snapshot()
    }
    val m = csr.m.toDouble
    val csrMs = medianMs(15)(csr.scanSum())
    val vyMs = medianMs(15)(GrinAlgos.edgeScan(vineyard))
    val gartMs = medianMs(15)(GrinAlgos.edgeScan(g))
    ctx.put("csr.scan_mteps", m / (csrMs * 1e3), "Medges/s")
    ctx.put("grin.vineyard_scan_mteps", m / (vyMs * 1e3), "Medges/s")
    ctx.put("grin.gart_scan_mteps", m / (gartMs * 1e3), "Medges/s")
    ctx.put("grin.overhead_pct", (vyMs / csrMs - 1) * 100, "%")
    ctx.put("gart.scan_share_of_csr", csrMs / gartMs, "ratio")
    ctx.put("csr.pagerank_ms", medianMs(3)(Reference.pageRank(csr, 10)), "ms")
    ctx.put("grin.vineyard_pagerank_ms", medianMs(3)(GrinAlgos.pageRank(vineyard, 10)), "ms")
    ctx.put("grin.gart_pagerank_ms", medianMs(3)(GrinAlgos.pageRank(g, 10)), "ms")

    if (!has(ctx, "grape.bfs_levels")) {
      val t0 = System.nanoTime()
      val frags = Fragment.partition(csr, ctx.threads)
      ctx.put("grape.partition_ms", (System.nanoTime() - t0) / 1e6, "ms")
      val prMs = medianMs(3)(GrapeEngine.pageRank(frags, 10))
      val src = (0 until csr.n).maxBy(csr.outDegree)
      val levels = GrapeEngine.bfs(frags, src).max + 1
      val bfsMs = medianMs(3)(GrapeEngine.bfs(frags, src))
      ctx.put("grape.pagerank_mteps", m * 10 / (prMs * 1e3), "Medges/s")
      ctx.put("grape.bfs_levels", levels, "count")
      ctx.put("grape.bfs_us_per_level", bfsMs * 1e3 / levels, "us")
    }
  }

  /** Query planning of the ten SNB queries, and HiActor on a two-hop count
    * over `g`, checked against the benchmark's own count. Returns problems.
    */
  def query(ctx: Ctx, g: VineyardStore, el: EdgeList, catalog: Option[Catalog] = None): Seq[String] = {
    val qs = SnbWorkloads.short ++ SnbWorkloads.complex
    if (!has(ctx, "query.parse_us")) {
      ctx.put("query.parse_us", qs.map { case (_, q) => medianMs(20)(CypherParser.parse(q)) }.sum * 1e3 / qs.size, "us")
      val parsed = qs.map { case (_, q) => CypherParser.parse(q) }
      ctx.put("query.optimize_us", parsed.map(p => medianMs(20)(Optimizer.optimize(p, catalog))).sum * 1e3 / qs.size, "us")
    }
    if (has(ctx, "hiactor.exec_p50_us")) return Nil
    val plan = Optimizer.optimize(CypherParser.parse(
      "MATCH (a:V {id: $id})-[:E]->(b:V)-[:E]->(c:V) RETURN count(*) AS cnt"))
    val counting = new CountingGrin(g)
    val rt = new HiActorRuntime(ctx.threads)
    val rng = new java.util.Random(ctx.seedOf("probe.query"))
    val exec = new Samples; val wait = new Samples
    val problems = Seq.newBuilder[String]
    try {
      (0 until 400).foreach { i =>
        val v = rng.nextInt(el.n)
        val submitted = System.nanoTime()
        var started = 0L
        val r = rt.submit {
          started = System.nanoTime()
          HiActorExec.execute(plan, counting, Map("id" -> el.extIds(v)))
        }.get()
        val done = System.nanoTime()
        if (i >= 100) { exec.add((done - started) / 1e3); wait.add((started - submitted) / 1e3) }
        var want = 0L
        var k = el.off(v)
        while (k < el.off(v + 1)) { want += el.outDegree(el.adj(k)); k += 1 }
        problems ++= Checks.countMatches(s"HiActor two-hop count from ${el.extIds(v)}",
          r.rows.head.head.asInstanceOf[Long], want)
      }
    } finally rt.shutdown()
    ctx.put("hiactor.exec_p50_us", Stats.median(exec.values), "us")
    ctx.put("hiactor.queue_wait_p50_us", Stats.median(wait.values), "us")
    ctx.put("grin.cursor_steps_per_row", counting.steps.sum().toDouble / 400, "count")
    problems.result().take(5)
  }

  /** Sampling, feature fetch and one SAGE step per batch on `g`; the
    * batches are checked against `el`. Returns problems.
    */
  def learning(ctx: Ctx, g: GrinGraph, el: EdgeList, dim: Int = 64): Seq[String] = {
    if (has(ctx, "learning.train_ms")) return Nil
    val fanouts = Array(15, 10, 5)
    val store = new FeatureStore(g.vertexCount, dim, 4, nParts = 1, seed = ctx.seedOf("features"))
    val sampler = new NeighborSampler(g, store, fanouts, ctx.seedOf("sampler"))
    val model = new Sage(dim, 64, 3, 4, seed = 3)
    val rng = new java.util.Random(ctx.seedOf("probe.learning"))
    val sample = new Samples; val fetch = new Samples; val train = new Samples
    val edges = new Samples; val nodes = new Samples
    val problems = Seq.newBuilder[String]
    (0 until 5).foreach { b =>
      val seeds = Array.fill(1024)(rng.nextInt(g.vertexCount))
      val t0 = System.nanoTime()
      val batch = sampler.sample(seeds, b)
      val t1 = System.nanoTime()
      store.fetch(batch.levels(fanouts.length), 0, distributed = false)
      val t2 = System.nanoTime()
      model.trainStep(batch, 0.05f)
      val t3 = System.nanoTime()
      if (b > 0) {
        fetch.add((t2 - t1) / 1e6); sample.add((t1 - t0 - (t2 - t1)) / 1e6); train.add((t3 - t2) / 1e6)
        edges.add(batch.nbrIdx.map(_.length).sum); nodes.add(batch.levels.map(_.length).sum)
      }
      problems ++= Checks.batchValid(s"batch $b", batch, fanouts, el.hasEdge)
    }
    ctx.put("learning.sample_ms", Stats.median(sample.values), "ms")
    ctx.put("learning.fetch_ms", Stats.median(fetch.values), "ms")
    ctx.put("learning.train_ms", Stats.median(train.values), "ms")
    ctx.put("learning.sampled_edges_per_batch", Stats.median(edges.values), "count")
    ctx.put("learning.nodes_per_batch", Stats.median(nodes.values), "count")
    problems.result()
  }

  /** Timed-phase figures every workload has. */
  def phase(ctx: Ctx, ph: Phase): Unit = {
    ctx.put("trace.round_ms", Stats.median(ph.roundMs), "ms")
    ctx.put("cpu.busy_share", ph.cpuNs.toDouble / (ph.wallNs.toDouble * ctx.nproc), "share")
    ctx.put("cpu.steal_share", ph.stealS * 1e9 / (ph.wallNs.toDouble * ctx.nproc), "share")
    ctx.put("jvm.gc_ms", ph.gcMs.toDouble, "ms")
    ctx.put("jvm.gc_count", ph.gcCount.toDouble, "count")
  }
}
