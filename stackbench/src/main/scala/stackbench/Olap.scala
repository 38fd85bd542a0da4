package stackbench

import repro.analytics.grape.{Fragment, GrapeEngine}
import repro.exp.GrinAlgos
import repro.graph.{GraphGen, LocalCsr}

/** `olap`: GRAPE PageRank and BFS on a power-law graph, GRAPE BFS on a
  * high-diameter graph, and GRIN PageRank over a GART snapshot that was
  * loaded as a stream. One round runs the four jobs once.
  */
object Olap {
  val Iters = 10
  val Sources = 8          // FB-a BFS sweep
  val CommitEvery = 1000   // GART stream: edges per commit
  val WarmupRounds = 2

  final class Graph(val name: String, val el: EdgeList, val csr: LocalCsr, val frags: Array[Fragment])

  def run(ctx: Ctx): Outcome = {
    val spark = ctx.spark
    val nFrags = ctx.threads

    def load(name: String, gen: => org.apache.spark.sql.DataFrame): Graph = {
      val (s, d) = ctx.setupStep("graph.gen_ms")(Load.collectEdges(gen))
      val el = EdgeList(s, d)
      val csr = ctx.setupStep("graph.csr_build_ms")(LocalCsr.build(s, d))
      val frags = ctx.setupStep("grape.partition_ms")(Fragment.partition(csr, nFrags))
      ctx.log(s"$name: ${csr.n} vertices, ${csr.m} edges")
      new Graph(name, el, csr, frags)
    }
    val fb = load("FB-a", GraphGen.simplify(GraphGen.rmat(spark, scale = 17, edges = 1050000,
      seed = ctx.seedOf("FB-a") & 0xffffffL)))
    val uk = load("UK-a", GraphGen.highDiameter(spark, side = 700, shortcutFrac = 0.002,
      seed = ctx.seedOf("UK-a") & 0xffffffL))
    ctx.stopSpark()

    // GART fed as a stream: FB-a's edges in a seeded order, a commit every
    // CommitEvery edges.
    val (gart, addNs, commitNs, commits) = ctx.setupStep("store.load_ms") {
      Load.streamIntoGart(fb.el, Load.shuffled(fb.el.m, ctx.seedOf("stream")), CommitEvery)
    }
    // GART's read speed follows where the collector last placed its block
    // chains; one full collection after the load makes it repeatable.
    System.gc()
    ctx.put("gart.add_edge_us", addNs / 1e3 / fb.el.m, "us")
    ctx.put("gart.commit_us", commitNs / 1e3 / commits, "us")
    val snap0 = System.nanoTime()
    val snap = gart.snapshot()
    ctx.put("gart.snapshot_us", (System.nanoTime() - snap0) / 1e3, "us")
    val grin = if (ctx.args.trace) new CountingGrin(snap) else snap

    // BFS sources: seeded, among vertices with out-degree >= 8 so each
    // search reaches the giant component.
    val rng = new java.util.Random(ctx.seedOf("sources"))
    val candidates = (0 until fb.csr.n).filter(v => fb.csr.outDegree(v) >= 8).toArray
    val sources = Array.fill(Sources)(candidates(rng.nextInt(candidates.length)))
    val ukSource = rng.nextInt(uk.csr.n)

    // One round; the first round's outputs are kept and checked against
    // the oracles, later rounds must reproduce them exactly.
    final class Out(val pr: Array[Double], val bfs: Array[Array[Int]], val deep: Array[Int],
                    val grinPr: Array[Double])
    val jobMs = Array.fill(4)(Vector.newBuilder[Double])
    def round(): (Out, Double) = {
      val t = new Array[Long](5)
      t(0) = System.nanoTime()
      val pr = ctx.tracer.span("grape.pagerank")(GrapeEngine.pageRank(fb.frags, Iters))
      t(1) = System.nanoTime()
      val bfs = sources.map(s => ctx.tracer.span("grape.bfs")(GrapeEngine.bfs(fb.frags, s)))
      t(2) = System.nanoTime()
      val deep = ctx.tracer.span("grape.bfs_deep")(GrapeEngine.bfs(uk.frags, ukSource))
      t(3) = System.nanoTime()
      val grinPr = ctx.tracer.span("grin.gart_pagerank")(GrinAlgos.pageRank(grin, Iters))
      t(4) = System.nanoTime()
      (0 until 4).foreach(i => jobMs(i) += (t(i + 1) - t(i)) / 1e6)
      (new Out(pr, bfs, deep, grinPr), (t(4) - t(0)) / 1e6)
    }

    val (first, _) = round()
    def same(o: Out): Boolean =
      java.util.Arrays.equals(o.pr, first.pr) && java.util.Arrays.equals(o.grinPr, first.grinPr) &&
        java.util.Arrays.equals(o.deep, first.deep) &&
        o.bfs.indices.forall(i => java.util.Arrays.equals(o.bfs(i), first.bfs(i)))
    var mismatches = 0
    (1 until WarmupRounds).foreach(_ => if (!same(round()._1)) mismatches += 1)
    jobMs.foreach(_.clear())

    val (seeks0, steps0) = CountingGrin.counts(grin)
    val ph = ctx.timed(1) { _ =>
      val (o, ms) = round()
      if (!same(o)) mismatches += 1
      ms
    }
    val rounds = ph.rounds
    ctx.log("median job times (ms), PageRank, BFS sweep, UK-a BFS, GRIN PageRank: " +
      jobMs.map(b => f"${Stats.median(b.result())}%.1f").mkString(" ") + s"; UK-a BFS levels ${first.deep.max + 1}")

    // Checks against the benchmark's own oracles.
    val problems = Seq.newBuilder[String]
    if (mismatches > 0) problems += s"$mismatches rounds differ from the first round's outputs"
    if (!java.util.Arrays.equals(fb.csr.extIds, fb.el.extIds)) problems += "FB-a: CSR ids differ from the edge list's"
    if (!fb.el.extIds.indices.forall(v => snap.externalId(v) == fb.el.extIds(v)))
      problems += "FB-a: GART ids differ from the edge list's"
    val prWant = Checks.pageRank(fb.el, Iters)
    problems ++= Checks.pageRankMatches("GRAPE PageRank", first.pr, prWant)
    problems ++= Checks.pageRankMatches("GRIN PageRank on GART", first.grinPr, prWant)
    sources.indices.foreach { i =>
      problems ++= Checks.bfsMatches(s"GRAPE BFS from ${sources(i)}", fb.el, sources(i), first.bfs(i),
        Checks.bfs(fb.el, sources(i)))
    }
    problems ++= Checks.bfsMatches("GRAPE BFS on UK-a", uk.el, ukSource, first.deep, Checks.bfs(uk.el, ukSource))
    problems ++= Checks.countMatches("GART edge scan", GrinAlgos.edgeScan(snap)._2, fb.el.distinctEdges)

    if (ctx.args.trace) {
      val levels = first.deep.max + 1
      val deepUs = Stats.median(jobMs(2).result()) * 1e3
      ctx.put("grape.pagerank_mteps", fb.csr.m.toDouble * Iters / (Stats.median(jobMs(0).result()) * 1e3), "Medges/s")
      ctx.put("grape.bfs_levels", levels, "count")
      ctx.put("grape.bfs_us_per_level", deepUs / levels, "us")
      val (seeks1, steps1) = CountingGrin.counts(grin)
      ctx.put("grin.cursor_steps_per_round", (steps1 - steps0).toDouble / rounds, "count")
      ctx.put("grin.cursor_seeks_per_round", (seeks1 - seeks0).toDouble / rounds, "count")
      Probe.storage(ctx, fb.el, fb.csr, Some(snap))
      val vineyard = Load.vineyardOf(fb.csr)
      problems ++= Probe.query(ctx, vineyard, fb.el)
      problems ++= Probe.learning(ctx, vineyard, fb.el)
      Probe.phase(ctx, ph)
    }

    Outcome(ph.endToEnd, ctx.layerMetrics, attempted = rounds * 4L, failed = 0L, problems.result())
  }
}
