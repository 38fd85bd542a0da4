package stackbench

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.graph.{LocalCsr, PropertyGraph, SnbData}
import repro.query._
import repro.storage.GartStore

/** `oltp-live`: SNB-lite short and complex reads as stored procedures on
  * HiActor over fresh GART snapshots, from a closed loop of clients, while
  * one writer inserts edges at a fixed ratio to completed reads.
  *
  * A round runs a fixed multiset of reads (the mix below, in a seeded
  * order) and the writes issued for them; it ends when every read has
  * returned and every write has committed.
  */
object OltpLive {
  val Persons = 2000
  /** Reads of each query per round, set so no query type takes more than
    * about half of the read time (see the README).
    */
  val Mix: Seq[(String, Int)] = Seq(
    "IS1" -> 48, "IS2" -> 48, "IS3" -> 48, "IS4" -> 48,
    "IC1" -> 24, "IC2" -> 16, "IC3" -> 24, "IC5" -> 16, "IC6" -> 24, "IC9" -> 2)
  val ReadsPerWrite = 4
  val WarmupRounds = 50
  val CheckParamSets = 1

  final case class Write(src: Long, dst: Long, label: String, ts: Long)

  def run(ctx: Ctx): Outcome = {
    val spark = ctx.spark
    val queries = (SnbWorkloads.short ++ SnbWorkloads.complex).toMap

    val pg = ctx.setupStep("graph.gen_ms") {
      val g = SnbData.generate(spark, Persons, seed = ctx.seedOf("snb") & 0xffffffL)
      val v = g.vertices.cache(); val e = g.edges.cache()
      v.count(); e.count()
      PropertyGraph(v, e)
    }
    val edgeRows = pg.edges.select("src", "dst", "label").collect()
    val vertexIds = pg.vertices.select("id").collect().map(_.getLong(0))
    val srcExt = edgeRows.map(_.getLong(0)); val dstExt = edgeRows.map(_.getLong(1))
    val csr = ctx.setupStep("graph.csr_build_ms")(LocalCsr.build(srcExt, dstExt, vertexIds))
    val el = EdgeList(srcExt, dstExt, vertexIds)
    val gart = ctx.setupStep("store.load_ms")(GartStore.fromPropertyGraph(pg))
    val initialEdges = edgeRows.length.toLong
    val nMsgs = vertexIds.count(_ >= SnbData.MsgBase)
    ctx.log(s"SNB-lite: ${vertexIds.length} vertices, $initialEdges edges, $nMsgs messages")

    // Stored procedures: parsed and optimised once.
    val catalog = ctx.tracer.span("query.catalog")(Catalog.fromPropertyGraph(pg))
    val procs = Mix.map { case (q, _) =>
      q -> new StoredProcedure(q, Optimizer.optimize(CypherParser.parse(queries(q)), Some(catalog)))
    }.toMap
    val limits = Mix.map { case (q, _) =>
      q -> "LIMIT\\s+(\\d+)".r.findFirstMatchIn(queries(q)).map(_.group(1).toInt).getOrElse(Int.MaxValue)
    }.toMap

    def params(q: String, rng: java.util.Random): Map[String, Any] = {
      val id = (rng.nextInt(Persons) + 1).toLong
      q match {
        case "IS4" => Map("mid" -> (SnbData.MsgBase + rng.nextInt(nMsgs)))
        case "IC1" => Map("id" -> id, "name" -> SnbData.FirstNames(rng.nextInt(SnbData.FirstNames.length)))
        case "IC2" | "IC9" => Map("id" -> id, "maxDate" -> (14710L + rng.nextInt(1400)))
        case "IC3" => Map("id" -> id, "country" -> SnbData.Countries(rng.nextInt(SnbData.Countries.length)))
        case _ => Map("id" -> id)
      }
    }

    // Writes: IU2-style likes and IU8-style friendships, never duplicating
    // an existing edge (a friendship in either direction).
    val existing = new java.util.HashSet[(Long, Long, String)]()
    edgeRows.foreach(r => existing.add((r.getLong(0), r.getLong(1), r.getString(2))))
    val writeLog = scala.collection.mutable.ArrayBuffer.empty[Write]
    def taken(w: Write): Boolean =
      existing.contains((w.src, w.dst, w.label)) || (w.label == "KNOWS" && existing.contains((w.dst, w.src, w.label)))
    def nextWrite(k: Int, rng: java.util.Random): Write = {
      var w: Write = null
      while (w == null || taken(w)) {
        val p = (rng.nextInt(Persons) + 1).toLong
        w = if (k % 2 == 0) Write(p, SnbData.MsgBase + rng.nextInt(nMsgs), "LIKES", 16200L + k)
        else {
          var q = (rng.nextInt(Persons) + 1).toLong
          if (q == p) q = p % Persons + 1
          Write(p, q, "KNOWS", 16200L + k)
        }
      }
      existing.add((w.src, w.dst, w.label))
      w
    }

    val schedule: Array[String] = Mix.flatMap { case (q, n) => Seq.fill(n)(q) }.toArray
    val readsPerRound = schedule.length
    val writesPerRound = readsPerRound / ReadsPerWrite
    // Clients mostly wait on their reads; one more client than workers
    // keeps every worker's mailbox fed.
    val nClients = ctx.threads + 1
    val rt = new HiActorRuntime(ctx.threads)
    // Cursor counts, summed over the many short-lived snapshot views.
    val seeks = new java.util.concurrent.atomic.LongAdder
    val steps = new java.util.concurrent.atomic.LongAdder

    val execUs = Mix.map { case (q, _) => q -> new Samples }.toMap
    val waitUs = new Samples; val snapUs = new Samples
    val addUs = new Samples; val commitUs = new Samples
    val problems = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val rowsReturned = new java.util.concurrent.atomic.AtomicLong(0)
    var columns = Map.empty[String, Vector[String]]

    // One round: clients drain the shuffled schedule, the writer follows.
    def round(r: Long, record: Boolean): Unit = {
      val rng = new java.util.Random(ctx.seedOf("round") ^ r)
      val order = Load.shuffled(readsPerRound, rng.nextLong()).map(schedule)
      val next = new AtomicInteger(0)
      val done = new java.util.concurrent.Semaphore(0) // one permit per completed read
      val writer = new Thread(() => {
        val wr = new java.util.Random(ctx.seedOf("writes") ^ r)
        var k = 0
        while (k < writesPerRound) {
          done.acquire(ReadsPerWrite)
          val w = nextWrite(writeLog.length, wr)
          val t0 = System.nanoTime()
          ctx.tracer.span("gart.write", r) {
            gart.addEdge(w.src, w.dst, w.label, w.ts, 1.0)
            val t1 = System.nanoTime()
            gart.commit()
            if (record) { addUs.add((t1 - t0) / 1e3); commitUs.add((System.nanoTime() - t1) / 1e3) }
          }
          writeLog += w
          k += 1
        }
      }, "writer")
      writer.start()
      val clients = (0 until nClients).map { c =>
        val t = new Thread(() => {
          var i = next.getAndIncrement()
          while (i < readsPerRound) {
            val q = order(i)
            val ps = params(q, new java.util.Random(ctx.seedOf("params") ^ (r * 1000003L + i)))
            val submitted = System.nanoTime()
            val res = rt.submit {
              val started = System.nanoTime()
              val snap = gart.snapshot()
              val got = System.nanoTime()
              val g = if (ctx.args.trace) new CountingGrin(snap, seeks, steps) else snap
              val out = ctx.tracer.span("hiactor." + q, r)(procs(q).run(g, ps))
              (started, got, System.nanoTime(), out)
            }.get()
            val (started, got, ended, out) = res
            if (record) {
              execUs(q).add((ended - got) / 1e3); waitUs.add((started - submitted) / 1e3)
              snapUs.add((got - started) / 1e3)
            }
            rowsReturned.addAndGet(out.rows.length)
            if (out.rows.length > limits(q)) problems.add(s"$q returned ${out.rows.length} rows, limit ${limits(q)}")
            columns.get(q).foreach(cs => if (cs != out.columns) problems.add(s"$q returned columns ${out.columns}"))
            done.release()
            i = next.getAndIncrement()
          }
        }, s"client-$c")
        t.start(); t
      }
      clients.foreach(_.join())
      writer.join()
    }

    // Expected column lists come from one execution per query.
    columns = Mix.map { case (q, _) => q -> procs(q).run(gart.snapshot(), params(q, new java.util.Random(1))).columns }.toMap
    (0 until WarmupRounds).foreach(w => round(-1L - w, record = false))

    val steps0 = steps.sum(); val seeks0 = seeks.sum(); val rows0 = rowsReturned.get()
    val ph = ctx.timed(1) { r =>
      val r0 = System.nanoTime()
      round(r, record = true)
      (System.nanoTime() - r0) / 1e6
    }
    rt.shutdown()
    val rounds = ph.rounds
    val readMs = Mix.map { case (q, n) => q -> Stats.median(execUs(q).values) * n / 1e3 }
    val readTotal = readMs.map(_._2).sum
    ctx.log(s"rounds of $readsPerRound reads and $writesPerRound writes")
    ctx.log("share of read time per query: " + readMs.map { case (q, ms) => f"$q ${ms / readTotal * 100}%.0f%%" }.mkString(" "))
    ctx.log("exec p50 (us): " + Mix.map { case (q, _) => f"$q ${Stats.median(execUs(q).values)}%.0f" }.mkString(" "))

    ctx.log("timed phase done")
    // Checks: final snapshot against Gaia over the generated tables plus
    // the log of committed writes.
    val allProblems = Seq.newBuilder[String]
    problems.forEach(p => allProblems += p)
    val finalSnap = gart.snapshot()
    allProblems ++= Checks.countMatches("GART edge total", finalSnap.edgeCount, initialEdges + writeLog.length)
    val logged = spark.createDataFrame(
      java.util.Arrays.asList(writeLog.map(w => Row(w.src, w.dst, w.label, w.ts, 1.0)).toSeq: _*),
      StructType(Seq(StructField("src", LongType), StructField("dst", LongType),
        StructField("label", StringType), StructField("ts", LongType), StructField("weight", DoubleType))))
    val finalPg = PropertyGraph(pg.vertices, pg.edges.select("src", "dst", "label", "ts", "weight").union(logged))
    // The Gaia side plans and runs on Spark; the queries go in on as many
    // threads as the workload may keep busy.
    val checkRng = new java.util.Random(ctx.seedOf("check"))
    val cases = for ((q, _) <- Mix; _ <- 0 until CheckParamSets) yield (q, params(q, checkRng))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(ctx.threads)
    try {
      val futures = cases.map { case (q, ps) =>
        pool.submit[Seq[String]] { () =>
          val hi = procs(q).run(finalSnap, ps)
          val order = hi.columns.sorted.map(hi.columns.indexOf)
          val hiRows = hi.rows.map(r => order.map(i => Checks.canon(r(i))).mkString("|"))
          val df = GaiaExec.execute(procs(q).plan, finalPg, ps)
          val cols = df.columns.sorted
          val gaiaRows = df.collect().toSeq.map(r => cols.map(c => Checks.canon(r.get(r.fieldIndex(c)))).mkString("|"))
          Checks.rowsMatch(s"$q $ps: HiActor vs Gaia", hiRows, gaiaRows)
        }
      }
      futures.foreach(f => allProblems ++= f.get())
    } finally pool.shutdown()

    if (ctx.args.trace) {
      val allExec = execUs.values.flatMap(_.values).toSeq
      ctx.put("hiactor.exec_p50_us", Stats.median(allExec), "us")
      ctx.put("hiactor.queue_wait_p50_us", Stats.median(waitUs.values), "us")
      ctx.put("grin.cursor_steps_per_row",
        (steps.sum() - steps0).toDouble / math.max(1L, rowsReturned.get() - rows0), "count")
      ctx.put("grin.cursor_steps_per_round", (steps.sum() - steps0).toDouble / rounds, "count")
      ctx.put("grin.cursor_seeks_per_round", (seeks.sum() - seeks0).toDouble / rounds, "count")
      ctx.put("gart.add_edge_us", Stats.median(addUs.values), "us")
      ctx.put("gart.commit_us", Stats.median(commitUs.values), "us")
      ctx.put("gart.snapshot_us", Stats.median(snapUs.values), "us")
      Probe.storage(ctx, el, csr, Some(finalSnap))
      allProblems ++= Probe.query(ctx, Load.vineyardOf(csr), el, Some(catalog))
      allProblems ++= Probe.learning(ctx, Load.vineyardOf(csr), el)
      Probe.phase(ctx, ph)
    }

    Outcome(ph.endToEnd, ctx.layerMetrics, attempted = rounds.toLong * (readsPerRound + writesPerRound), failed = 0L,
      allProblems.result())
  }
}
