package repro.exp

import org.apache.spark.sql.{SparkSession, functions => F}
import repro.graph.{LocalCsr, PropertyGraph, SnbData}
import repro.grin.GrinGraph
import repro.query._
import repro.storage._
import repro.storage.graphar.{GraphArGraph, GraphArWriter}

/** Exp-1 — storage layer (paper Fig. 7a–d).
  *
  *  (a) three applications × three GRIN backends, one implementation each;
  *  (b) GRIN overhead vs the tightly-coupled direct-array baseline (<8%);
  *  (c) GART edge-scan throughput vs LiveGraph-sim and static CSR
  *      (paper: 3.88× over LiveGraph, 73.5% of CSR);
  *  (d) graph loading from GraphAr vs CSV (paper: ~5×).
  */
object Exp1Storage {

  final case class MatrixRow(app: String, backend: String, ms: Double)
  final case class Result(matrix: Seq[MatrixRow], overheadPct: Map[String, Double],
                          scan: Seq[(String, String, Double)], // (graph, store, Medges/s)
                          load: Seq[(String, Double, Double)]) // (graph, graphArMs, csvMs)

  def run(spark: SparkSession, quick: Boolean = false): Result = {
    val nPersons = if (quick) 300 else 2000
    val pg = SnbData.generate(spark, nPersons = nPersons, seed = 55)
    val garDir = java.nio.file.Files.createTempDirectory("exp1-gar").toString
    GraphArWriter.exportGraph(pg, garDir, chunkSize = 16384)
    val vineyard = VineyardStore.fromPropertyGraph(pg)
    val gart = GartStore.fromPropertyGraph(pg).snapshot()
    val graphar = new GraphArGraph(garDir)
    val backends: Seq[(String, GrinGraph)] =
      Seq("vineyard" -> vineyard, "gart" -> gart, "graphar" -> graphar)

    // ---- (a) application × backend matrix -----------------------------------
    val catalog = Catalog.fromPropertyGraph(pg)
    val biPlan = Optimizer.optimize(CypherParser.parse(SnbWorkloads.complex
      .find(_._1 == "IC6").get._2), Some(catalog), Optimizer.All)
    val prIters = if (quick) 3 else 10
    val matrix = backends.flatMap { case (name, g) =>
      val pr = Timing.bestOfMs(2)(GrinAlgos.pageRank(g, prIters))
      val bi = Timing.meanOfMs(5)(
        HiActorExec.execute(biPlan, g, Map("id" -> (nPersons / 2).toLong)))
      val feats = new repro.learning.FeatureStore(g.vertexCount, 32, 4, 4, seed = 9)
      val sampler = new repro.learning.NeighborSampler(g, feats, Array(10, 5), seed = 9)
      val model = new repro.learning.Sage(32, 32, 2, 4, seed = 9)
      val seeds = Array.tabulate(256)(i => i % g.vertexCount)
      val gnn = Timing.meanOfMs(3) {
        val b = sampler.sample(seeds, 1)
        model.trainStep(b, 0.05f)
      }
      Seq(MatrixRow("PageRank", name, pr), MatrixRow("BI-Query", name, bi),
        MatrixRow("GNN-batch", name, gnn))
    }

    // ---- (b) GRIN overhead on Vineyard --------------------------------------
    val csr = vineyard.csr
    val overhead = Map(
      "edge-scan" -> {
        val direct = Timing.bestOfMs(5)(csr.scanSum())
        val grin = Timing.bestOfMs(5)(GrinAlgos.edgeScan(vineyard))
        (grin - direct) / direct * 100
      },
      "pagerank" -> {
        val direct = Timing.bestOfMs(3)(repro.analytics.Reference.pageRank(csr, prIters))
        val grin = Timing.bestOfMs(3)(GrinAlgos.pageRank(vineyard, prIters))
        (grin - direct) / direct * 100
      },
    )

    // ---- (c) GART scan throughput -------------------------------------------
    val scanGraphs = if (quick) Seq("ZF-a") else Seq("UK-a", "CF-a", "TW-a", "ZF-a")
    val scan = scanGraphs.flatMap { abbr =>
      val edges = Datasets.graph(spark, abbr)
      val pgE = PropertyGraph.fromEdges(spark, edges)
      val csrG = LocalCsr.fromDataFrame(edges)
      val gartG = GartStore.fromPropertyGraph(pgE).snapshot()
      val liveG = LiveGraphSim.fromPropertyGraph(pgE).snapshot()
      val m = csrG.m.toDouble
      def mps(ms: Double): Double = m / ms / 1000.0
      Seq(
        (abbr, "CSR", mps(Timing.bestOfMs(3)(csrG.scanSum()))),
        (abbr, "GART", mps(Timing.bestOfMs(3)(GrinAlgos.edgeScan(gartG)))),
        (abbr, "LiveGraph", mps(Timing.bestOfMs(3)(GrinAlgos.edgeScan(liveG)))),
      )
    }

    // ---- (d) loading: GraphAr vs CSV ----------------------------------------
    val loadGraphs = if (quick) Seq("ZF-a") else Seq("UK-a", "CF-a", "TW-a", "ZF-a")
    val load = loadGraphs.map { abbr =>
      val edges = Datasets.graph(spark, abbr)
      val pgE = PropertyGraph.fromEdges(spark, edges)
      val dir = java.nio.file.Files.createTempDirectory(s"exp1-load-$abbr").toString
      GraphArWriter.writeTable(pgE.edges, s"$dir/gar", "src", chunkSize = 131072)
      pgE.edges.write.option("header", "true").mode("overwrite").csv(s"$dir/csv")
      val schema = "src LONG, dst LONG, label STRING, ts LONG, weight DOUBLE"
      // graph construction: pull the topology and assemble the CSR
      def buildFrom(df: org.apache.spark.sql.DataFrame): Long = LocalCsr.fromDataFrame(df).m.toLong
      val garMs = Timing.bestOfMs(2)(
        buildFrom(spark.read.format("graphar").load(s"$dir/gar")))
      val csvMs = Timing.bestOfMs(2)(
        buildFrom(spark.read.schema(schema).option("header", "true").csv(s"$dir/csv")))
      (abbr, garMs, csvMs)
    }

    Result(matrix, overhead, scan, load)
  }

  def report(r: Result): String = {
    val sb = new StringBuilder
    sb.append("== Exp-1a (Fig 7a): application x GRIN backend matrix ==\n")
    sb.append(Timing.table(Seq("app", "vineyard", "gart", "graphar"),
      r.matrix.groupBy(_.app).toSeq.sortBy(_._1).map { case (app, rows) =>
        def of(b: String) = rows.find(_.backend == b).map(x => Timing.fmt(x.ms)).getOrElse("-")
        Seq(app, of("vineyard"), of("gart"), of("graphar"))
      }))
    sb.append("\n   paper: all combinations correct; vineyard < gart < graphar in time\n\n")
    sb.append("== Exp-1b (Fig 7b): GRIN overhead vs tightly-coupled (paper: <8%) ==\n")
    r.overheadPct.foreach { case (k, v) => sb.append(f"  $k%-10s ${v}%+.1f%%\n") }
    sb.append("\n== Exp-1c (Fig 7c): edge-scan throughput, M edges/s ==\n")
    sb.append(Timing.table(Seq("graph", "CSR", "GART", "LiveGraph", "GART/Live", "GART/CSR"),
      r.scan.groupBy(_._1).toSeq.sortBy(_._1).map { case (g, rows) =>
        def of(s: String) = rows.find(_._2 == s).get._3
        Seq(g, f"${of("CSR")}%.1f", f"${of("GART")}%.1f", f"${of("LiveGraph")}%.1f",
          f"${of("GART") / of("LiveGraph")}%.2fx", f"${of("GART") / of("CSR") * 100}%.1f%%")
      }))
    sb.append("\n   paper: GART 3.88x over LiveGraph, 73.5% of CSR\n\n")
    sb.append("== Exp-1d (Fig 7d): graph construction from GraphAr vs CSV (paper ~5x) ==\n")
    sb.append(Timing.table(Seq("graph", "GraphAr", "CSV", "speedup"),
      r.load.map { case (g, gar, csv) =>
        Seq(g, Timing.fmt(gar), Timing.fmt(csv), f"${csv / gar}%.2fx")
      }))
    sb.toString
  }
}
