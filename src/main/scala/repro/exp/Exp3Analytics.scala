package repro.exp

import org.apache.spark.sql.SparkSession
import repro.analytics.grape._
import repro.graph.LocalCsr

/** Exp-3 — graph analytics performance (paper Fig. 7h–k): PageRank and BFS
  * across four Graphalytics-analogue graphs, GRAPE vs PowerGraph-sim /
  * Gemini-sim (CPU) and Groute-sim / Gunrock-sim (GPU-scheduler analogues).
  * Paper: vs PowerGraph avg 25.1× (max 55.7×), vs Gemini avg 2.3× (3.4×),
  * vs Groute avg 3.3× (9.5×), vs Gunrock avg 3.3× (9.9×).
  */
object Exp3Analytics {

  final case class Row(algo: String, graph: String, engine: String, ms: Double)
  /** A GRAPE BFS's levels, and how many of them ran bottom-up. */
  final case class BfsLevels(graph: String, levels: Int, bottomUp: Int)
  final case class Result(rows: Seq[Row], varintRatio: Double, bfsLevels: Seq[BfsLevels])

  /** The engines compared, by name: each one's PageRank (by iterations) and
    * BFS (by source) over one graph, given as its CSR and GRAPE fragments.
    */
  private def engines(csr: LocalCsr, frags: Array[Fragment]): Seq[(String, Int => Any, Int => Any)] = {
    import Baselines._
    Seq(
      ("GRAPE", GrapeEngine.pageRank(frags, _), GrapeEngine.bfs(frags, _)),
      ("PowerGraph", PowerGraphSim.pageRank(csr, _), PowerGraphSim.bfs(csr, _)),
      ("Gemini", GeminiSim.pageRank(csr, _), GeminiSim.bfs(csr, _)),
      ("Groute", GrouteSim.pageRank(csr, _), GrouteSim.bfs(csr, _)),
      ("Gunrock", GunrockSim.pageRank(csr, _), GunrockSim.bfs(csr, _)),
    )
  }

  def run(spark: SparkSession, quick: Boolean = false): Result = {
    val graphAbbrs = if (quick) Seq("ZF-a") else Seq("FB-a", "G500-a", "TW-a", "UK-a")
    val nFrags = Runtime.getRuntime.availableProcessors()
    val prIters = 10
    val reps = if (quick) 1 else 3

    val bfsLevels = Seq.newBuilder[BfsLevels]
    val rows = graphAbbrs.flatMap { abbr =>
      val csr = Datasets.csr(spark, abbr)
      val frags = Fragment.partition(csr, nFrags)
      val src = (0 until csr.n).maxBy(csr.outDegree)
      val table = engines(csr, frags)
      val pr = table.map { case (e, pageRank, _) => Row("PageRank", abbr, e, Timing.bestOfMs(reps)(pageRank(prIters))) }
      val bfs = table.map { case (e, _, bfs) => Row("BFS", abbr, e, Timing.bestOfMs(reps)(bfs(src))) }
      val (dist, stats) = GrapeEngine.bfsWithStats(frags, src)
      bfsLevels += BfsLevels(abbr, dist.max + 1, stats.pullRounds)
      pr ++ bfs
    }

    // §6's varint message-size claim, measured on a realistic message batch
    val vids = Array.tabulate(100000)(i => i * 5)
    val (varint, raw) = GrapeEngine.messageBytesVarint(vids, Array.fill(100000)(3L))
    Result(rows, raw.toDouble / varint, bfsLevels.result())
  }

  /** GRAPE's speedup over engine `base` in each (algorithm, graph) case. */
  def speedups(r: Result, base: String): Seq[Double] =
    r.rows.filter(_.engine == "GRAPE").map { g =>
      r.rows.find(x => x.algo == g.algo && x.graph == g.graph && x.engine == base).get.ms / g.ms
    }

  def report(r: Result): String = {
    val sb = new StringBuilder
    val names = r.rows.map(_.engine).distinct
    val others = names.filterNot(_ == "GRAPE")
    Seq("PageRank", "BFS").foreach { algo =>
      sb.append(s"== Exp-3 (Fig 7h-k): $algo runtime ==\n")
      val graphs = r.rows.filter(_.algo == algo).map(_.graph).distinct
      sb.append(Timing.table(Seq("graph") ++ names ++ Seq("vs PG", "vs Gem", "vs Gro", "vs Gun"),
        graphs.map { g =>
          def of(e: String) = r.rows.find(x => x.algo == algo && x.graph == g && x.engine == e).get.ms
          Seq(g) ++ names.map(e => Timing.fmt(of(e))) ++ others.map(e => f"${of(e) / of("GRAPE")}%.1fx")
        }))
      sb.append("\n")
    }
    sb.append("GRAPE speedups (mean / max):\n")
    others.zip(Seq("25.1x / 55.7x", "2.3x / 3.4x", "3.3x / 9.5x", "3.3x / 9.9x")).foreach { case (e, paper) =>
      val sp = speedups(r, e)
      val m = math.exp(sp.map(math.log).sum / sp.size)
      sb.append(f"  vs $e%-11s ${m}%5.1fx / ${sp.max}%5.1fx   (paper: $paper)\n")
    }
    sb.append("\nGRAPE BFS levels run bottom-up (direction-optimizing): " +
      r.bfsLevels.map(b => s"${b.graph} ${b.bottomUp} of ${b.levels}").mkString(", ") + "\n")
    sb.append(f"\nGRAPE varint message encoding: ${r.varintRatio}%.1fx smaller than raw records\n")
    sb.toString
  }
}
