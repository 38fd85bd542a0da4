package repro.flexbuild

import org.apache.spark.sql.SparkSession
import repro.analytics.grape
import repro.graph.PropertyGraph
import repro.grin.GrinGraph
import repro.query._
import repro.storage.{GartStore, VineyardStore}
import repro.storage.graphar.{GraphArGraph, GraphArWriter}

/** flexbuild — the customized-deployment composer (paper §3).
  *
  * The paper's `flexbuild` lets users pick components (numbered ①–㉔ in
  * Fig. 3), validates the combination and builds a tailored stack. This is
  * the same idea as a typed component registry: [[FlexBuild.assemble]]
  * validates a selection against the compatibility rules (an engine needs a
  * storage backend; Cypher/Gremlin need a query engine; GNN models need the
  * learning engine), then instantiates *only* the selected bricks into a
  * runnable [[FlexStack]].
  */
object FlexBuild {

  sealed abstract class Component(val id: Int, val layer: String)
  // application layer
  case object Sdk extends Component(1, "app")
  case object RestApi extends Component(2, "app")
  case object GremlinFrontend extends Component(3, "app")
  case object CypherFrontend extends Component(4, "app")
  case object BuiltinAlgos extends Component(5, "app")
  case object AlgoSdk extends Component(6, "app")
  case object GnnModels extends Component(7, "app")
  // engine layer
  case object GraphIr extends Component(8, "engine")
  case object QueryOptimizer extends Component(9, "engine")
  case object HiActorEngine extends Component(12, "engine")
  case object GaiaEngine extends Component(13, "engine")
  case object PieModel extends Component(14, "engine")
  case object FlashModel extends Component(15, "engine")
  case object GrapeEngine extends Component(16, "engine")
  case object GraphLearnEngine extends Component(17, "engine")
  // storage layer
  case object GrinInterface extends Component(20, "storage")
  case object VineyardBackend extends Component(21, "storage")
  case object GartBackend extends Component(22, "storage")
  case object GraphArBackend extends Component(23, "storage")

  val All: Set[Component] = Set(Sdk, RestApi, GremlinFrontend, CypherFrontend,
    BuiltinAlgos, AlgoSdk, GnnModels, GraphIr, QueryOptimizer, HiActorEngine,
    GaiaEngine, PieModel, FlashModel, GrapeEngine, GraphLearnEngine,
    GrinInterface, VineyardBackend, GartBackend, GraphArBackend)

  /** A running, composed deployment: only selected bricks are present. */
  final class FlexStack(
      val components: Set[Component],
      val grin: Option[GrinGraph],
      val oltp: Option[HiActorRuntime],
      val catalog: Option[Catalog],
      val graph: PropertyGraph) {

    def parse(query: String): repro.query.ir.IrPlan = {
      val isGremlin = query.trim.startsWith("g.")
      if (isGremlin) {
        require(components(GremlinFrontend), "Gremlin front-end ③ not deployed")
        GremlinParser.parse(query)
      } else {
        require(components(CypherFrontend), "Cypher front-end ④ not deployed")
        CypherParser.parse(query)
      }
    }

    /** OLTP path: optimize + interpret on HiActor over the GRIN store. */
    def queryOltp(query: String, params: Map[String, Any] = Map.empty): QueryResult = {
      require(components(HiActorEngine), "HiActor engine ⑫ not deployed")
      val plan = Optimizer.optimize(parse(query), catalog, Optimizer.All)
      HiActorExec.execute(plan, grin.get, params)
    }

    /** OLAP path: optimize + compile onto Spark DataFrames (Gaia). */
    def queryOlap(query: String, params: Map[String, Any] = Map.empty): org.apache.spark.sql.DataFrame = {
      require(components(GaiaEngine), "Gaia engine ⑬ not deployed")
      val plan = Optimizer.optimize(parse(query), catalog, Optimizer.All)
      GaiaExec.execute(plan, graph, params)
    }

    /** Analytics path: built-in PageRank on the GRAPE engine, one fragment
      * per core, with the fragments read through GRIN.
      */
    def pageRank(iters: Int): Array[Double] = {
      require(components(GrapeEngine), "GRAPE engine ⑯ not deployed")
      require(components(BuiltinAlgos), "built-in algorithm package ⑤ not deployed")
      val frags = grape.Fragment.fromGrin(grin.get, Runtime.getRuntime.availableProcessors())
      grape.GrapeEngine.pageRank(frags, iters)
    }

    def shutdown(): Unit = oltp.foreach(_.shutdown())
  }

  /** Validates a component selection (the flexbuild manifest check). */
  def validate(sel: Set[Component]): Either[String, Unit] = {
    def need(cond: Boolean, msg: String): Either[String, Unit] =
      if (cond) Right(()) else Left(msg)
    for {
      _ <- need(!(sel(GremlinFrontend) || sel(CypherFrontend)) ||
        (sel(GraphIr) && (sel(HiActorEngine) || sel(GaiaEngine))),
        "query front-ends require GraphIR ⑧ and a query engine (⑫ or ⑬)")
      _ <- need(!(sel(HiActorEngine) || sel(GrapeEngine) || sel(GraphLearnEngine)) ||
        sel(GrinInterface),
        "engines access storage through GRIN ⑳ — select it")
      _ <- need(!sel(GrinInterface) ||
        sel.exists(c => c == VineyardBackend || c == GartBackend || c == GraphArBackend),
        "GRIN needs at least one storage backend (㉑–㉓)")
      _ <- need(!sel(QueryOptimizer) || sel(GraphIr), "the optimizer ⑨ plans GraphIR ⑧")
      _ <- need(!sel(GnnModels) || sel(GraphLearnEngine),
        "GNN models ⑦ run on the learning engine ⑰")
      _ <- need(sel.nonEmpty, "empty selection")
    } yield ()
  }

  /** Builds the selected stack over a property graph (deploys only the
    * selected storage backend; fails on invalid manifests like the paper's
    * flexbuild would).
    */
  def assemble(spark: SparkSession, sel: Set[Component], graph: PropertyGraph,
               oltpWorkers: Int = 4): Either[String, FlexStack] =
    validate(sel).map { _ =>
      val grin: Option[GrinGraph] =
        if (!sel(GrinInterface)) None
        else if (sel(VineyardBackend)) Some(VineyardStore.fromPropertyGraph(graph))
        else if (sel(GartBackend)) Some(GartStore.fromPropertyGraph(graph).snapshot())
        else {
          val dir = java.nio.file.Files.createTempDirectory("flexbuild-gar").toString
          GraphArWriter.exportGraph(graph, dir)
          Some(new GraphArGraph(dir))
        }
      val catalog = if (sel(QueryOptimizer)) Some(Catalog.fromPropertyGraph(graph)) else None
      val oltp = if (sel(HiActorEngine)) Some(new HiActorRuntime(oltpWorkers)) else None
      new FlexStack(sel, grin, oltp, catalog, graph)
    }

  /** The paper's §3 example manifests. */
  val Workload2AntiFraud: Set[Component] =
    Set(Sdk, BuiltinAlgos, PieModel, GrapeEngine, GrinInterface, VineyardBackend)
  val Workload5BiAnalysis: Set[Component] =
    Set(RestApi, CypherFrontend, GraphIr, QueryOptimizer, GaiaEngine,
      GrinInterface, GraphArBackend)
}
