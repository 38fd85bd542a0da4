package repro.storage

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.graph.{PropertyGraph, SnbData}
import repro.grin._
import repro.query.{CypherParser, HiActorExec, Optimizer}
import repro.storage.graphar.{GraphArGraph, GraphArWriter}

/** GRIN conformance across the three backends — the "implement once, deploy
  * on any storage" property behind Exp-1a. Every check runs identically on
  * Vineyard (immutable in-memory), GART (dynamic MVCC) and GraphAr
  * (external archive).
  */
class GrinBackendsSpec extends SparkSpec {

  private lazy val pg = SnbData.generate(spark, nPersons = 120, seed = 9)
  private lazy val garDir = {
    val dir = java.nio.file.Files.createTempDirectory("grin-gar").toString
    GraphArWriter.exportGraph(pg, dir, chunkSize = 512)
    dir
  }
  private lazy val backends: Seq[(String, GrinGraph)] = Seq(
    "vineyard" -> VineyardStore.fromPropertyGraph(pg),
    "gart" -> GartStore.fromPropertyGraph(pg).snapshot(),
    "graphar" -> new GraphArGraph(garDir),
  )

  private lazy val vRows = pg.vertices.collect()
  private lazy val eRows = pg.edges.select("src", "dst", "label", "ts", "weight").collect()
  private lazy val outModel: Map[Long, Seq[Long]] =
    eRows.groupBy(_.getLong(0)).map { case (s, rs) => s -> rs.map(_.getLong(1)).toSeq.sorted }
  private lazy val inModel: Map[Long, Seq[Long]] =
    eRows.groupBy(_.getLong(1)).map { case (d, rs) => d -> rs.map(_.getLong(0)).toSeq.sorted }

  private def adjacency(g: GrinGraph, v: Int, dir: Direction.Value): Seq[Long] = {
    val c = g.newCursor(dir).seek(v)
    val out = Seq.newBuilder[Long]
    while (c.moveNext()) out += g.externalId(c.neighbor)
    out.result().sorted
  }

  for (name <- Seq("vineyard", "gart", "graphar")) {
    // deferred lookup so backend construction happens inside the test
    def g: GrinGraph = backends.find(_._1 == name).get._2

    test(s"[$name] vertex and edge counts") {
      assert(g.vertexCount == vRows.length)
      assert(g.edgeCount == eRows.length)
    }

    test(s"[$name] external-id index is a bijection") {
      vRows.foreach { r =>
        val v = g.internalId(r.getLong(0))
        assert(v >= 0)
        assert(g.externalId(v) == r.getLong(0))
      }
      assert(g.internalId(-12345L) == -1)
    }

    test(s"[$name] out-adjacency matches the edge list") {
      vRows.take(200).foreach { r =>
        val ext = r.getLong(0)
        val got = adjacency(g, g.internalId(ext), Direction.Out)
        assert(got == outModel.getOrElse(ext, Seq.empty), s"vertex $ext")
      }
    }

    test(s"[$name] in-adjacency matches the edge list") {
      vRows.take(200).foreach { r =>
        val ext = r.getLong(0)
        val got = adjacency(g, g.internalId(ext), Direction.In)
        assert(got == inModel.getOrElse(ext, Seq.empty), s"vertex $ext")
      }
    }

    test(s"[$name] degree agrees with cursor count") {
      vRows.take(100).foreach { r =>
        val v = g.internalId(r.getLong(0))
        assert(g.degree(v, Direction.Out) == adjacency(g, v, Direction.Out).size)
        assert(g.degree(v, Direction.In) == adjacency(g, v, Direction.In).size)
      }
    }

    test(s"[$name] vertex labels round-trip") {
      vRows.take(200).foreach { r =>
        val v = g.internalId(r.getLong(0))
        assert(g.vertexLabelName(g.vertexLabelId(v)) == r.getString(1))
      }
    }

    test(s"[$name] label index returns exactly the labeled vertices") {
      val personId = g.vertexLabelIdOf("PERSON")
      assert(personId >= 0)
      val got = g.verticesByLabel(personId).map(g.externalId).toSet
      val want = vRows.filter(_.getString(1) == "PERSON").map(_.getLong(0)).toSet
      assert(got == want)
    }

    test(s"[$name] edge labels and fast-path props visible on the cursor") {
      val knowsRows = eRows.filter(_.getString(2) == "KNOWS")
      val someSrc = knowsRows.head.getLong(0)
      val v = g.internalId(someSrc)
      val knowsId = g.edgeLabelIdOf("KNOWS")
      val c = g.newCursor(Direction.Out).seek(v)
      var seen = 0
      while (c.moveNext()) {
        if (c.edgeLabelId == knowsId) {
          assert(c.weight == 1.0)
          assert(c.ts > 0)
          seen += 1
        }
      }
      assert(seen == knowsRows.count(_.getLong(0) == someSrc))
    }

    test(s"[$name] declares iterator adjacency capability") {
      assert(g.capabilities(Capability.IteratorAdjacency))
    }
  }

  test("capability negotiation differs by backend (GRIN's trait feasibility)") {
    val caps = backends.toMap
    assert(caps("vineyard").capabilities(Capability.ArrayLikeAdjacency))
    assert(!caps("gart").capabilities(Capability.ArrayLikeAdjacency))
    assert(caps("gart").capabilities(Capability.VersionedSnapshot))
    assert(!caps("vineyard").capabilities(Capability.VersionedSnapshot))
  }

  test("vertex properties readable through GRIN (vineyard + gart + graphar)") {
    val persons = vRows.filter(_.getString(1) == "PERSON").take(20)
    backends.foreach { case (name, g) =>
      persons.foreach { r =>
        val v = g.internalId(r.getLong(0))
        val fn = g.vertexProp(v, "firstName")
        assert(fn == r.getString(2), s"[$name] firstName of ${r.getLong(0)}: got $fn")
        assert(g.vertexProp(v, "id") == r.getLong(0), s"[$name]")
      }
    }
  }

  test("predicate pushdown default scan agrees with manual filter (vineyard)") {
    val g = backends.head._2
    val personId = g.vertexLabelIdOf("PERSON")
    val got = g.scanVerticesWhere(personId, "firstName", "=", "Jan").map(g.externalId).toSet
    val want = vRows.filter(r => r.getString(1) == "PERSON" && r.getString(2) == "Jan")
      .map(_.getLong(0)).toSet
    assert(got == want)
  }

  test("array-like adjacency (vineyard) agrees with the cursor") {
    val g = backends.head._2
    vRows.take(50).foreach { r =>
      val v = g.internalId(r.getLong(0))
      val viaIdx = (0 until g.degree(v, Direction.Out))
        .map(i => g.externalId(g.neighborAt(v, Direction.Out, i))).sorted
      assert(viaIdx == adjacency(g, v, Direction.Out))
    }
  }

  // One property of each stored kind's source types, each null on one vertex:
  // prop k is null on vertex k + 3; vertex 2 has i = 7.
  private val typedProps = Seq(
    "i" -> IntegerType, "h" -> ShortType, "b" -> BooleanType, "f" -> FloatType,
    "x" -> DoubleType, "d" -> DateType, "l" -> LongType, "s" -> StringType)
  private lazy val typed: PropertyGraph = {
    val schema = StructType(Seq(StructField("id", LongType), StructField("label", StringType)) ++
      typedProps.map { case (n, t) => StructField(n, t) })
    val vs = (1L to 10L).map { id =>
      val vals = Seq[Any]((id + 5).toInt, (id * 3).toShort, id % 2 == 0, id * 0.5f, id * 1.25,
        java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(17990 + 5 * id)), id << 40, s"s$id")
      Row.fromSeq(Seq(id, "P") ++ vals.zipWithIndex.map { case (x, k) => if (id == k + 3) null else x })
    }
    val es = (1L to 9L).map(id => Row(id, id + 1, "E", id, 1.0))
    val eSchema = StructType(Seq(StructField("src", LongType), StructField("dst", LongType),
      StructField("label", StringType), StructField("ts", LongType), StructField("weight", DoubleType)))
    PropertyGraph(spark.createDataFrame(spark.sparkContext.parallelize(vs), schema),
      spark.createDataFrame(spark.sparkContext.parallelize(es), eSchema))
  }
  private lazy val typedBackends: Seq[(String, GrinGraph)] = {
    val dir = java.nio.file.Files.createTempDirectory("grin-typed").toString
    GraphArWriter.exportGraph(typed, dir, chunkSize = 4)
    val live = new GartStore(16)
    typed.vertices.collect().foreach { r =>
      val props = typedProps.map { case (n, _) => n -> r.getAs[Any](n) }.toMap
      live.addVertex(r.getLong(0), r.getString(1), props)
    }
    live.commit()
    Seq("vineyard" -> VineyardStore.fromPropertyGraph(typed),
      "gart" -> GartStore.fromPropertyGraph(typed).snapshot(),
      "gart-addVertex" -> live.snapshot(),
      "graphar" -> new GraphArGraph(dir))
  }

  test("one PropertyGraph reads back the same values, of one class, from every store") {
    val stored = Map[DataType, Class[_]](IntegerType -> classOf[java.lang.Long],
      ShortType -> classOf[java.lang.Long], BooleanType -> classOf[java.lang.Long],
      DateType -> classOf[java.lang.Long], LongType -> classOf[java.lang.Long],
      FloatType -> classOf[java.lang.Double], DoubleType -> classOf[java.lang.Double],
      StringType -> classOf[String])
    for (id <- 1L to 10L; ((name, t), k) <- typedProps.zipWithIndex) {
      val got = typedBackends.map { case (b, g) => b -> g.vertexProp(g.internalId(id), name) }
      if (id == k + 3) got.foreach { case (b, x) => assert(x == null, s"[$b] $name of $id") }
      else got.foreach { case (b, x) =>
        assert(x != null && x.getClass == stored(t), s"[$b] $name of $id: $x")
        assert(x == got.head._2, s"[$b] $name of $id: $x vs vineyard ${got.head._2}")
      }
    }
    typedBackends.foreach { case (b, g) =>
      val v2 = g.internalId(2L)
      assert(g.vertexProp(v2, "i") == 7L && g.vertexProp(v2, "d") == 18000L, s"[$b]") // epoch day
    }
  }

  test("HiActor answers do not depend on the store") {
    // (query, rows): d > 18000 on vertices 3..10 but 8 (null d); i = 7 on vertex 2
    val queries = Seq(
      "MATCH (p:P) WHERE p.d > 18000 RETURN p.id AS id, p.b AS b, p.s AS s" -> 7,
      "MATCH (p:P) WHERE p.i = '07' RETURN p.id" -> 1)
    queries.foreach { case (q, n) =>
      val plan = Optimizer.optimize(CypherParser.parse(q))
      val rows = typedBackends.map { case (b, g) =>
        b -> HiActorExec.execute(plan, g).rows.sortBy(_.head.toString)
      }
      assert(rows.head._2.length == n, q)
      rows.foreach { case (b, r) => assert(r == rows.head._2, s"[$b] $q") }
    }
  }
}
