package repro.apps

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.analytics.grape.Fragment
import repro.graph.SnbData
import repro.query._
import repro.storage.{GartStore, VineyardStore}

class AppsSpec extends SparkSpec {

  // ------------------------------------------------------------- fraud (§8a)

  private lazy val fraudPg = SnbData.fraudGraph(spark, nAccounts = 120, nItems = 60,
    nOrders = 1500, avgKnows = 3, seed = 31)
  private lazy val fraudGart = GartStore.fromPropertyGraph(fraudPg)

  test("fraud: stored procedure matches the Cypher query on Gaia (direct count)") {
    val snap = fraudGart.snapshot()
    val seedsExt = Seq(3L, 7L, 11L, 19L)
    val seeds = FraudDetection.seedBitSet(snap, seedsExt)
    // direct co-purchase count via Gaia for several accounts
    val q =
      """MATCH (v:ACCOUNT {id: $id})-[b1:BUY]->(i:ITEM)<-[b2:BUY]-(s:ACCOUNT)
         WHERE s.id IN [3, 7, 11, 19] AND b1.ts - b2.ts < 5 AND b1.ts - b2.ts > -5
         RETURN count(*) AS cnt"""
    (1 to 15).foreach { acc =>
      val plan = Optimizer.optimize(CypherParser.parse(q), None, Optimizer.All)
      val gaia = GaiaExec.execute(plan, fraudPg, Map("id" -> acc.toLong)).collect()(0).getLong(0)
      // the Cypher allows s = v when v is a seed; the procedure excludes v —
      // align by excluding on the Gaia side too via s <> v accounts
      val verdict = FraudDetection.check(snap, snap.internalId(acc.toLong), seeds)
      val selfRows =
        if (seedsExt.contains(acc.toLong)) {
          // count v's own co-purchase rows (i bought twice within window)
          val plan2 = Optimizer.optimize(CypherParser.parse(
            """MATCH (v:ACCOUNT {id: $id})-[b1:BUY]->(i:ITEM)<-[b2:BUY]-(s:ACCOUNT {id: $id})
               WHERE b1.ts - b2.ts < 5 AND b1.ts - b2.ts > -5
               RETURN count(*) AS cnt"""), None, Optimizer.All)
          GaiaExec.execute(plan2, fraudPg, Map("id" -> acc.toLong)).collect()(0).getLong(0)
        } else 0L
      assert(verdict.cnt1 == gaia - selfRows, s"account $acc: proc=${verdict.cnt1} gaia=$gaia")
    }
  }

  test("fraud: verdict uses the weighted threshold") {
    val snap = fraudGart.snapshot()
    val seeds = FraudDetection.seedBitSet(snap, Seq(3L, 7L))
    val v = FraudDetection.check(snap, snap.internalId(1L), seeds,
      w1 = 1.0, w2 = 0.5, threshold = -1.0)
    assert(v.alert, "with threshold -1 any account must alert")
    val v2 = FraudDetection.check(snap, snap.internalId(1L), seeds,
      w1 = 1.0, w2 = 0.5, threshold = 1e18)
    assert(!v2.alert)
  }

  test("fraud: new committed orders change the verdict (GART dynamism)") {
    val pg = SnbData.fraudGraph(spark, 20, 10, 0, avgKnows = 0, seed = 32)
    val g = GartStore.fromPropertyGraph(pg)
    val snap0 = g.snapshot()
    val seeds = FraudDetection.seedBitSet(snap0, Seq(2L))
    assert(FraudDetection.check(snap0, snap0.internalId(1L), seeds).cnt1 == 0)
    // account 1 and seed 2 both buy item TagBase within 5 days
    g.addEdge(1L, SnbData.TagBase, "BUY", ts = 100, weight = 1.0)
    g.addEdge(2L, SnbData.TagBase, "BUY", ts = 102, weight = 1.0)
    val before = g.snapshot()
    g.commit()
    val after = g.snapshot()
    assert(FraudDetection.check(before, before.internalId(1L), seeds).cnt1 == 0,
      "uncommitted orders must be invisible")
    assert(FraudDetection.check(after, after.internalId(1L), seeds).cnt1 == 1)
  }

  // ------------------------------------------------------------ equity (§8b)

  test("equity: graph and SQL paths agree (oracle-grade equality)") {
    val owns = EquityAnalysis.equityGraph(spark, nCompanies = 80, nPersons = 40).cache()
    val a = EquityAnalysis.effectiveShares(spark, owns)
      .select(col("person"), col("company"), round(col("share"), 6).as("share"))
    val b = EquityAnalysis.effectiveSharesSql(spark, owns)
      .select(col("person"), col("company"), round(col("share"), 6).as("share"))
    val ac = a.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    val bc = b.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    assert(ac.keySet == bc.keySet)
    ac.foreach { case (k, v) => assert(math.abs(v - bc(k)) < 1e-5, s"pair $k") }
  }

  test("equity: effective shares of each company sum to ~1") {
    val owns = EquityAnalysis.equityGraph(spark, nCompanies = 60, nPersons = 30).cache()
    val eff = EquityAnalysis.effectiveShares(spark, owns)
    val sums = eff.groupBy("company").agg(sum("share").as("total")).collect()
    sums.foreach { r =>
      assert(math.abs(r.getDouble(1) - 1.0) < 1e-6,
        s"company ${r.getLong(0)} persons hold ${r.getDouble(1)}")
    }
  }

  test("equity: controllers hold a majority and are unique per company") {
    val owns = EquityAnalysis.equityGraph(spark, nCompanies = 60, nPersons = 30).cache()
    val ctl = EquityAnalysis.controllers(
      EquityAnalysis.effectiveShares(spark, owns), cut = 0.5)
    val perCompany = ctl.groupBy("company").count().collect()
    perCompany.foreach(r => assert(r.getLong(1) == 1, "majority controller must be unique"))
    assert(ctl.count() > 0, "some companies must have a majority controller")
    assert(ctl.filter(col("share") <= 0.5).count() == 0)
  }

  test("equity: paper's worked example (Fig. 6b) — 0.48 + 0.168 = 0.648 control") {
    import spark.implicits._
    // Person A=1, Person C=2; companies: 1,2,3 as CompanyBase+1..3
    val cb = EquityAnalysis.CompanyBase
    val owns = Seq(
      (1L, cb + 1, 0.2),      // Person A owns 20% of Company1
      (cb + 2, cb + 1, 0.6),  // Company2 owns 60% of Company1
      (cb + 3, cb + 1, 0.2),  // Company3 owns 20% of Company1  (rest)
      (2L, cb + 2, 0.8),      // Person C owns 80% of Company2
      (2L, cb + 3, 0.84),     // Person C: 0.8*0.3*0.7 via 3 => direct stake product
      (3L, cb + 2, 0.2),
      (3L, cb + 3, 0.16),
    ).toDF("owner", "company", "share")
    val eff = EquityAnalysis.effectiveShares(spark, owns).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    val cControl = eff((2L, cb + 1))
    assert(math.abs(cControl - (0.8 * 0.6 + 0.84 * 0.2)) < 1e-9)
    assert(cControl > 0.5, "Person C controls Company 1")
  }

  /** GRAPE's effective shares over `nF` fragments, as (person, company, share) rows. */
  private def grapeShares(owns: DataFrame, nF: Int): Seq[(Long, Long, Double)] = {
    val own = EquityAnalysis.ownership(owns.select("owner", "company", "share").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))
    val (p, c, s) = own.columns(EquityAnalysis.propagate(Fragment.partition(own.csr, nF, own.weights), own))
    p.indices.map(k => (p(k), c(k), s(k)))
  }

  private def sqlShares(owns: DataFrame): Map[(Long, Long), Double] =
    EquityAnalysis.effectiveSharesSql(spark, owns).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap

  private def assertShares(got: Seq[(Long, Long, Double)], want: Map[(Long, Long), Double],
                           clue: String): Unit = {
    assert(got.map(r => (r._1, r._2)).toSet == want.keySet, clue)
    assert(got.size == want.size, s"$clue: a pair listed twice")
    got.foreach { case (p, c, s) => assert(math.abs(s - want((p, c))) < 1e-9, s"$clue pair ($p, $c)") }
  }

  test("equity: GRAPE propagation equals the SQL baseline on 1, 2 and 8 fragments, run after run") {
    val owns = EquityAnalysis.equityGraph(spark, nCompanies = 80, nPersons = 40).cache()
    val want = sqlShares(owns)
    Seq(1, 2, 8).foreach { nF =>
      val got = grapeShares(owns, nF)
      assertShares(got, want, s"nFrags=$nF")
      assert(grapeShares(owns, nF) == got, s"nFrags=$nF: a second run differs")
    }
  }

  test("equity: a 15-company chain stops 12 hops below the person on both paths") {
    import spark.implicits._
    val cb = EquityAnalysis.CompanyBase
    // the person owns cb+14 outright and cb+k owns half of cb+k-1, so
    // company cb+14-h is h hops below the person, and owners have higher ids
    val owns = ((1L, cb + 14, 1.0) +: (1 to 14).map(k => (cb + k, cb + k - 1, 0.5)))
      .toDF("owner", "company", "share")
    val want = (0 to 12).map(h => (1L, cb + 14 - h) -> math.pow(0.5, h)).toMap
    assert(sqlShares(owns) == want)
    Seq(1, 4).foreach(nF => assertShares(grapeShares(owns, nF), want, s"nFrags=$nF"))
  }

  test("equity: owners in later fragments than the companies they own (Fig. 6b)") {
    import spark.implicits._
    val cb = EquityAnalysis.CompanyBase
    // companies cb+1..cb+3 are dense ids 0..2, one per fragment, so cb+2 and
    // cb+3 message cb+1 backwards across fragment boundaries
    val owns = Seq(
      (1L, cb + 1, 0.2), (cb + 2, cb + 1, 0.6), (cb + 3, cb + 1, 0.2),
      (2L, cb + 2, 0.8), (2L, cb + 3, 0.84), (3L, cb + 2, 0.2), (3L, cb + 3, 0.16),
    ).toDF("owner", "company", "share")
    val got = grapeShares(owns, 3)
    assertShares(got, sqlShares(owns), "nFrags=3")
    val cControl = got.collectFirst { case (2L, c, s) if c == cb + 1 => s }
    assert(cControl.exists(s => math.abs(s - (0.8 * 0.6 + 0.84 * 0.2)) < 1e-12))
  }

  // ------------------------------------------------------- cybersecurity (§8d)

  test("cyber: two-hop traversal count matches the SQL baseline") {
    val edges = repro.graph.GraphGen.simplify(
      repro.graph.GraphGen.rmat(spark, scale = 9, edges = 3000, seed = 61))
    val pg = repro.graph.PropertyGraph.fromEdges(spark, edges, eLabel = "CONN")
    val store = VineyardStore.fromPropertyGraph(pg)
    val pairs = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    val sql = new Cybersecurity.SqlBaseline(pairs)
    try {
      (0 until 20).foreach { i =>
        val seedExt = pairs(i * 7 % pairs.length)._1
        val v = store.internalId(seedExt)
        assert(Cybersecurity.twoHopCount(store, v) == sql.twoHopCount(seedExt),
          s"seed $seedExt")
      }
    } finally sql.close()
  }

  test("cyber: gremlin 2-hop on HiActor equals the direct traversal") {
    val edges = repro.graph.GraphGen.simplify(
      repro.graph.GraphGen.rmat(spark, scale = 8, edges = 1000, seed = 62))
    val pg = repro.graph.PropertyGraph.fromEdges(spark, edges, eLabel = "CONN")
    val store = VineyardStore.fromPropertyGraph(pg)
    val seedExt = edges.collect()(0).getLong(0)
    val plan = Optimizer.optimize(GremlinParser.parse(
      s"g.V($seedExt).out('CONN').out('CONN').count()"), None, Optimizer.All)
    val viaEngine = HiActorExec.execute(plan, store).rows.head.head.asInstanceOf[Long]
    assert(viaEngine == Cybersecurity.twoHopCount(store, store.internalId(seedExt)))
  }
}
