package repro.analytics.df

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame analytics — the GraphX-equivalent distributed path.
  *
  * The paper's analytics interfaces include GraphX/Giraph-compatible APIs
  * (§6); on Spark the faithful mapping is a Pregel-style loop of
  * join-per-superstep DataFrames on Catalyst. These are the implementations
  * the storage-matrix experiment (Exp-1a) and the equity case study (Exp-6,
  * "implemented with the GraphX API") run on. Each iteration localCheckpoints
  * periodically to keep lineage bounded, and a cached frame is unpersisted
  * once the frames built from it have been materialized.
  */
object PregelDF {

  private def checkpoint(df: DataFrame, iter: Int, every: Int = 5): DataFrame =
    if (iter % every == every - 1) df.localCheckpoint(true) else df.cache()

  /** PageRank over an edge DataFrame (src, dst); returns (id, rank). */
  def pageRank(spark: SparkSession, edges: DataFrame, iters: Int,
               d: Double = 0.85): DataFrame = {
    val e = edges.select("src", "dst").cache()
    val vertices = e.select(col("src").as("id"))
      .union(e.select(col("dst").as("id"))).distinct().cache()
    val n = vertices.count().toDouble
    val outDeg = e.groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))

    var ranks = vertices.withColumn("rank", lit(1.0 / n))
    var prev = ranks
    var it = 0
    while (it < iters) {
      val withDeg = ranks.join(outDeg, Seq("id"), "left")
      val danglingMass = withDeg.filter(col("deg").isNull)
        .agg(coalesce(sum("rank"), lit(0.0))).collect()(0).getDouble(0)
      prev.unpersist() // that scan materialized `ranks`
      val contribs = withDeg.filter(col("deg").isNotNull)
        .join(e, col("id") === col("src"))
        .select(col("dst").as("id"), (col("rank") / col("deg")).as("c"))
        .groupBy("id").agg(sum("c").as("s"))
      prev = ranks
      ranks = vertices.join(contribs, Seq("id"), "left")
        .select(col("id"),
          (lit((1 - d) / n) + lit(d) * (coalesce(col("s"), lit(0.0)) + lit(danglingMass / n)))
            .as("rank"))
      ranks = checkpoint(ranks, it)
      it += 1
    }
    ranks
  }

  /** BFS levels from `source`; unreachable vertices are absent. */
  def bfs(spark: SparkSession, edges: DataFrame, source: Long): DataFrame = {
    val e = edges.select("src", "dst").cache()
    var dist = spark.range(1).select(lit(source).as("id"), lit(0).as("dist"))
    var prevDist = dist
    var frontier = dist
    var level = 0
    var active = 1L
    while (active > 0) {
      val next = frontier.join(e, col("id") === col("src"))
        .select(col("dst").as("id")).distinct()
        .join(dist.select(col("id").as("seen")), col("id") === col("seen"), "left_anti")
        .withColumn("dist", lit(level + 1))
      val nf = checkpoint(next, level, every = 3)
      active = nf.count()
      // that count materialized `dist`, so the frames it was built from can go
      prevDist.unpersist()
      frontier.unpersist()
      if (active > 0) {
        prevDist = dist
        dist = checkpoint(dist.union(nf), level, every = 3)
      } else nf.unpersist()
      frontier = nf
      level += 1
    }
    dist
  }

  /** Connected components by min-label propagation (symmetrizes internally);
    * returns (id, component).
    */
  def wcc(spark: SparkSession, edges: DataFrame, maxIters: Int = 50): DataFrame = {
    val und = edges.select("src", "dst")
      .union(edges.select(col("dst").as("src"), col("src").as("dst")))
      .distinct().cache()
    var labels = und.select(col("src").as("id")).distinct()
      .withColumn("comp", col("id"))
    var prev: DataFrame = null
    var changed = 1L
    var it = 0
    while (changed > 0 && it < maxIters) {
      val proposals = labels.join(und, col("id") === col("src"))
        .groupBy(col("dst").as("id2")).agg(min("comp").as("newComp"))
      val updated = labels.join(proposals, col("id") === col("id2"), "left")
        .select(col("id"),
          least(col("comp"), coalesce(col("newComp"), col("comp"))).as("comp"),
          (col("newComp").isNotNull && col("newComp") < col("comp")).as("ch"))
      val nl = checkpoint(updated, it)
      changed = nl.filter(col("ch")).count()
      if (prev != null) prev.unpersist() // that count materialized `nl`
      prev = nl
      labels = nl.select("id", "comp")
      it += 1
    }
    labels
  }

  /** Single-source shortest paths over weighted edges (src, dst, weight). */
  def sssp(spark: SparkSession, edges: DataFrame, source: Long,
           maxIters: Int = 50): DataFrame = {
    val e = edges.select("src", "dst", "weight").cache()
    var dist = spark.range(1).select(lit(source).as("id"), lit(0.0).as("dist"))
    var prevDist = dist
    var frontier = dist
    var it = 0
    var active = 1L
    while (active > 0 && it < maxIters) {
      val relax = frontier.join(e, col("id") === col("src"))
        .select(col("dst").as("id2"), (col("dist") + col("weight")).as("nd"))
        .groupBy("id2").agg(min("nd").as("nd"))
      val joined = relax.join(dist, col("id2") === col("id"), "left")
      val improved = joined.filter(col("dist").isNull || col("nd") < col("dist"))
        .select(col("id2").as("id"), col("nd").as("dist"))
      val nf = checkpoint(improved, it, every = 3)
      active = nf.count()
      // that count materialized `dist`, so the frames it was built from can go
      prevDist.unpersist()
      frontier.unpersist()
      if (active > 0) {
        prevDist = dist
        dist = checkpoint(
          dist.join(nf.select(col("id").as("uid")), col("id") === col("uid"), "left_anti")
            .select("id", "dist")
            .union(nf), it, every = 3)
      } else nf.unpersist()
      frontier = nf
      it += 1
    }
    dist
  }
}
