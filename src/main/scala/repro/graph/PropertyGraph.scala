package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Labeled Property Graph held as two DataFrames (§2.1's LPG model).
  *
  * Conventions (shared by every engine and storage backend in this repo):
  *  - `vertices`: `id: Long` (globally unique across labels), `label: String`,
  *    plus any number of property columns (null where a property does not
  *    apply to a label).
  *  - `edges`: `src: Long`, `dst: Long`, `label: String`, plus property
  *    columns; the fast-path properties `ts: Long` and `weight: Double` get
  *    first-class treatment in the in-memory stores.
  */
final case class PropertyGraph(vertices: DataFrame, edges: DataFrame) {

  def vertexCount: Long = vertices.count()
  def edgeCount: Long = edges.count()

  /** Out-degree per vertex id (vertices with no out-edges are absent). */
  def outDegrees: DataFrame =
    edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("degree"))

  /** Keeps only the structural columns — handy for analytics on simple graphs. */
  def topology: DataFrame = edges.select("src", "dst")
}

object PropertyGraph {

  /** Builds a single-label graph from a bare (src, dst[, weight]) edge list. */
  def fromEdges(spark: SparkSession, edges: DataFrame,
                vLabel: String = "V", eLabel: String = "E"): PropertyGraph = {
    val e = {
      val base = edges.withColumn("label", lit(eLabel))
      if (edges.columns.contains("weight")) base.withColumn("weight", col("weight").cast("double"))
      else base.withColumn("weight", lit(1.0))
    }.withColumn("ts", lit(0L)).select("src", "dst", "label", "ts", "weight")
    val v = e.select(col("src").as("id"))
      .union(e.select(col("dst").as("id")))
      .distinct()
      .withColumn("label", lit(vLabel))
    PropertyGraph(v, e)
  }
}
