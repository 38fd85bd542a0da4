package repro.storage.graphar

import java.io.File
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph
import repro.storage.PropertyFormat
import GarFormat._

/** Writes Spark DataFrames as GraphAr-lite tables, and whole
  * [[PropertyGraph]]s as a graph directory with adjacency offset indices
  * (GraphAr's "built-in indexes" enabling storage-level neighbor fetch).
  *
  * Graph directory layout:
  * {{{
  *   <root>/vertices/    # sorted by id
  *   <root>/edges_out/   # cols key=src, nbr=dst, label, ts, weight; sorted by key
  *   <root>/edges_in/    # cols key=dst, nbr=src, ...; sorted by key
  *   <root>/offsets_out.bin, offsets_in.bin   # per-dense-vertex row offsets
  * }}}
  */
object GraphArWriter {

  /** Writes `df` sorted by `sortCol` into `dir` as chunked columnar files.
    * Chunking happens per range partition on the executors; the driver only
    * assembles the index (zone maps) afterwards.
    */
  def writeTable(df: DataFrame, dir: String, sortCol: String, chunkSize: Int = 65536): Unit = {
    val d = new File(dir)
    if (d.exists()) { d.listFiles().foreach(_.delete()) } else d.mkdirs()
    val schema = df.schema
    val fields = schema.fields
    val sortIdx = schema.fieldIndex(sortCol)
    val nPartsRaw = math.max(1, (df.count() / math.max(1, chunkSize * 4)).toInt)
    val nParts = math.min(64, nPartsRaw)
    val sorted =
      if (nParts == 1) df.sort(sortCol).coalesce(1)
      else df.repartitionByRange(nParts, col(sortCol)).sortWithinPartitions(sortCol)

    val stats = sorted.rdd.mapPartitionsWithIndex { (pid, it) =>
      val rows = it.toArray
      val out = scala.collection.mutable.ArrayBuffer.empty[(Int, String, Int, Long, Long)]
      var j = 0
      var start = 0
      while (start < rows.length) {
        val end = math.min(rows.length, start + chunkSize)
        val slice = rows.slice(start, end)
        val cols = fields.toIndexedSeq.zipWithIndex.map { case (f, idx) =>
          f.name -> PropertyFormat.column(f.dataType, slice.length)(slice(_).get(idx))
        }
        val fname = f"chunk-$pid%05d-$j%04d.gar"
        writeChunk(new File(dir, fname).getPath, slice.length, cols, Set(sortCol))
        val keys = slice.map(r => r.get(sortIdx) match {
          case l: Long => l
          case i: Int => i.toLong
          case other => other.toString.toLong
        })
        out += ((pid * 100000 + j, fname, slice.length, keys.min, keys.max))
        start = end
        j += 1
      }
      out.iterator
    }.collect().sortBy(_._1)

    val chunks = stats.map { case (_, f, n, mn, mx) => ChunkMeta(f, n, mn, mx) }.toVector
    val meta = TableMeta(chunks.map(_.rows.toLong).sum, sortCol,
      fields.map(f => f.name -> PropertyFormat.kind(f.dataType)).toVector, chunks)
    writeMeta(dir, meta)
  }

  /** Exports a whole property graph with both adjacency orders + offsets. */
  def exportGraph(g: PropertyGraph, root: String, chunkSize: Int = 65536): Unit = {
    new File(root).mkdirs()
    writeTable(g.vertices, s"$root/vertices", "id", chunkSize)
    val eo = g.edges.select(col("src").as("key"), col("dst").as("nbr"),
      col("label"), col("ts"), col("weight"))
    writeTable(eo, s"$root/edges_out", "key", chunkSize)
    val ei = g.edges.select(col("dst").as("key"), col("src").as("nbr"),
      col("label"), col("ts"), col("weight"))
    writeTable(ei, s"$root/edges_in", "key", chunkSize)

    // Offset indices: dense ids follow sorted vertex-id order (the same
    // convention every store in this repo uses).
    val vids = g.vertices.select("id").sort("id").collect().map(_.getLong(0))
    val pos = new repro.util.LongIntMap(vids.length)
    vids.zipWithIndex.foreach { case (id, i) => pos.put(id, i) }
    def writeOffsets(df: DataFrame, keyCol: String, file: String): Unit = {
      val deg = new Array[Long](vids.length + 1)
      df.groupBy(col(keyCol)).agg(count(lit(1)).as("d")).collect().foreach { r =>
        deg(pos.get(r.getLong(0)) + 1) = r.getLong(1)
      }
      var i = 1
      while (i <= vids.length) { deg(i) += deg(i - 1); i += 1 }
      val bytes = repro.util.Varint.encodeDeltaArray(deg)
      val s = new java.io.DataOutputStream(new java.io.FileOutputStream(new File(root, file)))
      try { s.writeInt(deg.length); s.writeInt(bytes.length); s.write(bytes) } finally s.close()
    }
    writeOffsets(g.edges, "src", "offsets_out.bin")
    writeOffsets(g.edges, "dst", "offsets_in.bin")
  }
}
