package repro.storage.graphar

import java.io.{DataInputStream, File, FileInputStream}
import repro.grin._
import repro.storage.{Col, DoubleCol, LongCol, StringCol}
import repro.util.{LongIntMap, Varint}
import GarFormat._

/** GRIN backend reading GraphAr-lite directly from disk (paper §4.2:
  * "GraphAr ... can be directly used as a data source for applications by
  * integrating GRIN").
  *
  * Vertices and the offset indices load eagerly (small); edge chunks load
  * lazily through a small LRU cache, so every adjacency traversal that
  * misses the cache pays real I/O + decode — which is why Exp-1a shows
  * GraphAr as the slowest backend, exactly as in the paper.
  */
final class GraphArGraph(root: String, cacheChunks: Int = 8) extends GrinGraph {

  // ---- vertices (eager) ----
  private val vMeta = readMeta(s"$root/vertices")
  private val vChunks = vMeta.chunks.map(c => readChunk(new File(s"$root/vertices", c.file).getPath))
  private val n = vMeta.rows.toInt
  private val extIdsA = new Array[Long](n)
  private val vLabelIds = new Array[Int](n)
  private val vLabelNamesB = scala.collection.mutable.ArrayBuffer.empty[String]
  private val idMap = new LongIntMap(n)
  private val propCols: Map[String, Array[Col]] =
    vMeta.cols.filter(c => c._1 != "id" && c._1 != "label").map { case (name, _) =>
      name -> vChunks.map(_.col(name)).toArray
    }.toMap
  private val chunkStartRow: Array[Int] = {
    val a = new Array[Int](vChunks.length + 1)
    var i = 0
    while (i < vChunks.length) { a(i + 1) = a(i) + vChunks(i).nRows; i += 1 }
    a
  }
  locally {
    var row = 0
    vChunks.foreach { ch =>
      val ids = ch.col("id").asInstanceOf[LongCol].a
      val labels = ch.col("label").asInstanceOf[StringCol].a
      var i = 0
      while (i < ch.nRows) {
        extIdsA(row) = ids(i)
        idMap.put(ids(i), row)
        var li = vLabelNamesB.indexOf(labels(i))
        if (li < 0) { vLabelNamesB += labels(i); li = vLabelNamesB.length - 1 }
        vLabelIds(row) = li
        row += 1; i += 1
      }
    }
  }

  // ---- edge labels ----
  private val eMetaOut = readMeta(s"$root/edges_out")
  private val eMetaIn = readMeta(s"$root/edges_in")
  private val eLabelNamesB = scala.collection.mutable.ArrayBuffer.empty[String]

  // ---- offset indices ----
  private def loadOffsets(file: String): Array[Long] = {
    val in = new DataInputStream(new FileInputStream(new File(root, file)))
    try {
      val count = in.readInt()
      val len = in.readInt()
      val bytes = new Array[Byte](len); in.readFully(bytes)
      Varint.decodeDeltaArray(bytes, count)
    } finally in.close()
  }
  private val offOut = loadOffsets("offsets_out.bin")
  private val offIn = loadOffsets("offsets_in.bin")

  // ---- lazy chunk cache (shared; synchronized — archive access path) ----
  private final class EdgeTable(dir: String, meta: TableMeta) {
    val startRow: Array[Long] = {
      val a = new Array[Long](meta.chunks.length + 1)
      var i = 0
      while (i < meta.chunks.length) { a(i + 1) = a(i) + meta.chunks(i).rows; i += 1 }
      a
    }
    private val cache = new java.util.LinkedHashMap[Int, Chunk](16, 0.75f, true) {
      override def removeEldestEntry(e: java.util.Map.Entry[Int, Chunk]): Boolean =
        size() > cacheChunks
    }
    def chunkIdxForRow(row: Long): Int = {
      var lo = 0; var hi = meta.chunks.length - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (startRow(mid) <= row) lo = mid else hi = mid - 1
      }
      lo
    }
    def chunk(i: Int): Chunk = cache.synchronized {
      val c = cache.get(i)
      if (c != null) c
      else {
        val loaded = readChunk(new File(dir, meta.chunks(i).file).getPath)
        cache.put(i, loaded)
        loaded
      }
    }
  }
  private val outTable = new EdgeTable(s"$root/edges_out", eMetaOut)
  private val inTable = new EdgeTable(s"$root/edges_in", eMetaIn)

  override val capabilities: Set[Capability.Value] = Set(
    Capability.IteratorAdjacency, Capability.VertexProperty, Capability.EdgeProperty,
    Capability.LabelIndex, Capability.ExternalIdIndex, Capability.PredicatePushdown)

  def vertexCount: Int = n
  def edgeCount: Long = eMetaOut.rows

  override def degree(v: Int, dir: Direction.Value): Int =
    if (dir == Direction.Out) (offOut(v + 1) - offOut(v)).toInt
    else (offIn(v + 1) - offIn(v)).toInt

  def newCursor(dir: Direction.Value): NeighborCursor =
    new ChunkCursor(if (dir == Direction.Out) outTable else inTable,
                    if (dir == Direction.Out) offOut else offIn)

  private final class ChunkCursor(table: EdgeTable, off: Array[Long]) extends NeighborCursor {
    private var row = 0L
    private var end = 0L
    private var ch: Chunk = _
    private var chStart = 0L
    private var chEnd = 0L
    private var nbrCol: Array[Long] = _
    private var labelCol: Array[String] = _
    private var tsCol: Array[Long] = _
    private var wCol: Array[Double] = _
    private var i = 0

    def seek(v: Int): NeighborCursor = { row = off(v) - 1; end = off(v + 1); this }
    def moveNext(): Boolean = {
      row += 1
      if (row >= end) return false
      if (ch == null || row < chStart || row >= chEnd) {
        val ci = table.chunkIdxForRow(row)
        ch = table.chunk(ci)
        chStart = table.startRow(ci); chEnd = table.startRow(ci + 1)
        nbrCol = ch.col("nbr").asInstanceOf[LongCol].a
        labelCol = ch.col("label").asInstanceOf[StringCol].a
        tsCol = ch.col("ts").asInstanceOf[LongCol].a
        wCol = ch.col("weight").asInstanceOf[DoubleCol].a
      }
      i = (row - chStart).toInt
      true
    }
    def neighbor: Int = idMap.get(nbrCol(i))
    def edgeLabelId: Int = labelIdOf(labelCol(i))
    def ts: Long = tsCol(i)
    def weight: Double = wCol(i)
  }

  private def labelIdOf(name: String): Int = eLabelNamesB.synchronized {
    var li = eLabelNamesB.indexOf(name)
    if (li < 0) { eLabelNamesB += name; li = eLabelNamesB.length - 1 }
    li
  }

  def vertexLabelId(v: Int): Int = vLabelIds(v)
  def vertexLabelName(id: Int): String = vLabelNamesB(id)
  def vertexLabelIdOf(name: String): Int = vLabelNamesB.indexOf(name)
  def edgeLabelName(id: Int): String = eLabelNamesB.synchronized(eLabelNamesB(id))
  def edgeLabelIdOf(name: String): Int = labelIdOf(name)

  def vertexProp(v: Int, name: String): Any = name match {
    case "id" => extIdsA(v)
    case "label" => vLabelNamesB(vLabelIds(v))
    case _ =>
      propCols.get(name) match {
        case None => null
        case Some(chunks) =>
          // locate the vertex chunk containing dense row v
          var ci = 0
          while (chunkStartRow(ci + 1) <= v) ci += 1
          chunks(ci).get(v - chunkStartRow(ci))
      }
  }

  def internalId(extId: Long): Int = idMap.get(extId)
  def externalId(v: Int): Long = extIdsA(v)
  def verticesByLabel(labelId: Int): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    var v = 0
    while (v < n) { if (vLabelIds(v) == labelId) out += v; v += 1 }
    out.result()
  }
}
