package repro.storage

import org.apache.spark.sql.Row
import repro.graph.{LocalCsr, PropertyGraph}
import repro.grin._

/** Vineyard — the immutable in-memory property-graph store (paper §4.2).
  *
  * Mirrors the real Vineyard's role in GraphScope Flex: property-graph data
  * model, CSR + CSC built-in indices, internal dense-id assignment, and full
  * GRIN trait coverage (including array-like adjacency, which the dynamic
  * stores cannot provide). `csr` is exposed so the Exp-1b "tightly coupled"
  * baseline can bypass GRIN and hit the raw arrays.
  */
final class VineyardStore(
    val csr: LocalCsr,
    val vLabelIds: Array[Int],
    val vLabelNames: Array[String],
    val vProps: Map[String, Col],
    val eLabelIds: Array[Int],      // by CSR out-edge index
    val eLabelNames: Array[String],
    val eTs: Array[Long],           // by CSR out-edge index
    val eWeight: Array[Double],
) extends GrinGraph with Serializable {

  private val labelIndex: Array[Array[Int]] = {
    val counts = new Array[Int](vLabelNames.length)
    vLabelIds.foreach(l => counts(l) += 1)
    val out = counts.map(new Array[Int](_))
    val pos = new Array[Int](vLabelNames.length)
    var v = 0
    while (v < csr.n) { val l = vLabelIds(v); out(l)(pos(l)) = v; pos(l) += 1; v += 1 }
    out
  }

  override val capabilities: Set[Capability.Value] = Set(
    Capability.ArrayLikeAdjacency, Capability.IteratorAdjacency,
    Capability.VertexProperty, Capability.EdgeProperty,
    Capability.LabelIndex, Capability.ExternalIdIndex, Capability.PredicatePushdown)

  def vertexCount: Int = csr.n
  def edgeCount: Long = csr.m.toLong

  override def degree(v: Int, dir: Direction.Value): Int =
    if (dir == Direction.Out) csr.outDegree(v) else csr.inDegree(v)

  override def neighborAt(v: Int, dir: Direction.Value, i: Int): Int =
    if (dir == Direction.Out) csr.outDst(csr.outOff(v) + i) else csr.inSrc(csr.inOff(v) + i)

  def newCursor(dir: Direction.Value): NeighborCursor =
    if (dir == Direction.Out) new OutCursor else new InCursor

  private final class OutCursor extends NeighborCursor {
    private var i = 0; private var end = 0; private var cur = -1
    def seek(v: Int): NeighborCursor = { i = csr.outOff(v); end = csr.outOff(v + 1); this }
    def moveNext(): Boolean = { if (i >= end) false else { cur = i; i += 1; true } }
    def neighbor: Int = csr.outDst(cur)
    def edgeLabelId: Int = eLabelIds(cur)
    def ts: Long = eTs(cur)
    def weight: Double = eWeight(cur)
  }

  private final class InCursor extends NeighborCursor {
    private var i = 0; private var end = 0; private var e = -1; private var cur = -1
    def seek(v: Int): NeighborCursor = { i = csr.inOff(v); end = csr.inOff(v + 1); this }
    def moveNext(): Boolean = { if (i >= end) false else { cur = i; e = csr.inEdge(i); i += 1; true } }
    def neighbor: Int = csr.inSrc(cur)
    def edgeLabelId: Int = eLabelIds(e)
    def ts: Long = eTs(e)
    def weight: Double = eWeight(e)
  }

  def vertexLabelId(v: Int): Int = vLabelIds(v)
  def vertexLabelName(id: Int): String = vLabelNames(id)
  def vertexLabelIdOf(name: String): Int = vLabelNames.indexOf(name)
  def edgeLabelName(id: Int): String = eLabelNames(id)
  def edgeLabelIdOf(name: String): Int = eLabelNames.indexOf(name)

  def vertexProp(v: Int, name: String): Any = name match {
    case "id" => csr.extIds(v)
    case "label" => vLabelNames(vLabelIds(v))
    case _ => vProps.get(name).map(_.get(v)).orNull
  }

  def internalId(extId: Long): Int = csr.idMap.get(extId)
  def externalId(v: Int): Long = csr.extIds(v)
  def verticesByLabel(labelId: Int): Array[Int] =
    if (labelId < 0 || labelId >= labelIndex.length) Array.empty else labelIndex(labelId)
}

object VineyardStore {

  /** Builds the store from a [[PropertyGraph]] (collect is intentional:
    * Vineyard is the driver-local in-memory substrate, see DESIGN.md).
    */
  def fromPropertyGraph(g: PropertyGraph): VineyardStore = {
    val vRows = g.vertices.collect()
    val eRows = g.edges.select("src", "dst", "label", "ts", "weight").collect()
    val srcA = eRows.map(_.getLong(0))
    val csr = LocalCsr.build(srcA, eRows.map(_.getLong(1)), vRows.map(_.getLong(0)))
    val n = csr.n

    // Vertex labels + properties, columnar by dense id.
    val byId = new Array[Row](n)
    vRows.foreach(r => byId(csr.idMap.get(r.getLong(0))) = r)
    val vLabelNames = vRows.map(_.getString(1)).distinct.sorted
    val vLabelIds = byId.map(r => if (r == null) 0 else vLabelNames.indexOf(r.getString(1)))
    val vProps: Map[String, Col] = g.vertices.schema.fields.zipWithIndex.collect {
      case (f, idx) if f.name != "id" && f.name != "label" =>
        f.name -> PropertyFormat.column(f.dataType, n)(v => if (byId(v) == null) null else byId(v).get(idx))
    }.toMap

    // Edge labels + fast-path props, in CSR out-edge order.
    val slot = LocalCsr.edgeSlots(csr, srcA)
    val eLabelNames = eRows.map(_.getString(2)).distinct.sorted
    val eLabelIds = new Array[Int](eRows.length)
    val eTs = new Array[Long](eRows.length)
    val eWeight = new Array[Double](eRows.length)
    var i = 0
    while (i < eRows.length) {
      val e = slot(i)
      eLabelIds(e) = eLabelNames.indexOf(eRows(i).getString(2))
      eTs(e) = eRows(i).getLong(3)
      eWeight(e) = eRows(i).getDouble(4)
      i += 1
    }

    new VineyardStore(csr, vLabelIds, vLabelNames, vProps, eLabelIds, eLabelNames, eTs, eWeight)
  }
}
