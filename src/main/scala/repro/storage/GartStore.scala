package repro.storage

import java.lang.invoke.{MethodHandles, VarHandle}

import repro.graph.PropertyGraph
import repro.grin._
import repro.util.LongIntMap

/** GART — mutable in-memory graph store with MVCC (paper §4.2; He et al.,
  * "GART: Bridging the Gap between Relational OLTP and Graph-based OLAP",
  * USENIX ATC 2023).
  *
  * A single writer appends vertices and edges tagged with the current write
  * version; `commit()` publishes them atomically; readers open
  * [[GartSnapshot]]s that see exactly the edges with
  * `createVersion <= version`.
  *
  * Adjacency, per direction, is a compacted *base* plus a *delta*:
  *  - the base is one contiguous CSR ([[GartStore.Csr]]: `off`, `dst`,
  *    `elabel`, `cver`, `ts`, `weight`) holding every edge committed up to
  *    the base's version, each vertex's edges in append order;
  *  - the delta is per-vertex chains of 8→256-slot blocks of parallel
  *    primitive arrays holding the edges appended since; appends are O(1)
  *    at the tail block.
  *
  * `commit()` compacts — merges each base with its delta into a new base
  * and starts empty chains — when the committed delta reaches 1/8 of (base
  * edges + vertices). A compaction writes at most 9× the delta edges it
  * absorbs (plus vertex offsets, also bounded by 8× that delta), so its
  * cost is amortized O(1) per edge, and after every commit the delta holds
  * under 1/8 of (base edges + vertices). A bulk load (one commit) ends
  * fully compacted unless it has under one edge per 8 vertices.
  *
  * A scan walks a vertex's base range, then its delta chain. A vertex's
  * edge versions never decrease in that order, so a snapshot at or past the
  * base's version reads the base with no version compare and compares only
  * on the delta, stopping at the first invisible edge; an older snapshot
  * cuts the base range by binary search and skips the delta (all newer).
  *
  * Concurrency: one writer thread, any number of reader threads. Each
  * commit publishes one immutable [[GartStore.State]] — version, vertex
  * count, vertex arrays, both bases and both delta head arrays — with a
  * single volatile write, the happens-before edge for everything written
  * before it. A compaction swaps bases and head arrays inside that one
  * state, so no snapshot pairs a new base with old chains. Edges appended
  * after a state's publication are reachable from it only through racy
  * reads: a block's `used` is written with release and read with acquire,
  * and a slot whose version reads 0 counts as not yet written.
  */
final class GartStore(expectedVertices: Int) {

  import GartStore._

  private val idMap = new LongIntMap(expectedVertices)
  private var extIds = new Array[Long](math.max(16, expectedVertices))
  private var vlabel = new Array[Byte](extIds.length)
  private var vcver = new Array[Int](extIds.length)
  private var vprops = new Array[Map[String, Any]](extIds.length)
  private var nV = 0

  private var outHead = new Array[Block](extIds.length)
  private var outTail = new Array[Block](extIds.length)
  private var inHead = new Array[Block](extIds.length)
  private var inTail = new Array[Block](extIds.length)
  private var outBase = Csr.Empty
  private var inBase = Csr.Empty

  private var vLabelNames = Vector.empty[String]
  private var eLabelNames = Vector.empty[String]

  private var writeVersion = 1
  private var nEdgesPending = 0L
  private var nEdgesDelta = 0L // committed edges in the delta chains

  @volatile private var state: State = published(0) // the publication point

  // ---- writer API (single-threaded) ----------------------------------------

  def vertexLabelIdOrCreate(name: String): Int = {
    val i = vLabelNames.indexOf(name)
    if (i >= 0) i else { vLabelNames :+= name; vLabelNames.length - 1 }
  }
  def edgeLabelIdOrCreate(name: String): Int = {
    val i = eLabelNames.indexOf(name)
    if (i >= 0) i else { eLabelNames :+= name; eLabelNames.length - 1 }
  }

  /** Adds a vertex; its `props` are kept in [[PropertyFormat]]'s stored
    * form, and a null (or a null sentinel) is not kept.
    */
  def addVertex(extId: Long, label: String,
                props: Map[String, Any] = Map.empty): Int = {
    require(idMap.get(extId) < 0, s"vertex $extId already exists")
    if (nV == extIds.length) grow()
    val v = nV
    extIds(v) = extId
    vlabel(v) = vertexLabelIdOrCreate(label).toByte
    if (props.nonEmpty)
      vprops(v) = props.flatMap { case (k, x) => Option(PropertyFormat.store(x)).map(k -> _) }
    vcver(v) = writeVersion
    idMap.put(extId, v)
    nV += 1
    v
  }

  def addEdge(srcExt: Long, dstExt: Long, label: String, ts: Long, weight: Double): Unit = {
    val s = idMap.get(srcExt); val d = idMap.get(dstExt)
    require(s >= 0 && d >= 0, s"unknown endpoint for edge $srcExt -> $dstExt")
    val l = edgeLabelIdOrCreate(label).toByte
    append(outHead, outTail, s, d, l, ts, weight)
    append(inHead, inTail, d, s, l, ts, weight)
    nEdgesPending += 1
  }

  private def append(heads: Array[Block], tails: Array[Block], v: Int,
                     other: Int, l: Byte, tsV: Long, w: Double): Unit = {
    var b = tails(v)
    if (b == null) { b = new Block(FirstBlockCap); heads(v) = b; tails(v) = b }
    else if (b.used == b.cap) {
      val nb = new Block(math.min(MaxBlockCap, b.cap * 2))
      b.next = nb; tails(v) = nb; b = nb
    }
    val i = b.used
    b.dst(i) = other; b.elabel(i) = l; b.ts(i) = tsV; b.weight(i) = w
    b.cver(i) = writeVersion
    // Release: a reader that acquires the new `used` sees the slot's payload.
    Used.setRelease(b, i + 1): Unit
  }

  /** Publishes everything written since the last commit; returns the version. */
  def commit(): Int = {
    val v = writeVersion
    nEdgesDelta += nEdgesPending
    nEdgesPending = 0
    writeVersion += 1
    if (nEdgesDelta > 0 && 8 * nEdgesDelta >= outBase.edges + nV) {
      outBase = compact(outBase, outHead, v)
      inBase = compact(inBase, inHead, v)
      outHead = new Array[Block](extIds.length); outTail = new Array[Block](extIds.length)
      inHead = new Array[Block](extIds.length); inTail = new Array[Block](extIds.length)
      nEdgesDelta = 0
    }
    state = published(v) // volatile publication point
    v
  }

  private def published(v: Int): State =
    new State(v, nV, extIds, vlabel, vcver, vprops, vLabelNames, eLabelNames,
      outBase, inBase, outHead, inHead)

  /** Base plus delta, merged vertex by vertex in append order. Runs inside
    * `commit()`, so every delta edge is committed.
    */
  private def compact(base: Csr, heads: Array[Block], v: Int): Csr = {
    val off = new Array[Int](nV + 1)
    var u = 0
    while (u < nV) {
      var d = if (u < base.n) base.off(u + 1) - base.off(u) else 0
      var b = heads(u)
      while (b != null) { d += b.used; b = b.next }
      off(u + 1) = off(u) + d
      u += 1
    }
    val m = off(nV)
    val out = new Csr(v, off, new Array[Int](m), new Array[Byte](m), new Array[Int](m),
      new Array[Long](m), new Array[Double](m))
    u = 0
    while (u < nV) {
      var at = off(u)
      if (u < base.n) {
        val from = base.off(u); val k = base.off(u + 1) - from
        copy(base.dst, base.elabel, base.cver, base.ts, base.weight, from, out, at, k)
        at += k
      }
      var b = heads(u)
      while (b != null) {
        copy(b.dst, b.elabel, b.cver, b.ts, b.weight, 0, out, at, b.used)
        at += b.used; b = b.next
      }
      u += 1
    }
    out
  }

  private def copy(dst: Array[Int], elabel: Array[Byte], cver: Array[Int], ts: Array[Long],
                   weight: Array[Double], from: Int, to: Csr, at: Int, k: Int): Unit = {
    System.arraycopy(dst, from, to.dst, at, k)
    System.arraycopy(elabel, from, to.elabel, at, k)
    System.arraycopy(cver, from, to.cver, at, k)
    System.arraycopy(ts, from, to.ts, at, k)
    System.arraycopy(weight, from, to.weight, at, k)
  }

  private def grow(): Unit = {
    val c = extIds.length * 2
    extIds = java.util.Arrays.copyOf(extIds, c)
    vlabel = java.util.Arrays.copyOf(vlabel, c)
    vcver = java.util.Arrays.copyOf(vcver, c)
    vprops = java.util.Arrays.copyOf(vprops, c)
    outHead = java.util.Arrays.copyOf(outHead, c)
    outTail = java.util.Arrays.copyOf(outTail, c)
    inHead = java.util.Arrays.copyOf(inHead, c)
    inTail = java.util.Arrays.copyOf(inTail, c)
  }

  // ---- reader API -----------------------------------------------------------

  /** Opens a consistent snapshot at the latest committed version. */
  def snapshot(): GartSnapshot = { val st = state; new GartSnapshot(st, idMap, st.version) }

  /** Opens a snapshot at an already committed `version`. */
  def snapshotAt(version: Int): GartSnapshot = {
    val st = state
    require(version >= 0 && version <= st.version, s"version $version is not committed")
    new GartSnapshot(st, idMap, version)
  }
}

/** Where a snapshot's out-edges live: `baseEdges` in the compacted base of
  * version `baseVersion`, `deltaEdges` in `deltaBlocks` delta blocks. Counts
  * cover only what the snapshot at `version` sees.
  */
final case class GartStats(version: Int, baseVersion: Int, baseEdges: Long,
                           deltaEdges: Long, deltaBlocks: Long)

/** A consistent MVCC read view of a [[GartStore]] — a full GRIN backend
  * minus array-like adjacency (the delta chains have no indexed access,
  * which GRIN's capability negotiation surfaces).
  */
final class GartSnapshot private[storage] (st: GartStore.State, idMap: LongIntMap,
                                           val version: Int) extends GrinGraph {
  import GartStore.{Block, Csr}

  private val nVis = {
    var i = st.nV - 1
    while (i >= 0 && st.vcver(i) > version) i -= 1
    i + 1
  }
  /** The bases hold no edge newer than this snapshot (same version both ways). */
  private val current = st.out.version <= version

  override val capabilities: Set[Capability.Value] = Set(
    Capability.IteratorAdjacency, Capability.VertexProperty, Capability.EdgeProperty,
    Capability.LabelIndex, Capability.ExternalIdIndex, Capability.VersionedSnapshot)

  def vertexCount: Int = nVis
  def edgeCount: Long = { val s = stats; s.baseEdges + s.deltaEdges }

  override def degree(v: Int, dir: Direction.Value): Int = {
    if (v >= nVis) return 0
    val base = if (dir == Direction.Out) st.out else st.in
    var d = baseHi(base, v) - baseLo(base, v)
    if (current) {
      var b = (if (dir == Direction.Out) st.outHeads else st.inHeads)(v)
      while (b != null) { val k = visible(b); d += k; b = if (k == b.cap) b.next else null }
    }
    d
  }

  def stats: GartStats = {
    var baseEdges = 0L; var deltaEdges = 0L; var deltaBlocks = 0L
    var v = 0
    while (v < nVis) {
      baseEdges += baseHi(st.out, v) - baseLo(st.out, v)
      var b = if (current) st.outHeads(v) else null
      while (b != null) {
        val k = visible(b)
        if (k > 0) { deltaEdges += k; deltaBlocks += 1 }
        b = if (k == b.cap) b.next else null
      }
      v += 1
    }
    GartStats(version, st.out.version, baseEdges, deltaEdges, deltaBlocks)
  }

  private def baseLo(base: Csr, v: Int): Int = if (v < base.n) base.off(v) else 0
  private def baseHi(base: Csr, v: Int): Int =
    if (v >= base.n) 0
    else if (current) base.off(v + 1)
    else GartStore.firstAfter(base.cver, base.off(v), base.off(v + 1), version)

  /** How many leading slots of `b` this snapshot sees; a chain goes on past
    * `b` only when all `b.cap` slots are visible.
    */
  private def visible(b: Block): Int = {
    val u = GartStore.usedAcquire(b)
    var k = 0
    while (k < u && { val c = b.cver(k); c != 0 && c <= version }) k += 1
    k
  }

  def newCursor(dir: Direction.Value): NeighborCursor =
    if (dir == Direction.Out) new Cursor(st.out, st.outHeads) else new Cursor(st.in, st.inHeads)

  /** Walks the base range, then (for a current snapshot) the delta chain. */
  private final class Cursor(base: Csr, heads: Array[Block]) extends NeighborCursor {
    private var dst = base.dst
    private var elabel = base.elabel
    private var tsA = base.ts
    private var weightA = base.weight
    private var cver: Array[Int] = null // null on the base: no compare
    private var i = 0
    private var end = 0
    private var next: Block = _

    def seek(v: Int): NeighborCursor = {
      if (cver != null) { dst = base.dst; elabel = base.elabel; tsA = base.ts; weightA = base.weight; cver = null }
      if (v < nVis) {
        i = baseLo(base, v) - 1; end = baseHi(base, v)
        next = if (current) heads(v) else null
      } else { i = -1; end = 0; next = null }
      this
    }

    def moveNext(): Boolean = {
      i += 1
      if (i < end) cver == null || visibleHere() else nextBlock()
    }

    // versions never decrease along a chain: the first invisible slot ends it
    private def visibleHere(): Boolean = {
      val c = cver(i)
      if (c != 0 && c <= version) true else { end = 0; next = null; false }
    }

    private def nextBlock(): Boolean = {
      while (next != null) {
        val b = next
        dst = b.dst; elabel = b.elabel; tsA = b.ts; weightA = b.weight; cver = b.cver
        i = 0; end = GartStore.usedAcquire(b); next = b.next
        if (end > 0) return visibleHere()
      }
      false
    }

    def neighbor: Int = dst(i)
    def edgeLabelId: Int = elabel(i)
    def ts: Long = tsA(i)
    def weight: Double = weightA(i)
  }

  def vertexLabelId(v: Int): Int = st.vlabel(v)
  def vertexLabelName(id: Int): String = st.vLabelNames(id)
  def vertexLabelIdOf(name: String): Int = st.vLabelNames.indexOf(name)
  def edgeLabelName(id: Int): String = st.eLabelNames(id)
  def edgeLabelIdOf(name: String): Int = st.eLabelNames.indexOf(name)

  def vertexProp(v: Int, name: String): Any = name match {
    case "id" => st.extIds(v)
    case "label" => st.vLabelNames(st.vlabel(v))
    case _ =>
      // Vertex payloads are append-only maps (not MVCC-versioned; the
      // dynamic workloads only version topology, like GART's hot path).
      val m = st.vprops(v)
      if (m == null) null else m.getOrElse(name, null)
  }

  def internalId(extId: Long): Int = {
    val v = idMap.get(extId)
    if (v >= 0 && v < nVis) v else -1
  }
  def externalId(v: Int): Long = st.extIds(v)
  def verticesByLabel(labelId: Int): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    var v = 0
    while (v < nVis) { if (st.vlabel(v) == labelId) out += v; v += 1 }
    out.result()
  }
}

object GartStore {

  private val FirstBlockCap = 8
  private val MaxBlockCap = 256

  /** One delta block: parallel arrays + chain pointer. */
  private[storage] final class Block(val cap: Int) {
    val dst = new Array[Int](cap)
    val elabel = new Array[Byte](cap)
    val cver = new Array[Int](cap)
    val ts = new Array[Long](cap)
    val weight = new Array[Double](cap)
    var used = 0 // written with release by the writer, read with acquire by readers
    var next: Block = _
  }

  private val Used: VarHandle =
    MethodHandles.privateLookupIn(classOf[Block], MethodHandles.lookup())
      .findVarHandle(classOf[Block], "used", classOf[Int])

  private[storage] def usedAcquire(b: Block): Int = Used.getAcquire(b): Int

  /** A compacted base: vertex v's edges are `off(v) until off(v + 1)`, in
    * append order; it holds every edge committed up to `version`.
    */
  private[storage] final class Csr(val version: Int, val off: Array[Int], val dst: Array[Int],
                                   val elabel: Array[Byte], val cver: Array[Int],
                                   val ts: Array[Long], val weight: Array[Double]) {
    def n: Int = off.length - 1
    def edges: Int = off(n)
  }
  private[storage] object Csr {
    val Empty = new Csr(0, Array(0), Array.empty, Array.empty, Array.empty, Array.empty, Array.empty)
  }

  /** What one commit publishes; snapshots read only through it. */
  private[storage] final class State(
      val version: Int, val nV: Int, val extIds: Array[Long], val vlabel: Array[Byte],
      val vcver: Array[Int], val vprops: Array[Map[String, Any]],
      val vLabelNames: Vector[String], val eLabelNames: Vector[String],
      val out: Csr, val in: Csr, val outHeads: Array[Block], val inHeads: Array[Block])

  /** First index in `lo until hi` whose version is past `version`
    * (`cver` is non-decreasing there), or `hi`.
    */
  private[storage] def firstAfter(cver: Array[Int], lo: Int, hi: Int, version: Int): Int = {
    var l = lo; var h = hi
    while (l < h) { val mid = (l + h) >>> 1; if (cver(mid) <= version) l = mid + 1 else h = mid }
    l
  }

  /** Bulk-loads a [[PropertyGraph]] (with vertex properties) and commits
    * once (snapshot v1).
    */
  def fromPropertyGraph(g: PropertyGraph): GartStore = {
    val names = g.vertices.columns
    val propIdx = names.indices.filter(i => names(i) != "id" && names(i) != "label")
    val vRows = g.vertices.collect()
    val store = new GartStore(vRows.length)
    vRows.foreach { r =>
      store.addVertex(r.getLong(0), r.getString(1), propIdx.map(i => names(i) -> r.get(i)).toMap)
    }
    g.edges.select("src", "dst", "label", "ts", "weight").collect().foreach { r =>
      store.addEdge(r.getLong(0), r.getLong(1), r.getString(2), r.getLong(3), r.getDouble(4))
    }
    store.commit()
    store
  }
}
