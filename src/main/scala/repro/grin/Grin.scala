package repro.grin

/** GRIN — the unified Graph Retrieval INterface (paper §4.1).
  *
  * The paper defines GRIN in C with handles + APIs grouped into six trait
  * categories (topology, property, partition, index, predicate, common);
  * backends implement only the traits they can support, and engines declare
  * which traits they require. The Scala mapping:
  *
  *  - handles → dense `Int` vertex ids and [[NeighborCursor]]s;
  *  - trait categories → methods on [[GrinGraph]], with optional traits
  *    gated by [[Capability]] flags (the "common" category's capability
  *    negotiation);
  *  - array-like vs iterator-based adjacency access → `neighborAt`
  *    (capability [[Capability.ArrayLikeAdjacency]]) vs `newCursor`
  *    (always available).
  *
  * Every engine in this repo — HiActor OLTP interpreter, the GNN sampler,
  * local analytics evaluation, the storage benches — is written against
  * this interface only, which is what makes the Exp-1 backend matrix a
  * one-implementation-per-application exercise.
  */
object Direction extends Enumeration {
  val Out, In = Value
}

object Capability extends Enumeration {
  /** O(1) indexed access to the i-th neighbor (CSR-style backends). */
  val ArrayLikeAdjacency: Value = Value
  /** Cursor/iterator adjacency traversal (all backends). */
  val IteratorAdjacency: Value = Value
  /** Vertex property access by name. */
  val VertexProperty: Value = Value
  /** Fast-path edge properties (ts/weight) on the cursor. */
  val EdgeProperty: Value = Value
  /** Secondary index: vertices by label. */
  val LabelIndex: Value = Value
  /** Secondary index: external id → internal id. */
  val ExternalIdIndex: Value = Value
  /** Storage-level predicate pushdown on vertex scans. */
  val PredicatePushdown: Value = Value
  /** Reads are consistent MVCC snapshots (dynamic stores). */
  val VersionedSnapshot: Value = Value
}

/** Reusable, allocation-free adjacency cursor (GRIN's iterator trait).
  *
  * Usage: `val c = g.newCursor(Out); c.seek(v); while (c.moveNext()) ...`.
  * Exposes the fast-path edge properties directly so hot loops never box.
  */
abstract class NeighborCursor {
  /** Positions the cursor at vertex `v`; returns `this` for chaining. */
  def seek(v: Int): NeighborCursor
  def moveNext(): Boolean
  def neighbor: Int
  def edgeLabelId: Int
  def ts: Long
  def weight: Double
}

/** The unified graph handle engines program against. */
trait GrinGraph {
  def capabilities: Set[Capability.Value]

  // ---- topology ----
  def vertexCount: Int
  def edgeCount: Long
  def newCursor(dir: Direction.Value): NeighborCursor
  /** Degree; dynamic stores may answer in O(degree). */
  def degree(v: Int, dir: Direction.Value): Int = {
    val c = newCursor(dir).seek(v)
    var d = 0
    while (c.moveNext()) d += 1
    d
  }
  /** Array-like access; only when [[Capability.ArrayLikeAdjacency]]. */
  def neighborAt(v: Int, dir: Direction.Value, i: Int): Int =
    throw new UnsupportedOperationException("ArrayLikeAdjacency not provided by this backend")

  // ---- property ----
  def vertexLabelId(v: Int): Int
  def vertexLabelName(id: Int): String
  def vertexLabelIdOf(name: String): Int
  def edgeLabelName(id: Int): String
  def edgeLabelIdOf(name: String): Int
  def vertexProp(v: Int, name: String): Any

  // ---- index ----
  def internalId(extId: Long): Int
  def externalId(v: Int): Long
  def verticesByLabel(labelId: Int): Array[Int]

  // ---- predicate (optional pushdown; default = scan + filter) ----
  def scanVerticesWhere(labelId: Int, prop: String, op: String, value: Any): Iterator[Int] = {
    val cmp = PredicateOps.compile(op, value)
    verticesByLabel(labelId).iterator.filter(v => cmp(vertexProp(v, prop)))
  }
}

/** Shared predicate semantics for the pushdown trait: the engines' own
  * comparison rule ([[Values]]), so a pushed-down predicate selects exactly
  * the vertices a scan-and-filter would.
  */
object PredicateOps {
  def compile(op: String, value: Any): Any => Boolean = {
    def cmp(test: Int => Boolean): Any => Boolean =
      x => x != null && value != null && test(Values.compare(x, value))
    op match {
      case "=" => Values.equalTo(_, value)
      case "<>" => x => x != null && value != null && !Values.equalTo(x, value)
      case "<" => cmp(_ < 0)
      case "<=" => cmp(_ <= 0)
      case ">" => cmp(_ > 0)
      case ">=" => cmp(_ >= 0)
      case other => throw new IllegalArgumentException(s"unknown predicate op: $other")
    }
  }
}

/** Numeric/string coercion shared by the engines and the predicate trait,
  * so HiActor, Gaia, the DuckDB oracle and storage pushdown agree on
  * comparison semantics.
  */
object Values {
  def asDouble(x: Any): Double = x match {
    case null => Double.NaN
    case l: Long => l.toDouble
    case i: Int => i.toDouble
    case d: Double => d
    case f: Float => f.toDouble
    case b: Boolean => if (b) 1.0 else 0.0
    case s: String => s.toDouble
    case other => other.toString.toDouble
  }

  def isNumeric(x: Any): Boolean = x match {
    case _: Long | _: Int | _: Double | _: Float => true
    case _ => false
  }

  def compare(l: Any, r: Any): Int =
    if (isNumeric(l) || isNumeric(r)) java.lang.Double.compare(asDouble(l), asDouble(r))
    else String.valueOf(l).compareTo(String.valueOf(r))

  def equalTo(l: Any, r: Any): Boolean =
    if (l == null || r == null) false
    else if (isNumeric(l) && isNumeric(r)) asDouble(l) == asDouble(r)
    else if (isNumeric(l) || isNumeric(r)) {
      try asDouble(l) == asDouble(r) catch { case _: NumberFormatException => false }
    } else l.toString == r.toString
}
