package repro.query

import repro.grin.{Capability, Direction, GrinGraph, Values}
import repro.query.ir._

/** Bound graph values flowing through the OLTP interpreter. */
final case class VertexVal(v: Int)
final case class EdgeVal(other: Int, labelId: Int, ts: Long, weight: Double)

/** Query result in engine-neutral form (HiActor's output). */
final case class QueryResult(columns: Vector[String], rows: Vector[Vector[Any]])

/** HiActor — the high-concurrency OLTP engine (paper §5.3).
  *
  * Executes physical GraphIR tuple-at-a-time directly over a [[GrinGraph]]:
  * SCAN resolves through GRIN indices (external-id lookup, label index,
  * predicate pushdown — the FilterPushIntoMatch payoff turns a full scan
  * into an O(1) lookup), EXPAND walks adjacency cursors, and the relational
  * tail runs in-memory. Queries are small and latency-bound; concurrency
  * comes from [[HiActorRuntime]]'s actor-style worker pool.
  */
object HiActorExec {

  def execute(plan: IrPlan, g: GrinGraph, params: Map[String, Any] = Map.empty,
              indexPushdown: Boolean = true): QueryResult = {
    val slots = scala.collection.mutable.LinkedHashMap.empty[String, Int]
    def slotOf(a: String): Int = slots.getOrElseUpdate(a, slots.size)

    def bind(e: Expr): Expr = Expr.bind(e, params)

    // ---- expression evaluation over a tuple ----
    def eval(e: Expr, t: Array[Any]): Any = e match {
      case Lit(v) => v
      case Param(n) => params.getOrElse(n, throw new IllegalArgumentException(s"unbound $$$n"))
      case Ref(n) => t(slots(n))
      case Prop(a, p) => t(slots(a)) match {
        case VertexVal(v) => p match {
          case "id" => g.externalId(v)
          case "label" => g.vertexLabelName(g.vertexLabelId(v))
          case _ => g.vertexProp(v, p)
        }
        case EdgeVal(o, l, ts, w) => p match {
          case "ts" => ts
          case "weight" => w
          case "label" => g.edgeLabelName(l)
          case other => throw new IllegalArgumentException(s"unknown edge prop $other")
        }
        case null => null
        case scalar => if (p == "id") scalar
          else throw new IllegalArgumentException(s"$a is a scalar; cannot read .$p")
      }
      case Cmp(op, l, r) =>
        val lv = eval(l, t); val rv = eval(r, t)
        if (lv == null || rv == null) false
        else op match {
          case "=" => Values.equalTo(out(lv), out(rv))
          case "<>" => !Values.equalTo(out(lv), out(rv))
          case "<" => Values.compare(out(lv), out(rv)) < 0
          case "<=" => Values.compare(out(lv), out(rv)) <= 0
          case ">" => Values.compare(out(lv), out(rv)) > 0
          case ">=" => Values.compare(out(lv), out(rv)) >= 0
        }
      case And(l, r) => truthy(eval(l, t)) && truthy(eval(r, t))
      case Or(l, r) => truthy(eval(l, t)) || truthy(eval(r, t))
      case Not(x) => !truthy(eval(x, t))
      case InList(x, vals) =>
        val v = out(eval(x, t))
        v != null && vals.exists(c => Values.equalTo(v, c))
      case Arith(op, l, r) =>
        val lv = Values.asDouble(out(eval(l, t))); val rv = Values.asDouble(out(eval(r, t)))
        val d = op match {
          case "+" => lv + rv; case "-" => lv - rv
          case "*" => lv * rv; case "/" => lv / rv
        }
        if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong else d
    }
    def truthy(v: Any): Boolean = v match {
      case b: Boolean => b
      case null => false
      case _ => true
    }
    /** Graph values → external scalars (for comparison/output). */
    def out(v: Any): Any = v match {
      case VertexVal(x) => g.externalId(x)
      case EdgeVal(o, l, _, _) => g.edgeLabelName(l)
      case other => other
    }

    // ---- operator pipeline ----
    type Tuples = Iterator[Array[Any]]
    var pipeline: Tuples = Iterator.single(Array.empty[Any])
    var outputCols: Vector[String] = Vector.empty
    var started = false

    def merge(a: Array[Any], b: Array[Any]): Array[Any] = {
      val n = math.max(a.length, b.length)
      val t = java.util.Arrays.copyOf(a.asInstanceOf[Array[AnyRef]], n).asInstanceOf[Array[Any]]
      var i = 0
      while (i < b.length) { if (b(i) != null) t(i) = b(i); i += 1 }
      t
    }
    def expandDirs(dir: PDir.Value): Seq[Direction.Value] = dir match {
      case PDir.Out => Seq(Direction.Out)
      case PDir.In => Seq(Direction.In)
      case PDir.Both => Seq(Direction.Out, Direction.In)
    }

    /** SCAN source with GRIN index/pushdown resolution. */
    def scanSource(alias: String, label: Option[String], preds0: Vector[Expr]): Tuples = {
      val preds = preds0.map(bind)
      val labelId = label.map(g.vertexLabelIdOf).getOrElse(-1)
      val idx = slotOf(alias)

      def labelOk(v: Int): Boolean = label.isEmpty || g.vertexLabelId(v) == labelId

      // id-equality / id-list pushdown → GRIN external-id index
      val idEq = preds.collectFirst {
        case Cmp("=", Prop(`alias`, "id"), Lit(v)) => Vector(v)
        case Cmp("=", Lit(v), Prop(`alias`, "id")) => Vector(v)
        case InList(Prop(`alias`, "id"), vals) => vals.toVector
      }
      // prop-equality pushdown when the backend provides the trait
      val propEq = preds.collectFirst {
        case Cmp("=", Prop(`alias`, p), Lit(v)) if p != "id" => (p, v)
      }

      val base: Iterator[Int] = idEq match {
        case Some(ids) if indexPushdown =>
          ids.iterator.map(v => g.internalId(Values.asDouble(v).toLong)).filter(_ >= 0)
        case _ => propEq match {
          case Some((p, v)) if indexPushdown &&
              g.capabilities(Capability.PredicatePushdown) && label.nonEmpty =>
            g.scanVerticesWhere(labelId, p, "=", v)
          case _ =>
            if (label.nonEmpty) g.verticesByLabel(labelId).iterator
            else Iterator.range(0, g.vertexCount)
        }
      }
      base.filter(labelOk).map { v =>
        val t = new Array[Any](slots.size)
        t(idx) = VertexVal(v)
        t
      }.filter(t => preds.forall(p => truthy(eval(p, pad(t)))))
    }
    def pad(t: Array[Any]): Array[Any] =
      if (t.length >= slots.size) t
      else java.util.Arrays.copyOf(t.asInstanceOf[Array[AnyRef]], slots.size).asInstanceOf[Array[Any]]

    val ops = plan.ops
    ops.foreach {
      case ScanV(alias, label, preds) =>
        slotOf(alias) // register the slot at construction time
        val src = () => scanSource(alias, label, preds)
        if (!started) { pipeline = src(); started = true }
        else {
          val prev = pipeline
          pipeline = prev.flatMap(t => src().map(s => merge(t, s)))
        }
        outputCols :+= alias

      case ExpandE(from, elabel, dir, ea, pred) =>
        val fi = slots(from)
        val ei = slotOf(ea)
        val p = pred.map(bind)
        val elid = elabel.map(g.edgeLabelIdOf).getOrElse(-1)
        val hasPred = p.nonEmpty
        val prev = pipeline
        pipeline = prev.flatMap { t0 =>
          val t = pad(t0)
          val v = t(fi).asInstanceOf[VertexVal].v
          expandDirs(dir).iterator.flatMap { d =>
            val c = g.newCursor(d).seek(v)
            val buf = Vector.newBuilder[Array[Any]]
            while (c.moveNext()) {
              if (elid < 0 || c.edgeLabelId == elid) {
                val ev = EdgeVal(c.neighbor, c.edgeLabelId, c.ts, c.weight)
                val nt = t.clone()
                nt(ei) = ev
                if (!hasPred || truthy(eval(p.get, nt))) buf += nt
              }
            }
            buf.result()
          }
        }

      case GetV(ea, to, label, preds) =>
        val ei = slots(ea)
        val alreadyBound = slots.contains(to)
        val ti = slotOf(to)
        val ps = preds.map(bind)
        val labelId = label.map(g.vertexLabelIdOf).getOrElse(-1)
        val prev = pipeline
        pipeline = prev.flatMap { t0 =>
          val t = pad(t0)
          val nbr = t(ei).asInstanceOf[EdgeVal].other
          if (alreadyBound && t(ti) != null) {
            if (t(ti).asInstanceOf[VertexVal].v == nbr) Iterator.single(t) else Iterator.empty
          } else if (label.nonEmpty && g.vertexLabelId(nbr) != labelId) Iterator.empty
          else {
            val nt = t.clone()
            nt(ti) = VertexVal(nbr)
            if (ps.forall(x => truthy(eval(x, nt)))) Iterator.single(nt) else Iterator.empty
          }
        }
        if (!alreadyBound) outputCols :+= to

      case ExpandV(from, elabel, dir, to, toLabel, ep, tp) =>
        val fi = slots(from)
        val alreadyBound = slots.contains(to)
        val ti = slotOf(to)
        val elid = elabel.map(g.edgeLabelIdOf).getOrElse(-1)
        val checkToLabel = toLabel.nonEmpty
        val tlid = toLabel.map(g.vertexLabelIdOf).getOrElse(-1)
        val eps = ep.map(bind)
        val epAlias = eps.flatMap(p => Expr.refs(p).headOption)
        val epSlot = epAlias.map(slotOf).getOrElse(-1)
        val epPred = eps.orNull
        val tps = tp.map(bind)
        val hasTps = tps.nonEmpty
        val prev = pipeline
        pipeline = prev.flatMap { t0 =>
          val t = pad(t0)
          val v = t(fi).asInstanceOf[VertexVal].v
          val boundTo = if (alreadyBound && t(ti) != null)
            t(ti).asInstanceOf[VertexVal].v else -1
          expandDirs(dir).iterator.flatMap { d =>
            val c = g.newCursor(d).seek(v)
            val buf = Vector.newBuilder[Array[Any]]
            while (c.moveNext()) {
              val nbr = c.neighbor
              // the fused operator's hot loop: no edge binding, one clone
              if ((elid < 0 || c.edgeLabelId == elid) &&
                  (boundTo < 0 || nbr == boundTo) &&
                  (!checkToLabel || g.vertexLabelId(nbr) == tlid)) {
                val nt = t.clone()
                if (boundTo < 0) nt(ti) = VertexVal(nbr)
                if (epSlot >= 0) nt(epSlot) = EdgeVal(nbr, c.edgeLabelId, c.ts, c.weight)
                val pass = (epPred == null || truthy(eval(epPred, nt))) &&
                  (!hasTps || tps.forall(x => truthy(eval(x, nt))))
                if (pass) buf += nt
              }
            }
            buf.result()
          }
        }
        if (!alreadyBound) outputCols :+= to

      case SelectOp(pred) =>
        val p = bind(pred)
        val prev = pipeline
        pipeline = prev.filter(t => truthy(eval(p, pad(t))))

      case ProjectOp(items, distinct) =>
        val its = items.map { case (e, a) => (bind(e), a) }
        // Materialize eagerly: the slot map is reset below, and lazy upstream
        // stages resolve alias names against it at pull time.
        val rows = pipeline.map { t0 =>
          val t = pad(t0)
          its.map { case (e, _) => eval(e, t) }.toArray[Any]
        }.toVector
        val dd = if (distinct) {
          val seen = scala.collection.mutable.LinkedHashSet.empty[Vector[Any]]
          rows.filter(r => seen.add(r.toVector))
        } else rows
        slots.clear()
        its.foreach { case (_, a) => slotOf(a) }
        pipeline = dd.iterator
        outputCols = its.map(_._2)

      case AggregateOp(keys, aggs) =>
        val ks = keys.map { case (e, a) => (bind(e), a) }
        val as = aggs.map(c => c.copy(arg = c.arg.map(bind)))
        val groups = scala.collection.mutable.LinkedHashMap.empty[Vector[Any], Array[AggState]]
        pipeline.foreach { t0 =>
          val t = pad(t0)
          val key = ks.map { case (e, _) => eval(e, t) }.toVector
          val st = groups.getOrElseUpdate(key, as.map(c => new AggState(c.fn, c.distinct)).toArray)
          var i = 0
          while (i < as.length) {
            st(i).add(as(i).arg.map(e => out(eval(e, t))).getOrElse(1L))
            i += 1
          }
        }
        // global aggregates over empty input still yield one row
        if (ks.isEmpty && groups.isEmpty)
          groups(Vector.empty) = as.map(c => new AggState(c.fn, c.distinct)).toArray
        slots.clear()
        ks.foreach { case (_, a) => slotOf(a) }
        as.foreach(c => slotOf(c.alias))
        pipeline = groups.iterator.map { case (k, st) =>
          (k ++ st.map(_.result)).toArray[Any]
        }
        outputCols = ks.map(_._2) ++ as.map(_.alias)

      case OrderByOp(keys) =>
        val ksB = keys.map { case (e, asc) => (bind(e), asc) }
        val rows = pipeline.map(pad).toVector
        pipeline = rows.sortWith { (a, b) =>
          var i = 0
          var res = false
          var decided = false
          while (i < ksB.length && !decided) {
            val (e, asc) = ksB(i)
            val c = Values.compare(out(eval(e, a)), out(eval(e, b)))
            if (c != 0) { res = if (asc) c < 0 else c > 0; decided = true }
            i += 1
          }
          res
        }.iterator

      case LimitOp(n) =>
        pipeline = pipeline.take(n)

      case m: MatchOp =>
        throw new IllegalStateException(s"logical MatchOp reached HiActor: run Optimizer first")
    }

    val rows = pipeline.map { t0 =>
      val t = pad(t0)
      outputCols.map(c => out(t(slots(c)))).toVector
    }.toVector
    QueryResult(outputCols, rows)
  }

  /** Incremental aggregate state shared with the interpreter. */
  final class AggState(fn: String, distinct: Boolean) {
    private var cnt = 0L
    private var sum = 0.0
    private var minV: Any = _
    private var maxV: Any = _
    private val seen = if (distinct) scala.collection.mutable.HashSet.empty[Any] else null
    def add(v: Any): Unit = {
      if (v == null) return
      if (distinct && !seen.add(v)) return
      cnt += 1
      if (Values.isNumeric(v)) sum += Values.asDouble(v)
      if (minV == null || Values.compare(v, minV) < 0) minV = v
      if (maxV == null || Values.compare(v, maxV) > 0) maxV = v
    }
    def result: Any = fn match {
      case "count" => cnt
      case "sum" => if (sum == math.rint(sum) && math.abs(sum) < 1e15) sum.toLong else sum
      case "avg" => if (cnt == 0) null else sum / cnt
      case "min" => minV
      case "max" => maxV
      case other => throw new IllegalArgumentException(s"unknown aggregate $other")
    }
  }
}
