package repro.query.ir

/** Expression AST shared by all GraphIR front-ends and engines (§5.1's
  * data model D: primitives + graph-associated Vertex/Edge values).
  */
sealed trait Expr
/** `alias.prop` — property of a bound vertex/edge. */
final case class Prop(alias: String, name: String) extends Expr
/** Bare identifier referencing a bound alias or projected column. */
final case class Ref(name: String) extends Expr
final case class Lit(v: Any) extends Expr
/** Stored-procedure parameter `$name` (bound at execution time). */
final case class Param(name: String) extends Expr
/** Comparison: one of = <> < <= > >= */
final case class Cmp(op: String, l: Expr, r: Expr) extends Expr
final case class And(l: Expr, r: Expr) extends Expr
final case class Or(l: Expr, r: Expr) extends Expr
final case class Not(e: Expr) extends Expr
final case class InList(e: Expr, vals: Seq[Any]) extends Expr
/** Arithmetic: one of + - * / */
final case class Arith(op: String, l: Expr, r: Expr) extends Expr

object Expr {

  /** All alias/column names an expression references. */
  def refs(e: Expr): Set[String] = e match {
    case Prop(a, _) => Set(a)
    case Ref(n) => Set(n)
    case Cmp(_, l, r) => refs(l) ++ refs(r)
    case And(l, r) => refs(l) ++ refs(r)
    case Or(l, r) => refs(l) ++ refs(r)
    case Not(x) => refs(x)
    case InList(x, _) => refs(x)
    case Arith(_, l, r) => refs(l) ++ refs(r)
    case _ => Set.empty
  }

  /** All (alias, prop) pairs referenced — for on-demand property binding. */
  def props(e: Expr): Set[(String, String)] = e match {
    case Prop(a, p) => Set((a, p))
    case Cmp(_, l, r) => props(l) ++ props(r)
    case And(l, r) => props(l) ++ props(r)
    case Or(l, r) => props(l) ++ props(r)
    case Not(x) => props(x)
    case InList(x, _) => props(x)
    case Arith(_, l, r) => props(l) ++ props(r)
    case _ => Set.empty
  }

  /** Splits a conjunction into its conjuncts. */
  def conjuncts(e: Expr): Vector[Expr] = e match {
    case And(l, r) => conjuncts(l) ++ conjuncts(r)
    case other => Vector(other)
  }

  def conjoin(es: Seq[Expr]): Option[Expr] = es.reduceOption(And.apply)

  /** Substitutes `$param`s with literal values. */
  def bind(e: Expr, params: Map[String, Any]): Expr = e match {
    case Param(n) => Lit(params.getOrElse(n,
      throw new IllegalArgumentException(s"unbound parameter $$$n")))
    case Cmp(op, l, r) => Cmp(op, bind(l, params), bind(r, params))
    case And(l, r) => And(bind(l, params), bind(r, params))
    case Or(l, r) => Or(bind(l, params), bind(r, params))
    case Not(x) => Not(bind(x, params))
    case InList(x, vs) => InList(bind(x, params), vs.map {
      case ParamValue(n) => params.getOrElse(n, throw new IllegalArgumentException(s"unbound $$$n"))
      case v => v
    })
    case Arith(op, l, r) => Arith(op, bind(l, params), bind(r, params))
    case other => other
  }

  /** Renames alias references (used by plan normalization in tests). */
  def renameAliases(e: Expr, m: Map[String, String]): Expr = e match {
    case Prop(a, p) => Prop(m.getOrElse(a, a), p)
    case Ref(n) => Ref(m.getOrElse(n, n))
    case Cmp(op, l, r) => Cmp(op, renameAliases(l, m), renameAliases(r, m))
    case And(l, r) => And(renameAliases(l, m), renameAliases(r, m))
    case Or(l, r) => Or(renameAliases(l, m), renameAliases(r, m))
    case Not(x) => Not(renameAliases(x, m))
    case InList(x, vs) => InList(renameAliases(x, m), vs)
    case Arith(op, l, r) => Arith(op, renameAliases(l, m), renameAliases(r, m))
    case other => other
  }
}

/** Marker for a parameter appearing inside an IN-list. */
final case class ParamValue(name: String)
