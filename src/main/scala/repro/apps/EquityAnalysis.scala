package repro.apps

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.analytics.grape.{Fragment, KeyedChannel, Pie, PieContext, PieProgram}
import repro.graph.LocalCsr

/** Equity analysis (paper §8, Fig. 6b; Exp-6): find each company's real
  * controller — the shareholder whose *effective* (transitively multiplied)
  * share exceeds 51%.
  *
  * Two implementations, exactly as the paper contrasts them:
  *  - [[effectiveShares]]: the graph deployment — a modified label/weight
  *    propagation run as a PIE program on GRAPE ([[propagate]]), summing
  *    each level per (person, company) before the next hop, so intermediate
  *    size stays bounded by #pairs.
  *  - [[effectiveSharesSql]]: the SQL baseline — relational path
  *    enumeration via iterated self-joins with aggregation only at the end;
  *    path count multiplies per hop, which is why the production SQL
  *    baseline needed approximations and >1 h for a subset.
  */
object EquityAnalysis {

  /** Synthetic ownership DAG: persons own companies directly; companies own
    * lower-index companies, so cycles are impossible and depth is bounded.
    * Share weights per company sum to ~1. Person ids 1..nPersons; company
    * ids CompanyBase+0..nCompanies-1.
    */
  val CompanyBase: Long = 5000000000L

  def equityGraph(spark: SparkSession, nCompanies: Int, nPersons: Int,
                  seed: Long = 23): DataFrame = {
    import spark.implicits._
    spark.range(0, nCompanies.toLong).mapPartitions { it =>
      it.flatMap { c =>
        val rng = new java.util.Random(repro.util.Rng.mix(seed * 7919 + c))
        val nOwners = 2 + rng.nextInt(2)
        val cuts = Array.fill(nOwners)(0.2 + rng.nextDouble()).map(_.toDouble)
        val norm = cuts.sum
        (0 until nOwners).iterator.map { k =>
          // Companies with smaller index may own larger-index ones (DAG).
          // Corporate ownership is the common case (as in real registries),
          // which is what makes ownership *paths* multiply per hop while
          // (person, company) *pairs* stay bounded — the Exp-6 mechanism.
          val owner: Long =
            if (c > 20 && rng.nextDouble() < 0.72) CompanyBase + rng.nextInt(c.toInt)
            else rng.nextInt(nPersons).toLong + 1
          (owner, CompanyBase + c, cuts(k) / norm)
        }
      }
    }.toDF("owner", "company", "share")
  }

  /** Sparse (person → share) vectors, one per company, in CSR form: company
    * `v`'s entries are `off(v) until off(v + 1)`, persons by their key.
    */
  final class Shares(val off: Array[Int], val person: Array[Int], val share: Array[Double])

  /** The ownership graph as GRAPE reads it. The companies are the vertices
    * of `csr`; its edges run from owner company to owned company, with the
    * share in `weights` (CSR order). `direct` holds the direct holdings as
    * (company, person, share), a person keyed by its index in `persons`.
    */
  final class Ownership(val csr: LocalCsr, val weights: Array[Double],
                        val persons: Array[Long], val direct: KeyedChannel) {
    /** `eff` as (person, company, share) columns. */
    def columns(eff: Shares): (Array[Long], Array[Long], Array[Double]) = {
      val company = new Array[Long](eff.off(csr.n))
      (0 until csr.n).foreach(v => java.util.Arrays.fill(company, eff.off(v), eff.off(v + 1), csr.extIds(v)))
      (eff.person.take(company.length).map(p => persons(p)), company, eff.share.take(company.length))
    }
  }

  /** Builds the [[Ownership]] of (owner, company, share) rows. */
  def ownership(rows: Array[(Long, Long, Double)]): Ownership = {
    val (corp, held) = rows.partition(_._1 >= CompanyBase)
    val owners = corp.map(_._1)
    val csr = LocalCsr.build(owners, corp.map(_._2), rows.map(_._2))
    val weights = new Array[Double](corp.length) // the shares in CSR order
    val slot = LocalCsr.edgeSlots(csr, owners)
    corp.indices.foreach(i => weights(slot(i)) = corp(i)._3)
    val persons = held.map(_._1).distinct.sorted
    val direct = new KeyedChannel
    held.foreach { case (p, company, share) =>
      direct.send(csr.idMap.get(company), java.util.Arrays.binarySearch(persons, p), share)
    }
    new Ownership(csr, weights, persons, direct)
  }

  /** Effective shares as a PIE program on [[Pie.run]], over fragments of
    * `own.csr` weighted by `own.weights`. Level 0 is each company's direct
    * holdings. PEval sends level 1 along the out-edges, each entry times the
    * edge's share, as keyed messages (company, person) → share. IncEval
    * round r sums the level-r messages per (company, person), adds them to
    * the result, and sends level r + 1 while r < `maxDepth`: the same hop
    * cap as [[effectiveSharesSql]]. Nothing assumes owners have lower ids.
    * Returns the summed levels by company.
    */
  def propagate(frags: Array[Fragment], own: Ownership, maxDepth: Int = 12): Shares = {
    val state = new Array[EquityFragment](frags.length)
    Pie.run(frags, new PieProgram {
      def pEval(f: Fragment, ctx: PieContext): Unit = {
        state(f.fid) = new EquityFragment(f, own.persons.length, maxDepth)
        state(f.fid).start(own.direct, ctx)
      }
      def incEval(f: Fragment, ctx: PieContext): Unit = state(f.fid).step(ctx)
    }, maxRounds = maxDepth)
    fold(state.filter(_ != null).map(_.levels), frags(0).nGlobal, Array.fill(own.persons.length)(-1))
  }

  /** Sums `parts`' messages per (index, person) into one vector per index
    * below `n`: a counting sort by index, then one pass per index that keeps
    * each person's first entry and adds the rest into it, in place. `slot`
    * is scratch by person, -1 on entry and on return.
    */
  private[apps] def fold(parts: Array[KeyedChannel], n: Int, slot: Array[Int]): Shares = {
    val off = new Array[Int](n + 1)
    parts.foreach { ch =>
      var k = 0
      while (k < ch.messages) { off(ch.index(k) + 1) += 1; k += 1 }
    }
    (0 until n).foreach(i => off(i + 1) += off(i))
    val person = new Array[Int](off(n))
    val share = new Array[Double](off(n))
    val next = java.util.Arrays.copyOf(off, n)
    parts.foreach { ch =>
      var k = 0
      while (k < ch.messages) {
        val p = next(ch.index(k))
        person(p) = ch.key(k)
        share(p) = ch.value(k)
        next(ch.index(k)) = p + 1
        k += 1
      }
    }
    var (e, w) = (0, 0)
    var i = 0
    while (i < n) {
      val first = w
      while (e < off(i + 1)) {
        val s = slot(person(e))
        if (s >= 0) share(s) += share(e)
        else { slot(person(e)) = w; person(w) = person(e); share(w) = share(e); w += 1 }
        e += 1
      }
      (first until w).foreach(k => slot(person(k)) = -1)
      off(i + 1) = w
      i += 1
    }
    new Shares(off, person, share)
  }

  /** Graph path: collects the ownership rows, cuts them into one fragment
    * per core and runs [[propagate]] — the "modified label propagation" of
    * §8. Returns (person, company, share).
    */
  def effectiveShares(spark: SparkSession, owns: DataFrame, maxDepth: Int = 12): DataFrame = {
    import spark.implicits._
    val own = ownership(owns.select("owner", "company", "share").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))
    val frags = Fragment.partition(own.csr, Runtime.getRuntime.availableProcessors(), own.weights)
    val (person, company, share) = own.columns(propagate(frags, own, maxDepth))
    // the columns travel in the task closure, as primitive arrays
    spark.range(0, person.length, 1, spark.sparkContext.defaultParallelism)
      .map(i => (person(i.toInt), company(i.toInt), share(i.toInt)))
      .toDF("person", "company", "share")
  }

  /** SQL baseline: enumerate ownership paths (no intermediate aggregation),
    * sum products at the end. Semantically identical on DAGs up to
    * `maxDepth`, but intermediate cardinality is the number of *paths*.
    */
  def effectiveSharesSql(spark: SparkSession, owns: DataFrame, maxDepth: Int = 12): DataFrame = {
    owns.createOrReplaceTempView("owns")
    var paths = spark.sql(
      s"SELECT owner AS person, company, share FROM owns WHERE owner < $CompanyBase")
    var level = spark.sql(
      s"SELECT owner AS person, company, share FROM owns WHERE owner < $CompanyBase")
    var depth = 0
    var levelCount = level.count()
    while (depth < maxDepth && levelCount > 0) {
      level.createOrReplaceTempView("level")
      level = spark.sql(
        s"""SELECT l.person, o.company, l.share * o.share AS share
            FROM level l JOIN owns o ON l.company = o.owner""")
      level = level.localCheckpoint(true)
      levelCount = level.count()
      if (levelCount > 0) paths = paths.union(level)
      depth += 1
    }
    paths.groupBy("person", "company").agg(sum("share").as("share"))
  }

  /** Controllers: the shareholder holding > `cut` of a company. */
  def controllers(eff: DataFrame, cut: Double = 0.5): DataFrame =
    eff.filter(col("share") > cut)
      .select(col("company"), col("person").as("controller"), col("share"))
}

/** One fragment's side of [[EquityAnalysis.propagate]]: the levels it
  * received, and the sends of the next.
  */
private final class EquityFragment(f: Fragment, nPersons: Int, maxDepth: Int) {
  private val lo = f.globalOf(0)
  /** Every level's (company, person, share) by global id, level 0 first. */
  val levels = new KeyedChannel
  private val slot = Array.fill(nPersons)(-1)

  /** PEval: records this fragment's direct holdings and sends level 1. */
  def start(direct: KeyedChannel, ctx: PieContext): Unit = {
    ctx.markActive(f.innerCount)
    var k = 0
    while (k < direct.messages) {
      val i = direct.index(k) - lo
      if (i >= 0 && i < f.innerCount) hold(i, direct.key(k), direct.value(k), ctx)
      k += 1
    }
  }

  /** IncEval: sums the arriving level, records it, and sends the next. */
  def step(ctx: PieContext): Unit = {
    val level = EquityAnalysis.fold(Array.tabulate(ctx.nFrags)(ctx.inboundKeyed), f.innerCount, slot)
    var i = 0
    while (i < f.innerCount) {
      var k = level.off(i)
      if (k < level.off(i + 1)) ctx.markActive(1)
      while (k < level.off(i + 1)) { hold(i, level.person(k), level.share(k), ctx); k += 1 }
      i += 1
    }
  }

  /** Records that inner company `i` holds `share` of person `p` at this
    * round's level and, below `maxDepth`, offers it along `i`'s out-edges.
    */
  private def hold(i: Int, p: Int, share: Double, ctx: PieContext): Unit = {
    levels.send(lo + i, p, share)
    if (ctx.round < maxDepth) {
      var e = f.off(i)
      while (e < f.off(i + 1)) { ctx.sendKeyed(f.dst(e), p, share * f.weight(e)); e += 1 }
    }
  }
}
