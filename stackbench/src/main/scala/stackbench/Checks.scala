package stackbench

import repro.learning.Batch

/** An edge list over dense ids 0..n-1, with the benchmark's own adjacency.
  * Built without the program's graph code, so the oracles below share no
  * code path with the engines they check.
  */
final class EdgeList(val extIds: Array[Long], val src: Array[Int], val dst: Array[Int]) {
  val n: Int = extIds.length
  def m: Int = src.length

  /** Out-adjacency by counting sort. */
  lazy val (off, adj): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1)
    src.foreach(s => off(s + 1) += 1)
    var i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val pos = java.util.Arrays.copyOf(off, n)
    val adj = new Array[Int](m)
    i = 0
    while (i < m) { adj(pos(src(i))) = dst(i); pos(src(i)) += 1; i += 1 }
    (off, adj)
  }

  def outDegree(v: Int): Int = off(v + 1) - off(v)

  def hasEdge(u: Int, v: Int): Boolean = {
    var i = off(u)
    while (i < off(u + 1)) { if (adj(i) == v) return true; i += 1 }
    false
  }

  /** Number of distinct (src, dst) pairs. */
  def distinctEdges: Long = {
    val keys = Array.tabulate(m)(i => src(i).toLong * n + dst(i))
    java.util.Arrays.sort(keys)
    var c = 0L
    var i = 0
    while (i < m) { if (i == 0 || keys(i) != keys(i - 1)) c += 1; i += 1 }
    c
  }

  def denseOf(ext: Long): Int = java.util.Arrays.binarySearch(extIds, ext)
}

object EdgeList {
  /** Densifies external (src, dst) pairs: dense id = rank among sorted ids. */
  def apply(srcExt: Array[Long], dstExt: Array[Long], extra: Array[Long] = Array.empty): EdgeList = {
    val ids = (srcExt ++ dstExt ++ extra).distinct.sorted
    val el = new EdgeList(ids, new Array[Int](srcExt.length), new Array[Int](dstExt.length))
    var i = 0
    while (i < srcExt.length) {
      el.src(i) = java.util.Arrays.binarySearch(ids, srcExt(i))
      el.dst(i) = java.util.Arrays.binarySearch(ids, dstExt(i))
      i += 1
    }
    el
  }
}

/** The benchmark's oracles and output checks. Each check returns the
  * problems it found; an empty list means the output passed.
  */
object Checks {

  /** Power iteration over the edge list (dangling mass spread evenly). */
  def pageRank(g: EdgeList, iters: Int, d: Double = 0.85): Array[Double] = {
    val n = g.n
    val deg = new Array[Int](n)
    g.src.foreach(s => deg(s) += 1)
    var rank = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val next = new Array[Double](n)
      var e = 0
      while (e < g.m) { next(g.dst(e)) += d * rank(g.src(e)) / deg(g.src(e)); e += 1 }
      var dangling = 0.0
      var v = 0
      while (v < n) { if (deg(v) == 0) dangling += rank(v); v += 1 }
      val base = (1 - d) / n + d * dangling / n
      v = 0
      while (v < n) { next(v) += base; v += 1 }
      rank = next
      it += 1
    }
    rank
  }

  /** Queue BFS over the benchmark's own adjacency. */
  def bfs(g: EdgeList, source: Int): Array[Int] = {
    val dist = Array.fill(g.n)(-1)
    val queue = new Array[Int](g.n)
    var head = 0
    var tail = 0
    dist(source) = 0
    queue(tail) = source; tail += 1
    while (head < tail) {
      val u = queue(head); head += 1
      var i = g.off(u)
      while (i < g.off(u + 1)) {
        val v = g.adj(i)
        if (dist(v) < 0) { dist(v) = dist(u) + 1; queue(tail) = v; tail += 1 }
        i += 1
      }
    }
    dist
  }

  def pageRankMatches(what: String, got: Array[Double], want: Array[Double],
                      tol: Double = 1e-9): Seq[String] = {
    if (got.length != want.length) return Seq(s"$what: ${got.length} ranks, expected ${want.length}")
    var worst = 0.0
    var at = -1
    var i = 0
    while (i < got.length) {
      val d = math.abs(got(i) - want(i))
      if (!(d <= worst)) { worst = d; at = i }
      i += 1
    }
    val sum = got.sum
    (if (worst > tol) Seq(f"$what: rank of vertex $at off by $worst%.3e (tolerance $tol%.0e)") else Nil) ++
      (if (!(math.abs(sum - 1.0) <= tol)) Seq(f"$what: ranks sum to $sum%.12f, not 1") else Nil)
  }

  /** Distances equal the oracle's, and every edge u→v out of a reached u
    * has 0 <= dist(v) <= dist(u) + 1.
    */
  def bfsMatches(what: String, g: EdgeList, source: Int, got: Array[Int], want: Array[Int]): Seq[String] = {
    if (got.length != g.n) return Seq(s"$what: ${got.length} distances for ${g.n} vertices")
    val out = Seq.newBuilder[String]
    if (got(source) != 0) out += s"$what: source $source has distance ${got(source)}"
    val firstDiff = got.indices.find(i => got(i) != want(i))
    firstDiff.foreach(i => out += s"$what: vertex $i at distance ${got(i)}, expected ${want(i)}")
    var e = 0
    var bad = -1
    while (e < g.m && bad < 0) {
      val du = got(g.src(e)); val dv = got(g.dst(e))
      if (du >= 0 && (dv < 0 || dv > du + 1)) bad = e
      e += 1
    }
    if (bad >= 0) out += s"$what: edge ${g.src(bad)}->${g.dst(bad)} breaks dist(v) <= dist(u)+1"
    out.result()
  }

  def countMatches(what: String, got: Long, want: Long): Seq[String] =
    if (got == want) Nil else Seq(s"$what: counted $got, expected $want")

  /** Row multisets agree; rows are already rendered as canonical strings. */
  def rowsMatch(what: String, got: Seq[String], want: Seq[String]): Seq[String] = {
    val g = got.sorted; val w = want.sorted
    if (g == w) Nil
    else {
      val missing = w.diff(g).take(2); val extra = g.diff(w).take(2)
      Seq(s"$what: ${g.size} rows vs ${w.size} expected; missing ${missing.mkString("[", "; ", "]")}" +
        s" extra ${extra.mkString("[", "; ", "]")}")
    }
  }

  /** Canonical text of one result value (doubles to 6 decimals). */
  def canon(v: Any): String = v match {
    case null => "null"
    case d: Double => f"$d%.6f"
    case d: java.lang.Double => f"${d.doubleValue}%.6f"
    case f: Float => f"${f.toDouble}%.6f"
    case x => x.toString
  }

  /** A sampled batch: each level's self index names the same vertex one
    * level down, each neighbour index names a true out-neighbour, and no
    * vertex has more sampled neighbours than the fan-out allows.
    */
  def batchValid(what: String, b: Batch, fanouts: Array[Int], isEdge: (Int, Int) => Boolean): Seq[String] = {
    val out = Seq.newBuilder[String]
    var l = 0
    while (l < fanouts.length) {
      val cur = b.levels(l); val next = b.levels(l + 1)
      var i = 0
      while (i < cur.length) {
        if (next(b.selfIdx(l)(i)) != cur(i)) out += s"$what: level $l self index of vertex ${cur(i)} is wrong"
        val lo = b.nbrPtr(l)(i); val hi = b.nbrPtr(l)(i + 1)
        if (hi - lo > fanouts(l)) out += s"$what: vertex ${cur(i)} has ${hi - lo} neighbours, fan-out ${fanouts(l)}"
        var j = lo
        while (j < hi) {
          val u = next(b.nbrIdx(l)(j))
          if (!isEdge(cur(i), u)) out += s"$what: level $l names $u as a neighbour of ${cur(i)}"
          j += 1
        }
        i += 1
      }
      l += 1
    }
    out.result().take(5)
  }
}
