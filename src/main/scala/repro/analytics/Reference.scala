package repro.analytics

import repro.graph.LocalCsr

/** Sequential golden implementations used to verify every engine
  * (GRAPE-sim, the four baseline sims, the GRIN algorithms) — independent code paths,
  * no shared machinery with the engines under test.
  */
object Reference {

  def pageRank(csr: LocalCsr, iters: Int): Array[Double] = {
    val d = 0.85 // its own literal, not the engines' constant
    val n = csr.n
    var rank = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val next = Array.fill(n)((1 - d) / n)
      var dangling = 0.0
      var v = 0
      while (v < n) {
        val deg = csr.outDegree(v)
        if (deg == 0) dangling += rank(v)
        else {
          val c = d * rank(v) / deg
          var e = csr.outOff(v)
          while (e < csr.outOff(v + 1)) { next(csr.outDst(e)) += c; e += 1 }
        }
        v += 1
      }
      val share = d * dangling / n
      v = 0
      while (v < n) { next(v) += share; v += 1 }
      rank = next
      it += 1
    }
    rank
  }

  def bfs(csr: LocalCsr, source: Int): Array[Int] = {
    val dist = Array.fill(csr.n)(-1)
    dist(source) = 0
    val q = new java.util.ArrayDeque[Integer]()
    q.add(source)
    while (!q.isEmpty) {
      val v = q.poll()
      var e = csr.outOff(v)
      while (e < csr.outOff(v + 1)) {
        val u = csr.outDst(e)
        if (dist(u) < 0) { dist(u) = dist(v) + 1; q.add(u) }
        e += 1
      }
    }
    dist
  }

  /** Undirected connected components (follows out+in edges). */
  def wcc(csr: LocalCsr): Array[Int] = {
    val comp = Array.fill(csr.n)(-1)
    var v = 0
    while (v < csr.n) {
      if (comp(v) < 0) {
        val stack = new java.util.ArrayDeque[Integer]()
        stack.push(v); comp(v) = v
        while (!stack.isEmpty) {
          val x = stack.pop()
          var e = csr.outOff(x)
          while (e < csr.outOff(x + 1)) {
            val u = csr.outDst(e)
            if (comp(u) < 0) { comp(u) = v; stack.push(u) }
            e += 1
          }
          e = csr.inOff(x)
          while (e < csr.inOff(x + 1)) {
            val u = csr.inSrc(e)
            if (comp(u) < 0) { comp(u) = v; stack.push(u) }
            e += 1
          }
        }
      }
      v += 1
    }
    comp
  }

  /** Dijkstra over per-edge weights aligned to CSR out-edge order. */
  def sssp(csr: LocalCsr, weights: Array[Double], source: Int): Array[Double] = {
    val dist = Array.fill(csr.n)(Double.PositiveInfinity)
    dist(source) = 0.0
    val pq = new java.util.PriorityQueue[(Double, Int)](11,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(a._1, b._1))
    pq.add((0.0, source))
    while (!pq.isEmpty) {
      val (dv, v) = pq.poll()
      if (dv <= dist(v)) {
        var e = csr.outOff(v)
        while (e < csr.outOff(v + 1)) {
          val u = csr.outDst(e)
          val nd = dv + weights(e)
          if (nd < dist(u)) { dist(u) = nd; pq.add((nd, u)) }
          e += 1
        }
      }
    }
    dist
  }

  /** Coreness-≥k flags by sequential peeling on a symmetrized graph. */
  def kCore(csr: LocalCsr, k: Int): Array[Boolean] = {
    val deg = Array.tabulate(csr.n)(csr.outDegree)
    val alive = Array.fill(csr.n)(true)
    val q = new java.util.ArrayDeque[Integer]()
    (0 until csr.n).foreach(v => if (deg(v) < k) { alive(v) = false; q.add(v) })
    while (!q.isEmpty) {
      val v = q.poll()
      var e = csr.outOff(v)
      while (e < csr.outOff(v + 1)) {
        val u = csr.outDst(e)
        if (alive(u)) {
          deg(u) -= 1
          if (deg(u) < k) { alive(u) = false; q.add(u) }
        }
        e += 1
      }
    }
    alive
  }
}
