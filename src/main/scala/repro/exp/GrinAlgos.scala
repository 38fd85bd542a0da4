package repro.exp

import repro.analytics.grape.GrapeEngine.Damping
import repro.grin.{Direction, GrinGraph}

/** Analytics written once against GRIN — the Exp-1a point: the same
  * implementation runs unchanged on Vineyard, GART and GraphAr.
  */
object GrinAlgos {

  /** PageRank through GRIN cursors (no backend-specific access). */
  def pageRank(g: GrinGraph, iters: Int): Array[Double] = {
    val n = g.vertexCount
    var rank = Array.fill(n)(1.0 / n)
    val deg = new Array[Int](n)
    var v = 0
    while (v < n) { deg(v) = g.degree(v, Direction.Out); v += 1 }
    var it = 0
    while (it < iters) {
      val next = Array.fill(n)((1 - Damping) / n)
      var dangling = 0.0
      val c = g.newCursor(Direction.Out)
      v = 0
      while (v < n) {
        if (deg(v) == 0) dangling += rank(v)
        else {
          val contrib = Damping * rank(v) / deg(v)
          val cur = c.seek(v)
          while (cur.moveNext()) next(cur.neighbor) += contrib
        }
        v += 1
      }
      val share = Damping * dangling / n
      v = 0
      while (v < n) { next(v) += share; v += 1 }
      rank = next
      it += 1
    }
    rank
  }

  /** Full out-edge scan; returns (sum, edges) — the storage read kernel. */
  def edgeScan(g: GrinGraph): (Long, Long) = {
    var acc = 0L
    var m = 0L
    val c = g.newCursor(Direction.Out)
    var v = 0
    val n = g.vertexCount
    while (v < n) {
      val cur = c.seek(v)
      while (cur.moveNext()) { acc += cur.neighbor; m += 1 }
      v += 1
    }
    (acc, m)
  }
}
