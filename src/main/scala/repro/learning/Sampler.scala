package repro.learning

import repro.grin.{Direction, GrinGraph}
import repro.util.{IntBuf, LongIntMap}

/** One layered mini-batch: level 0 = seeds, level L = deepest sampled hop.
  * Every level-l node also appears in level l+1 (`selfIdx`) so the SAGE
  * aggregator can combine self and neighborhood representations.
  */
final class Batch(
    val levels: Array[Array[Int]],
    val selfIdx: Array[Array[Int]],
    val nbrPtr: Array[Array[Int]],
    val nbrIdx: Array[Array[Int]],
    val feats: Array[Array[Float]],
    val labels: Array[Int],
)

/** Multi-hop fan-out neighbor sampler over GRIN (§7: "GraphLearn first
  * samples the graph data and extracts features"). The dataflow per batch
  * is hop → hop → feature collection, exactly the sink-terminated sampling
  * dataflow of the paper's Figure on asynchronous pipelining.
  */
final class NeighborSampler(g: GrinGraph, store: FeatureStore,
                            fanouts: Array[Int], seed: Long) {

  /** Samples the layered neighborhood of `seeds` and collects features.
    * `localPart`/`distributed` control the simulated feature network.
    */
  def sample(seeds: Array[Int], rngSeed: Long,
             localPart: Int = 0, distributed: Boolean = false): Batch = {
    val rng = new java.util.Random(seed * 1000003 + rngSeed)
    val L = fanouts.length
    val levels = new Array[Array[Int]](L + 1)
    val selfIdx = new Array[Array[Int]](L)
    val nbrPtr = new Array[Array[Int]](L)
    val nbrIdx = new Array[Array[Int]](L)
    levels(0) = seeds

    // primitive buffers, reused for every vertex and every level
    val nbrs = new IntBuf
    val nextNodes = new IntBuf
    val idxBuf = new IntBuf
    val cursor = g.newCursor(Direction.Out)
    var l = 0
    while (l < L) {
      val cur = levels(l)
      nextNodes.clear()
      idxBuf.clear()
      val index = new LongIntMap(cur.length * 2)
      def idxOf(v: Int): Int = {
        val j = index.get(v)
        if (j >= 0) j
        else { index.put(v, nextNodes.size); nextNodes.add(v); nextNodes.size - 1 }
      }

      val self = new Array[Int](cur.length)
      val ptr = new Array[Int](cur.length + 1)
      var i = 0
      while (i < cur.length) {
        val v = cur(i)
        self(i) = idxOf(v)
        // one adjacency pass, then sample from the materialized list
        nbrs.clear()
        val c = cursor.seek(v)
        while (c.moveNext()) nbrs.add(c.neighbor)
        val deg = nbrs.size
        if (deg > 0) {
          if (deg <= fanouts(l)) {
            var k = 0
            while (k < deg) { idxBuf.add(idxOf(nbrs(k))); k += 1 }
          } else {
            // sampling with replacement: unbiased enough at fanout << degree
            var k = 0
            while (k < fanouts(l)) { idxBuf.add(idxOf(nbrs(rng.nextInt(deg)))); k += 1 }
          }
        }
        ptr(i + 1) = idxBuf.size
        i += 1
      }
      levels(l + 1) = nextNodes.toArray
      selfIdx(l) = self
      nbrPtr(l) = ptr
      nbrIdx(l) = idxBuf.toArray
      l += 1
    }

    val feats = store.fetch(levels(L), localPart, distributed)
    val labels = seeds.map(store.labels)
    new Batch(levels, selfIdx, nbrPtr, nbrIdx, feats, labels)
  }
}
