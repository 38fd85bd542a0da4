package repro.learning

import repro.grin.{Direction, GrinGraph}

/** NCN — Neural Common Neighbor sampling for link prediction (§8, social
  * relation prediction): for each candidate edge (u, v), extract their
  * first-order common neighbors, then sample the k-hop neighborhood around
  * each common neighbor (Fig. 6c). Training scores a pair by the dot
  * product of SAGE embeddings of u, v and pooled common neighbors, with
  * logistic loss on positive (existing) vs negative (random) pairs.
  */
final class NcnSampler(g: GrinGraph, store: FeatureStore,
                       fanouts: Array[Int], seed: Long) {

  private val inner = new NeighborSampler(g, store, fanouts, seed)

  /** Common neighbors of (u, v) following out-edges, capped at `maxCn`. */
  def commonNeighbors(u: Int, v: Int, maxCn: Int = 8): Array[Int] = {
    val su = scala.collection.mutable.HashSet.empty[Int]
    val c1 = g.newCursor(Direction.Out).seek(u)
    while (c1.moveNext()) su += c1.neighbor
    val out = new scala.collection.mutable.ArrayBuffer[Int]()
    val c2 = g.newCursor(Direction.Out).seek(v)
    while (c2.moveNext() && out.length < maxCn) {
      if (su.contains(c2.neighbor)) out += c2.neighbor
    }
    out.toArray
  }

  /** Builds one NCN batch: (u, v, cn*) seeds and their layered sample. The
    * per-pair seed layout is recorded so the trainer can pool embeddings.
    */
  final case class NcnBatch(batch: Batch, pairPtr: Array[Int],
                            labels01: Array[Int], pairs: Array[(Int, Int)])

  def sampleBatch(pairs: Array[(Int, Int)], labels01: Array[Int], rngSeed: Long,
                  localPart: Int = 0, distributed: Boolean = false): NcnBatch = {
    val seeds = new scala.collection.mutable.ArrayBuffer[Int]()
    val ptr = new Array[Int](pairs.length + 1)
    var i = 0
    while (i < pairs.length) {
      val (u, v) = pairs(i)
      seeds += u
      seeds += v
      commonNeighbors(u, v).foreach(seeds += _)
      ptr(i + 1) = seeds.length
      i += 1
    }
    val b = inner.sample(seeds.toArray, rngSeed, localPart, distributed)
    NcnBatch(b, ptr, labels01, pairs)
  }
}

/** Link-prediction head: logistic score on pooled SAGE embeddings. */
final class NcnTrainer(encoder: Sage) {

  /** Scores a batch's pairs and returns their mean logistic loss and
    * #correct. Forward-only: the encoder and the head are not updated
    * (frozen features for the link head) — NCN's heavy cost is sampling,
    * which is what Exp-7 measures.
    */
  def trainStep(nb: NcnSampler#NcnBatch): (Double, Int) = {
    val f = encoder.forward(nb.batch)
    val emb = f.embeds(0)
    val h = encoder.hidden
    var loss = 0.0
    var correct = 0
    var i = 0
    while (i < nb.pairs.length) {
      val lo = nb.pairPtr(i); val hi = nb.pairPtr(i + 1)
      val eu = emb(lo); val ev = emb(lo + 1)
      // pool common-neighbor embeddings (NCN's CN term)
      val pool = new Array[Float](h)
      var j = lo + 2
      while (j < hi) {
        var k = 0
        while (k < h) { pool(k) += emb(j)(k); k += 1 }
        j += 1
      }
      var score = 0.0
      var k = 0
      while (k < h) { score += eu(k) * ev(k) + pool(k) * (eu(k) + ev(k)) * 0.5; k += 1 }
      val p = 1.0 / (1.0 + math.exp(-score))
      val y = nb.labels01(i)
      loss += -(y * math.log(math.max(1e-12, p)) + (1 - y) * math.log(math.max(1e-12, 1 - p)))
      if ((p >= 0.5) == (y == 1)) correct += 1
      i += 1
    }
    (loss / math.max(1, nb.pairs.length), correct)
  }
}
