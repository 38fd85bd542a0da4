package repro.learning

/** GraphSAGE (mean aggregator) in plain Scala float arrays — the training
  * backend of the learning stack (§7; Exp-4 trains a 3-layer GraphSAGE).
  *
  * Layer `l` maps level-(l+1) embeddings to level-l embeddings:
  * `E_l(i) = relu(Wself_l · E_{l+1}(self(i)) + Wneigh_l · mean_nbr + b_l)`,
  * followed by a linear softmax classifier on the seed embeddings. Full
  * backpropagation through the mean aggregation, except into the raw
  * features, whose gradient nothing reads; SGD updates. A numeric gradient
  * check in the test suite validates the backward pass for every weight.
  *
  * Updates are Hogwild-style (lock-free) when multiple trainer workers
  * share the model — standard practice for data-parallel GNN training.
  */
final class Sage(val inputDim: Int, val hidden: Int, val nLayers: Int,
                 val nClasses: Int, seed: Long = 1) {

  /** Row-major [out × in] matrix as a flat float array. */
  private def glorot(out: Int, in: Int, rng: java.util.Random): Array[Float] = {
    val s = math.sqrt(6.0 / (out + in)).toFloat
    Array.fill(out * in)((rng.nextFloat() * 2 - 1) * s)
  }

  private val rng = new java.util.Random(seed)
  // layer 0..nLayers-1; layer nLayers-1 (deepest) consumes raw features
  val wSelf: Array[Array[Float]] = Array.tabulate(nLayers)(l =>
    glorot(hidden, if (l == nLayers - 1) inputDim else hidden, rng))
  val wNeigh: Array[Array[Float]] = Array.tabulate(nLayers)(l =>
    glorot(hidden, if (l == nLayers - 1) inputDim else hidden, rng))
  val bias: Array[Array[Float]] = Array.fill(nLayers)(new Array[Float](hidden))
  val wOut: Array[Float] = glorot(nClasses, hidden, rng)
  val bOut: Array[Float] = new Array[Float](nClasses)

  @inline private def inDimOf(l: Int): Int = if (l == nLayers - 1) inputDim else hidden

  private def matVec(w: Array[Float], out: Int, in: Int,
                     x: Array[Float], y: Array[Float]): Unit = {
    var o = 0
    while (o < out) {
      var s = 0f
      val base = o * in
      var i = 0
      while (i < in) { s += w(base + i) * x(i); i += 1 }
      y(o) += s
      o += 1
    }
  }

  private def matTVecAdd(w: Array[Float], out: Int, in: Int,
                         dy: Array[Float], dx: Array[Float], scale: Float): Unit = {
    var o = 0
    while (o < out) {
      val base = o * in
      val g = dy(o) * scale
      var i = 0
      while (i < in) { dx(i) += w(base + i) * g; i += 1 }
      o += 1
    }
  }

  private def outerAdd(gw: Array[Float], dy: Array[Float], x: Array[Float],
                       out: Int, in: Int, scale: Float): Unit = {
    var o = 0
    while (o < out) {
      val base = o * in
      val g = dy(o) * scale
      var i = 0
      while (i < in) { gw(base + i) += g * x(i); i += 1 }
      o += 1
    }
  }

  final case class Forward(embeds: Array[Array[Array[Float]]],
                           means: Array[Array[Array[Float]]],
                           logits: Array[Array[Float]])

  /** Computes all level embeddings (deepest first) and seed logits. */
  def forward(b: Batch): Forward = {
    val L = nLayers
    val embeds = new Array[Array[Array[Float]]](L + 1)
    embeds(L) = b.feats
    val means = new Array[Array[Array[Float]]](L)
    var l = L - 1
    while (l >= 0) {
      val inD = inDimOf(l)
      val nodes = b.levels(l).length
      val out = Array.fill(nodes)(new Array[Float](hidden))
      val mean = Array.fill(nodes)(new Array[Float](inD))
      var i = 0
      while (i < nodes) {
        val m = mean(i)
        val lo = b.nbrPtr(l)(i); val hi = b.nbrPtr(l)(i + 1)
        if (hi > lo) {
          var j = lo
          while (j < hi) {
            val src = embeds(l + 1)(b.nbrIdx(l)(j))
            var k = 0
            while (k < inD) { m(k) += src(k); k += 1 }
            j += 1
          }
          val inv = 1f / (hi - lo)
          var k = 0
          while (k < inD) { m(k) *= inv; k += 1 }
        }
        val y = out(i)
        System.arraycopy(bias(l), 0, y, 0, hidden)
        matVec(wSelf(l), hidden, inD, embeds(l + 1)(b.selfIdx(l)(i)), y)
        matVec(wNeigh(l), hidden, inD, m, y)
        var k = 0
        while (k < hidden) { if (y(k) < 0) y(k) = 0; k += 1 } // relu
        i += 1
      }
      embeds(l) = out
      means(l) = mean
      l -= 1
    }
    val logits = b.levels(0).indices.map { i =>
      val y = bOut.clone()
      matVec(wOut, nClasses, hidden, embeds(0)(i), y)
      y
    }.toArray
    Forward(embeds, means, logits)
  }

  /** Softmax cross-entropy of one seed's logits `z` against `label`: writes
    * the softmax into `probs` and returns the loss.
    */
  private def softmaxCE(z: Array[Float], label: Int, probs: Array[Double]): Double = {
    val mx = z.max
    var sum = 0.0
    var c = 0
    while (c < nClasses) { probs(c) = math.exp((z(c) - mx).toDouble); sum += probs(c); c += 1 }
    c = 0
    while (c < nClasses) { probs(c) /= sum; c += 1 }
    -math.log(math.max(1e-12, probs(label)))
  }

  /** One SGD step on a batch; returns (mean CE loss, #correct). */
  def trainStep(b: Batch, lr: Float): (Double, Int) = {
    val f = forward(b)
    val nSeeds = b.levels(0).length
    var loss = 0.0
    var correct = 0
    // Gradients of levels 0..nLayers-1; level nLayers is the raw features,
    // whose gradient nothing reads.
    val dEmb = Array.tabulate(nLayers)(l => Array.fill(b.levels(l).length)(new Array[Float](hidden)))

    // softmax CE gradient on the classifier
    val gWOut = new Array[Float](wOut.length)
    val gBOut = new Array[Float](nClasses)
    val probs = new Array[Double](nClasses)
    val dz = new Array[Float](nClasses)
    var i = 0
    while (i < nSeeds) {
      val z = f.logits(i)
      val lbl = b.labels(i)
      loss += softmaxCE(z, lbl, probs)
      if (z.indexOf(z.max) == lbl) correct += 1
      var c = 0
      while (c < nClasses) {
        dz(c) = (probs(c) - (if (c == lbl) 1.0 else 0.0)).toFloat / nSeeds
        c += 1
      }
      outerAdd(gWOut, dz, f.embeds(0)(i), nClasses, hidden, 1f)
      c = 0
      while (c < nClasses) { gBOut(c) += dz(c); c += 1 }
      matTVecAdd(wOut, nClasses, hidden, dz, dEmb(0)(i), 1f)
      i += 1
    }

    // backprop through the SAGE layers, shallowest first
    val gWSelf = wSelf.map(w => new Array[Float](w.length))
    val gWNeigh = wNeigh.map(w => new Array[Float](w.length))
    val gBias = bias.map(_ => new Array[Float](hidden))
    // A node's mean aggregator hands every sampled neighbour the same
    // gradient, Wneigh^T · dy / deg, so it is formed once per node.
    val dMean = new Array[Float](hidden)
    var l = 0
    while (l < nLayers) {
      val inD = inDimOf(l)
      val nodes = b.levels(l).length
      var ii = 0
      while (ii < nodes) {
        val dy = dEmb(l)(ii)
        val act = f.embeds(l)(ii)
        // relu'
        var k = 0
        while (k < hidden) { if (act(k) <= 0) dy(k) = 0; k += 1 }
        outerAdd(gWSelf(l), dy, f.embeds(l + 1)(b.selfIdx(l)(ii)), hidden, inD, 1f)
        outerAdd(gWNeigh(l), dy, f.means(l)(ii), hidden, inD, 1f)
        k = 0
        while (k < hidden) { gBias(l)(k) += dy(k); k += 1 }
        if (l + 1 < nLayers) {
          val dIn = dEmb(l + 1)
          matTVecAdd(wSelf(l), hidden, inD, dy, dIn(b.selfIdx(l)(ii)), 1f)
          val lo = b.nbrPtr(l)(ii); val hi = b.nbrPtr(l)(ii + 1)
          if (hi > lo) {
            java.util.Arrays.fill(dMean, 0f)
            matTVecAdd(wNeigh(l), hidden, inD, dy, dMean, 1f / (hi - lo))
            var j = lo
            while (j < hi) {
              val dx = dIn(b.nbrIdx(l)(j))
              k = 0
              while (k < inD) { dx(k) += dMean(k); k += 1 }
              j += 1
            }
          }
        }
        ii += 1
      }
      l += 1
    }

    // SGD (Hogwild when shared between trainers)
    def upd(w: Array[Float], g: Array[Float]): Unit = {
      var k = 0
      while (k < w.length) { w(k) -= lr * g(k); k += 1 }
    }
    upd(wOut, gWOut); upd(bOut, gBOut)
    l = 0
    while (l < nLayers) {
      upd(wSelf(l), gWSelf(l)); upd(wNeigh(l), gWNeigh(l)); upd(bias(l), gBias(l))
      l += 1
    }
    (loss / nSeeds, correct)
  }

  /** Loss without updating — for gradient-check and eval tests. */
  def evalLoss(b: Batch): Double = {
    val f = forward(b)
    val probs = new Array[Double](nClasses)
    var loss = 0.0
    var i = 0
    while (i < b.levels(0).length) {
      loss += softmaxCE(f.logits(i), b.labels(i), probs)
      i += 1
    }
    loss / b.levels(0).length
  }
}
