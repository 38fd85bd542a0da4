package repro.util

import org.scalatest.funsuite.AnyFunSuite

class UtilSpec extends AnyFunSuite {

  private def randomLongs(rng: java.util.Random, n: Int, bound: Long = 0): Array[Long] =
    Array.fill(n)(if (bound > 0) math.floorMod(rng.nextLong(), bound) else rng.nextLong())

  test("zigzag is a bijection on interesting values") {
    val vals = Seq(0L, 1L, -1L, 63L, 64L, -64L, Long.MaxValue, Long.MinValue, 12345678901L)
    vals.foreach(v => assert(Varint.unzigzag(Varint.zigzag(v)) == v))
  }

  test("varint buffer roundtrip over random inputs") {
    val rng = new java.util.Random(1)
    val fixed = Array(0L, 1L, -1L, 127L, 128L, -300L, 1L << 40, -(1L << 40), Long.MaxValue)
    (fixed +: Seq.fill(50)(randomLongs(rng, rng.nextInt(200)))).zipWithIndex.foreach { case (xs, trial) =>
      val buf = new GrowableBytes(16)
      xs.foreach(Varint.writeToBuffer(buf, _))
      val arr = buf.toArray
      val pos = Array(0)
      xs.foreach(v => assert(Varint.readFromArray(arr, pos) == v, s"trial $trial"))
      assert(pos(0) == arr.length)
    }
  }

  test("delta array roundtrip over random sorted inputs") {
    val rng = new java.util.Random(2)
    (0 until 50).foreach { _ =>
      val xs = randomLongs(rng, rng.nextInt(300), 2000000).sorted
      val enc = Varint.encodeDeltaArray(xs)
      assert(Varint.decodeDeltaArray(enc, xs.length).toSeq == xs.toSeq)
    }
  }

  test("delta encoding of sorted ids is compact") {
    val sorted = Array.tabulate(10000)(i => i.toLong * 3)
    val enc = Varint.encodeDeltaArray(sorted)
    assert(enc.length < 10000 * 2, s"expected ~1 byte/value, got ${enc.length}")
  }

  test("small varints take one byte") {
    val buf = new GrowableBytes(4)
    Varint.writeToBuffer(buf, 5L)
    assert(buf.size == 1)
  }

  test("negative values survive the buffer path") {
    val buf = new GrowableBytes(4)
    Varint.writeToBuffer(buf, -123456789L)
    val pos = Array(0)
    assert(Varint.readFromArray(buf.toArray, pos) == -123456789L)
  }

  test("LongIntMap basic put/get/overwrite") {
    val m = new LongIntMap(4)
    m.put(42L, 1); m.put(7L, 2); m.put(42L, 3)
    assert(m.get(42L) == 3)
    assert(m.get(7L) == 2)
    assert(m.get(999L) == -1)
    assert(!m.contains(999L))
    assert(m.size == 2)
  }

  test("LongIntMap grows correctly over random inputs") {
    val rng = new java.util.Random(3)
    (0 until 20).foreach { _ =>
      val keys = randomLongs(rng, 500).distinct
      val m = new LongIntMap(2)
      keys.zipWithIndex.foreach { case (k, i) => m.put(k, i) }
      keys.zipWithIndex.foreach { case (k, i) => assert(m.get(k) == i) }
      assert(m.size == keys.length)
    }
  }

  test("LongIntMap handles adversarial same-slot keys") {
    val m = new LongIntMap(8)
    val keys = (0 until 100).map(i => i.toLong << 32)
    keys.zipWithIndex.foreach { case (k, i) => m.put(k, i) }
    keys.zipWithIndex.foreach { case (k, i) => assert(m.get(k) == i) }
  }

  test("LongIntMap negative keys work") {
    val m = new LongIntMap(4)
    m.put(-5L, 9); m.put(Long.MinValue, 8)
    assert(m.get(-5L) == 9)
    assert(m.get(Long.MinValue) == 8)
  }

  test("Parallel.run executes all indices and rethrows failures") {
    val hits = new java.util.concurrent.atomic.AtomicInteger(0)
    Parallel.run(8)(_ => hits.incrementAndGet())
    assert(hits.get() == 8)
    intercept[RuntimeException] {
      Parallel.run(4)(i => if (i == 2) throw new RuntimeException("boom"))
    }
  }

  test("Parallel.run runs every index at once, also when nested") {
    // Every inner index waits for all four, so a bounded pool or a queued
    // index would time out; each outer index nests its own run.
    val done = new java.util.concurrent.atomic.AtomicInteger(0)
    Parallel.run(2) { _ =>
      val barrier = new java.util.concurrent.CyclicBarrier(4)
      Parallel.run(4) { _ =>
        barrier.await(30, java.util.concurrent.TimeUnit.SECONDS)
        done.incrementAndGet()
      }
    }
    assert(done.get() == 8)
  }

  test("Parallel.atomicAddDouble accumulates under contention") {
    val a = new java.util.concurrent.atomic.AtomicLongArray(1)
    Parallel.run(8) { _ =>
      (0 until 1000).foreach(_ => Parallel.atomicAddDouble(a, 0, 1.0))
    }
    assert(java.lang.Double.longBitsToDouble(a.get(0)) == 8000.0)
  }
}
