package repro.util

/** Growable primitive int buffer (no boxing on frontier and sampling paths). */
final class IntBuf(initial: Int = 16) {
  private var arr = new Array[Int](initial)
  private var n = 0
  @inline def add(v: Int): Unit = {
    if (n == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    arr(n) = v; n += 1
  }
  @inline def apply(i: Int): Int = arr(i)
  @inline def update(i: Int, v: Int): Unit = arr(i) = v
  def size: Int = n
  def clear(): Unit = n = 0
  /** Keeps the first `size` entries. */
  def truncate(size: Int): Unit = n = math.min(n, size)
  def toArray: Array[Int] = java.util.Arrays.copyOf(arr, n)
}
