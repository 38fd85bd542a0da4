package repro.util

/** Zig-zag varint codec for Long/Int streams.
  *
  * Used in two places mirroring the paper: (1) GRAPE's CPU backend "employs
  * varint encoding ... to reduce peak memory usage" for message buffers
  * (§6), and (2) GraphAr's "efficient encoding and compression techniques"
  * (§4.2) — our GraphAr-lite chunks encode sorted id columns as
  * delta + zig-zag varint.
  */
object Varint {

  /** Zig-zag: maps signed to unsigned so small magnitudes stay short. */
  @inline def zigzag(v: Long): Long = (v << 1) ^ (v >> 63)
  @inline def unzigzag(v: Long): Long = (v >>> 1) ^ -(v & 1)

  /** Appends one zig-zag varint (GRAPE message codec, GraphAr chunks). */
  def writeToBuffer(buf: GrowableBytes, value: Long): Unit = {
    var v = zigzag(value)
    while ((v & ~0x7fL) != 0) { buf.add(((v & 0x7f) | 0x80).toByte); v >>>= 7 }
    buf.add(v.toByte)
  }

  /** Reads one varint from `bytes` starting at `pos(0)`; advances `pos(0)`. */
  def readFromArray(bytes: Array[Byte], pos: Array[Int]): Long = {
    var shift = 0; var acc = 0L; var b = 0
    var p = pos(0)
    do {
      b = bytes(p) & 0xff; p += 1
      acc |= (b & 0x7fL) << shift
      shift += 7
    } while ((b & 0x80) != 0)
    pos(0) = p
    unzigzag(acc)
  }

  /** Encodes an array with delta coding (good for sorted ids). */
  def encodeDeltaArray(values: Array[Long]): Array[Byte] = {
    val buf = new GrowableBytes(values.length * 2 + 8)
    var prev = 0L
    var i = 0
    while (i < values.length) { writeToBuffer(buf, values(i) - prev); prev = values(i); i += 1 }
    buf.toArray
  }

  def decodeDeltaArray(bytes: Array[Byte], count: Int): Array[Long] = {
    val out = new Array[Long](count)
    val pos = Array(0)
    var prev = 0L
    var i = 0
    while (i < count) { prev += readFromArray(bytes, pos); out(i) = prev; i += 1 }
    out
  }
}

/** Minimal growable byte buffer (no boxing, no java.util overhead). */
final class GrowableBytes(initialCapacity: Int) {
  private var arr = new Array[Byte](math.max(16, initialCapacity))
  private var n = 0
  @inline def add(b: Byte): Unit = {
    if (n == arr.length) { arr = java.util.Arrays.copyOf(arr, arr.length * 2) }
    arr(n) = b; n += 1
  }
  def size: Int = n
  def toArray: Array[Byte] = java.util.Arrays.copyOf(arr, n)
}
