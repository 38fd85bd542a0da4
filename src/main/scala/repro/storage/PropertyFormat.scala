package repro.storage

import org.apache.spark.sql.types._

/** A column of stored property values (no boxing on the numeric fast path). */
sealed trait Col extends Serializable {
  /** Row `i`'s value; null where the row holds its kind's null sentinel. */
  def get(i: Int): Any
}
final case class LongCol(a: Array[Long]) extends Col {
  def get(i: Int): Any = { val v = a(i); if (v == Long.MinValue) null else v }
}
final case class DoubleCol(a: Array[Double]) extends Col {
  def get(i: Int): Any = { val v = a(i); if (v.isNaN) null else v }
}
final case class StringCol(a: Array[String]) extends Col { def get(i: Int): Any = a(i) }

/** The one stored form of a vertex property value, shared by Vineyard, GART
  * and GraphAr, so one [[repro.graph.PropertyGraph]] reads back the same
  * through every GRIN backend:
  *  - integral, date (epoch day) and boolean (0/1) values are stored as
  *    `Long`, with `Long.MinValue` as null;
  *  - float and double values as `Double`, with NaN as null;
  *  - any other value as its string form.
  *
  * A value equal to its kind's null sentinel reads back as null.
  */
object PropertyFormat {

  /** The stored kind of a Spark column type: "long", "double" or "string"
    * (the names GraphAr's table metadata records).
    */
  def kind(dt: DataType): String = dt match {
    case LongType | IntegerType | ShortType | ByteType | DateType | BooleanType => "long"
    case DoubleType | FloatType => "double"
    case _ => "string"
  }

  def sparkType(kind: String): DataType = kind match {
    case "long" => LongType
    case "double" => DoubleType
    case _ => StringType
  }

  /** The stored form of one value as a Spark `Row` holds it; null for a
    * null or a null sentinel.
    */
  def store(v: Any): Any = v match {
    case null => null
    case l: Long => if (l == Long.MinValue) null else l
    case i: Int => i.toLong
    case s: Short => s.toLong
    case b: Byte => b.toLong
    case b: Boolean => if (b) 1L else 0L
    case d: java.sql.Date => d.toLocalDate.toEpochDay
    case d: Double => if (d.isNaN) null else d
    case f: Float => if (f.isNaN) null else f.toDouble
    case other => other.toString
  }

  /** A column of `n` values of Spark type `dt`; row `i` stores `value(i)`. */
  def column(dt: DataType, n: Int)(value: Int => Any): Col = kind(dt) match {
    case "long" =>
      val a = new Array[Long](n)
      var i = 0
      while (i < n) { a(i) = store(value(i)) match { case null => Long.MinValue; case l: Long => l }; i += 1 }
      LongCol(a)
    case "double" =>
      val a = new Array[Double](n)
      var i = 0
      while (i < n) { a(i) = store(value(i)) match { case null => Double.NaN; case d: Double => d }; i += 1 }
      DoubleCol(a)
    case _ =>
      val a = new Array[String](n)
      var i = 0
      while (i < n) { a(i) = store(value(i)).asInstanceOf[String]; i += 1 }
      StringCol(a)
  }
}
