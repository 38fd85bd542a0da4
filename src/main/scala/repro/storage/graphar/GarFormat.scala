package repro.storage.graphar

import java.io._
import java.nio.file.{Files, Paths}
import repro.storage.{Col, DoubleCol, LongCol, StringCol}
import repro.util.{GrowableBytes, Varint}

/** GraphAr-lite chunk format (paper §4.2's "GraphAr" archive format).
  *
  * The real GraphAr sits on ORC/Parquet; neither writer is usable offline
  * here, so we implement the *mechanisms* GraphAr gets from them — chunked
  * columnar layout, lightweight encodings (delta+varint ids, dictionary
  * strings), zone-map chunk stats for selective retrieval — as a small
  * binary format (see DESIGN.md substitution 5).
  *
  * Table directory layout:
  * {{{
  *   <dir>/meta.txt            # rows, sortCol, col <name> <long|double|string>
  *   <dir>/index.txt           # <chunkFile> <rows> <minKey> <maxKey>
  *   <dir>/chunk-XXXXX-Y.gar   # columnar chunk
  * }}}
  *
  * Chunk binary layout: magic, nRows, nCols, then per column
  * (name, typeTag, encoding, byteLen, payload). Columns hold
  * [[repro.storage.PropertyFormat]]'s stored form; a null string is dict
  * code 0.
  */
object GarFormat {
  val Magic = 0x47415231 // "GAR1"

  val TLong: Byte = 0
  val TDouble: Byte = 1
  val TString: Byte = 2

  val EncRaw: Byte = 0
  val EncDeltaVarint: Byte = 1
  val EncDict: Byte = 2
  val EncVarint: Byte = 3

  final case class Chunk(nRows: Int, cols: Vector[(String, Col)]) {
    def col(name: String): Col =
      cols.find(_._1 == name).map(_._2)
        .getOrElse(throw new IllegalArgumentException(s"no column $name"))
  }

  /** Writes one chunk; `sorted` marks columns to delta-encode. */
  def writeChunk(path: String, nRows: Int, cols: Seq[(String, Col)],
                 sortedCols: Set[String]): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path), 1 << 16))
    try {
      out.writeInt(Magic)
      out.writeInt(nRows)
      out.writeInt(cols.size)
      cols.foreach { case (name, c) =>
        out.writeUTF(name)
        c match {
          case LongCol(a) =>
            out.writeByte(TLong)
            val enc = if (sortedCols(name)) EncDeltaVarint else EncVarint
            out.writeByte(enc)
            val buf = new GrowableBytes(a.length * 2)
            var prev = 0L
            var i = 0
            while (i < a.length) {
              if (enc == EncDeltaVarint) { Varint.writeToBuffer(buf, a(i) - prev); prev = a(i) }
              else Varint.writeToBuffer(buf, a(i))
              i += 1
            }
            val bytes = buf.toArray
            out.writeInt(bytes.length); out.write(bytes)
          case DoubleCol(a) =>
            out.writeByte(TDouble); out.writeByte(EncRaw)
            out.writeInt(a.length * 8)
            a.foreach(out.writeDouble)
          case StringCol(a) =>
            out.writeByte(TString); out.writeByte(EncDict)
            val dict = new java.util.LinkedHashMap[String, Integer]()
            a.foreach(s => if (s != null && !dict.containsKey(s)) dict.put(s, dict.size + 1))
            val body = new ByteArrayOutputStream()
            val bo = new DataOutputStream(body)
            bo.writeInt(dict.size)
            dict.keySet.forEach(bo.writeUTF(_))
            val buf = new GrowableBytes(a.length)
            a.foreach(s => Varint.writeToBuffer(buf, if (s == null) 0L else dict.get(s).toLong))
            val codes = buf.toArray
            bo.writeInt(codes.length); bo.write(codes); bo.flush()
            val bytes = body.toByteArray
            out.writeInt(bytes.length); out.write(bytes)
        }
      }
    } finally out.close()
  }

  /** Reads a chunk, decoding only `wanted` columns (column pruning); pass
    * null to decode everything. Skipped columns are seeked over.
    */
  def readChunk(path: String, wanted: Set[String] = null): Chunk = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path), 1 << 16))
    try {
      require(in.readInt() == Magic, s"$path: bad magic")
      val nRows = in.readInt()
      val nCols = in.readInt()
      var cols = Vector.empty[(String, Col)]
      var ci = 0
      while (ci < nCols) {
        val name = in.readUTF()
        val tpe = in.readByte()
        val enc = in.readByte()
        val len = in.readInt()
        if (wanted != null && !wanted.contains(name)) {
          var toSkip = len.toLong
          while (toSkip > 0) toSkip -= in.skip(toSkip)
        } else {
          val col: Col = tpe match {
            case TLong =>
              val bytes = new Array[Byte](len); in.readFully(bytes)
              val a = new Array[Long](nRows)
              val pos = Array(0)
              var prev = 0L
              var i = 0
              while (i < nRows) {
                if (enc == EncDeltaVarint) { prev += Varint.readFromArray(bytes, pos); a(i) = prev }
                else a(i) = Varint.readFromArray(bytes, pos)
                i += 1
              }
              LongCol(a)
            case TDouble =>
              val a = new Array[Double](nRows)
              var i = 0
              while (i < nRows) { a(i) = in.readDouble(); i += 1 }
              DoubleCol(a)
            case TString =>
              val dictSize = in.readInt()
              val dict = new Array[String](dictSize)
              var i = 0
              while (i < dictSize) { dict(i) = in.readUTF(); i += 1 }
              val codesLen = in.readInt()
              val bytes = new Array[Byte](codesLen); in.readFully(bytes)
              val pos = Array(0)
              val a = new Array[String](nRows)
              i = 0
              while (i < nRows) {
                val c = Varint.readFromArray(bytes, pos).toInt
                a(i) = if (c == 0) null else dict(c - 1)
                i += 1
              }
              StringCol(a)
          }
          cols :+= (name -> col)
        }
        ci += 1
      }
      Chunk(nRows, cols)
    } finally in.close()
  }

  // ---- table metadata -------------------------------------------------------

  final case class ChunkMeta(file: String, rows: Int, minKey: Long, maxKey: Long)
  final case class TableMeta(rows: Long, sortCol: String,
                             cols: Vector[(String, String)], chunks: Vector[ChunkMeta])

  def writeMeta(dir: String, meta: TableMeta): Unit = {
    val m = new PrintWriter(new File(dir, "meta.txt"))
    try {
      m.println(s"rows ${meta.rows}")
      m.println(s"sortCol ${meta.sortCol}")
      meta.cols.foreach { case (n, t) => m.println(s"col $n $t") }
    } finally m.close()
    val ix = new PrintWriter(new File(dir, "index.txt"))
    try meta.chunks.foreach(c => ix.println(s"${c.file} ${c.rows} ${c.minKey} ${c.maxKey}"))
    finally ix.close()
  }

  def readMeta(dir: String): TableMeta = {
    val metaLines = Files.readAllLines(Paths.get(dir, "meta.txt"))
    var rows = 0L; var sortCol = ""; var cols = Vector.empty[(String, String)]
    metaLines.forEach { line =>
      val p = line.trim.split("\\s+")
      p(0) match {
        case "rows" => rows = p(1).toLong
        case "sortCol" => sortCol = p(1)
        case "col" => cols :+= (p(1) -> p(2))
        case _ =>
      }
    }
    var chunks = Vector.empty[ChunkMeta]
    Files.readAllLines(Paths.get(dir, "index.txt")).forEach { line =>
      if (line.trim.nonEmpty) {
        val p = line.trim.split("\\s+")
        chunks :+= ChunkMeta(p(0), p(1).toInt, p(2).toLong, p(3).toLong)
      }
    }
    TableMeta(rows, sortCol, cols, chunks)
  }
}
