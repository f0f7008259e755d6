package repro.mipsbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval around a call into the program. `parent` is the index
  * of the enclosing span, or -1 for a root. */
final case class Span(name: String, runId: String, parent: Int, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are opened and closed only around calls
  * made from this benchmark's own files; nothing inside the program is
  * instrumented. `Tracer.Off` records nothing, so untraced runs pay one
  * virtual call per span site. */
class Tracer {
  private val recorded = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var runId = ""

  def startRun(id: String): Unit = runId = id

  def span[A](name: String)(body: => A): A = {
    val idx = recorded.length
    recorded += null
    val parent = open.headOption.getOrElse(-1)
    open = idx :: open
    val t0 = System.nanoTime()
    try body
    finally {
      recorded(idx) = Span(name, runId, parent, t0, System.nanoTime())
      open = open.tail
    }
  }

  def size: Int = recorded.length

  /** Each span's duration minus the part of it its children cover. Children
    * run sequentially, so their durations do not overlap. */
  def selfNs: IndexedSeq[Long] = {
    val self = recorded.map(_.durationNs).toArray
    recorded.foreach(s => if (s.parent >= 0) self(s.parent) -= s.durationNs)
    self.toIndexedSeq
  }

  /** Total seconds of the spans called `name` in run `id`. */
  def seconds(name: String, id: String): Double =
    recorded.iterator.filter(s => s.name == name && s.runId == id).map(_.durationNs).sum / 1e9

  def count(id: String): Int = recorded.count(_.runId == id)

  def toJson(extra: Seq[(String, String)]): String = {
    val base = if (recorded.isEmpty) 0L else recorded.map(_.startNs).min
    val self = selfNs
    val rows = recorded.indices.map { i =>
      val s = recorded(i)
      s"""{"id":$i,"name":${Json.str(s.name)},"run_id":${Json.str(s.runId)},"parent":${s.parent},""" +
        s""""start_ns":${s.startNs - base},"end_ns":${s.endNs - base},"self_ns":${self(i)}}"""
    }
    val head = extra.map { case (k, v) => s"${Json.str(k)}:$v" }
    (head :+ rows.mkString("\"spans\":[\n", ",\n", "\n]")).mkString("{", ",\n", "}\n")
  }
}

object Tracer {
  val Off: Tracer = new Tracer {
    override def span[A](name: String)(body: => A): A = body
  }
}

object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")

  /** A finite double with all its digits. */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not finite")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
}
