package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer: `parent` is the id of the enclosing span
  * (-1 at top level) and `query` the id of the query it served (-1 during
  * set-up).
  */
final case class Span(id: Int, parent: Int, name: String, query: Int,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Span recorder for the benchmark's own calls into each layer. The
  * benchmark is a closed loop with one client, so spans nest strictly and a
  * plain stack tracks the parent. Spans stay in memory until the run ends.
  * A disabled tracer runs the body and records nothing.
  */
final class Tracer(var enabled: Boolean) {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  var query: Int = -1
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, parent, name, query, t0, t1)
      }
    }

  /** Records a top-level span timed elsewhere, e.g. on another thread. */
  def record(name: String, startNs: Long, endNs: Long): Unit =
    if (enabled) {
      spans += Span(nextId, -1, name, -1, startNs, endNs)
      nextId += 1
    }

  /** Each span's duration minus the time its children cover. Children of one
    * span never overlap here, because every call is made from one thread.
    */
  def selfSeconds: Map[Int, Double] = {
    val childNs = spans.groupMapReduce(_.parent)(s => s.endNs - s.startNs)(_ + _)
    spans.iterator.map(s => s.id -> (s.endNs - s.startNs - childNs.getOrElse(s.id, 0L)) / 1e9).toMap
  }

  def toJson: String = spans.iterator.map { s =>
    s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","query":${s.query},""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}
