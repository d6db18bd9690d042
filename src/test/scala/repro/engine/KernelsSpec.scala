package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph.Intersect
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The engine's extend kernel against the reference intersection: random
  * sorted lists (empty, tiny, and long enough to take the galloping path),
  * windows that touch or pass the list ends or are empty, and rows whose
  * values appear in the lists (injectivity). Every case is seeded.
  */
class KernelsSpec extends AnyFunSuite {

  private val Universe = 400

  /** A sorted, duplicate-free list over [0, Universe): often empty or tiny,
    * often long, so the pairs are skewed in both directions.
    */
  private def randomList(r: Random): Array[Int] = {
    val size = r.nextInt(6) match {
      case 0     => 0
      case 1     => 1 + r.nextInt(3)
      case 2 | 3 => r.nextInt(40)
      case _     => 100 + r.nextInt(Universe - 100)
    }
    val set = scala.collection.mutable.Set.empty[Int]
    while (set.size < size) set += r.nextInt(Universe)
    set.toArray.sorted
  }

  private def bound(r: Random): Int = r.nextInt(8) match {
    case 0 => Int.MinValue
    case 1 => Int.MaxValue
    case 2 => -3
    case 3 => Universe + 3
    case _ => r.nextInt(Universe + 4) - 2
  }

  private def gallops(lists: Seq[Array[Int]]): Boolean = {
    val sizes = lists.map(_.length).filter(_ > 0)
    sizes.size >= 2 && sizes.min.toLong * 16 < sizes.max
  }

  test("windowed intersection equals sortedMany filtered by the window") {
    val r = new Random(1)
    val s = new Kernels.Scratch(4)
    var skewed, emptyWindows = 0
    for (c <- 0 until 5000) {
      val lists = Vector.fill(1 + r.nextInt(4))(randomList(r))
      val (lo, hi) = (bound(r), bound(r))
      lists.indices.foreach(i => s.lists(i) = lists(i))
      Kernels.intersectWindow(s, lists.length, lo, hi)
      val got      = s.cands.slice(s.candFrom, s.candUntil).toVector
      val expected = Intersect.sortedMany(lists).filter(v => lo < v && v < hi).toVector
      assert(got == expected, s"case $c: window ($lo, $hi) over ${lists.map(_.toVector)}")
      if (gallops(lists)) skewed += 1
      if (lo >= hi) emptyWindows += 1
    }
    assert(skewed > 500 && emptyWindows > 500, s"skewed=$skewed emptyWindows=$emptyWindows")
  }

  // Input rows bind query vertices 0, 1, 2; the extend binds 3 or re-checks one of them.
  private val scan   = ScanEdge(0, 1, Vector.empty)
  private val input3 = PullExtend(scan, Vector(0), 2, verify = false, Vector.empty)

  private def randomRow(r: Random): Array[Int] = r.shuffle((0 until Universe).toVector).take(3).toArray

  /** Pivot lists keyed by vertex id; a list contains `must` when asked. */
  private def listsFor(r: Random, row: Array[Int], must: Int = -1): Map[Int, Array[Int]] =
    row.map { v =>
      val l = randomList(r)
      v -> (if (must >= 0 && r.nextBoolean()) (l :+ must).distinct.sorted else l)
    }.toMap

  private def run(k: Kernels.ExtendKernel, row: Array[Int], lists: Map[Int, Array[Int]],
                  s: Kernels.Scratch): (Int, ArrayBuffer[Array[Int]]) = {
    val out = new ArrayBuffer[Array[Int]]()
    val n   = k(row, v => lists(v), s, out)
    (n, out)
  }

  test("extend kernel keeps exactly the windowed, injective candidates; count-only agrees") {
    val r = new Random(2)
    val s = new Kernels.Scratch(3)
    val allConds = for (x <- 0 to 2; c <- Seq((x, 3), (3, x))) yield c
    var survivors = 0L
    for (c <- 0 until 5000) {
      val pivots = r.shuffle(Vector(0, 1, 2)).take(1 + r.nextInt(3)).sorted
      val conds  = allConds.filter(_ => r.nextInt(4) == 0).toVector
      val ex     = PullExtend(input3, pivots, 3, verify = false, conds)
      val row    = randomRow(r)
      // Rows' own values land in the lists, so injectivity is exercised.
      val lists  = listsFor(r, row).map { case (v, l) => v -> (l ++ row.filter(_ => r.nextBoolean())).distinct.sorted }
      val expected = Intersect.sortedMany(pivots.map(p => lists(row(p))))
        .filter(v => !row.contains(v) && SimpleExec.condsOk(ex, row :+ v)).toVector
      val (n, out) = run(new Kernels.ExtendKernel(ex, countOnly = false), row, lists, s)
      assert(n == expected.length && out.map(_.last).toVector == expected,
        s"case $c: row ${row.toVector} pivots $pivots conds $conds")
      assert(out.forall(o => o.length == 4 && o.take(3).sameElements(row)))
      val (cn, cout) = run(new Kernels.ExtendKernel(ex, countOnly = true), row, lists, s)
      assert(cn == expected.length && cout.isEmpty, s"case $c (count-only)")
      survivors += n
    }
    assert(survivors > 1000, s"only $survivors survivors: the cases are too sparse")
  }

  test("verify extend tests membership exactly as intersect-then-binary-search") {
    val r = new Random(3)
    val s = new Kernels.Scratch(2)
    val pairs = for (a <- 0 to 2; b <- 0 to 2 if a != b) yield (a, b)
    var kept = 0
    for (c <- 0 until 5000) {
      val target = r.nextInt(3)
      val others = Vector(0, 1, 2).filter(_ != target)
      val pivots = r.shuffle(others).take(1 + r.nextInt(2)).sorted
      val conds  = pairs.filter(_ => r.nextInt(6) == 0).toVector
      val ex     = PullExtend(input3, pivots, target, verify = true, conds)
      val row    = randomRow(r)
      val lists  = listsFor(r, row, must = row(target))
      val cands  = Intersect.sortedMany(pivots.map(p => lists(row(p))))
      val keep   = java.util.Arrays.binarySearch(cands, row(target)) >= 0 && SimpleExec.condsOk(ex, row)
      for (countOnly <- Seq(false, true)) {
        val (n, out) = run(new Kernels.ExtendKernel(ex, countOnly), row, lists, s)
        assert(n == (if (keep) 1 else 0), s"case $c: row ${row.toVector} pivots $pivots conds $conds")
        assert(out.length == (if (keep && !countOnly) 1 else 0) && out.forall(_ eq row))
      }
      if (keep) kept += 1
    }
    assert(kept > 200, s"only $kept rows kept: the cases are too sparse")
  }

  test("IntSet deduplicates and lists every member after growing") {
    val set = new Kernels.IntSet(4)
    val r   = new Random(4)
    val xs  = Vector.fill(2000)(r.nextInt(700))
    val fresh = xs.map(set.add)
    assert(fresh.count(identity) == xs.distinct.size && set.size == xs.distinct.size)
    assert(set.toArray.sorted.toVector == xs.distinct.sorted)
  }

  test("batch bytes are 4 per id; a queue rejects rows of another width") {
    val metrics = new Metrics(1, NetworkModel())
    val q       = new BatchQueue(10, 3, 0, metrics)
    val batch   = Array.fill(5)(Array(1, 2, 3))
    assert(Kernels.batchBytes(batch, 3) == 60)
    q.enqueue(batch)
    assert(q.rows == 5 && metrics.peakMemoryBytes == 60)
    intercept[IllegalArgumentException](q.enqueue(Array(Array(1, 2))))
  }
}
