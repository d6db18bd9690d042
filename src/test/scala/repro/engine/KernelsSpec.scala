package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph.{Intersect, Queries, TestGraphs}
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

  /** Each row of `rows`, as a vector. */
  private def rowsOf(rows: Rows): Vector[Vector[Int]] =
    Vector.tabulate(rows.n)(i => rows.data.slice(i * rows.width, (i + 1) * rows.width).toVector)

  /** Run the kernel on `row`, placed behind 0-2 random rows of its batch
    * (drawn from `offsets`, so the cases stay those of the seed).
    */
  private def run(offsets: Random, k: Kernels.ExtendKernel, row: Array[Int], lists: Map[Int, Array[Int]],
                  s: Kernels.Scratch): (Int, Rows) = {
    val off = offsets.nextInt(3) * row.length
    val out = new Rows(k.ex.matched.length)
    val n   = k(Array.fill(off)(offsets.nextInt(Universe)) ++ row, off, v => lists(v), s, out)
    (n, out)
  }

  test("extend kernel keeps exactly the windowed, injective candidates; count-only agrees") {
    val r = new Random(2)
    val o = new Random(12)
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
      val (n, out) = run(o, new Kernels.ExtendKernel(ex, countOnly = false), row, lists, s)
      assert(n == expected.length && rowsOf(out).map(_.last) == expected,
        s"case $c: row ${row.toVector} pivots $pivots conds $conds")
      assert(out.width == 4 && rowsOf(out).forall(_.take(3) == row.toVector))
      val (cn, cout) = run(o, new Kernels.ExtendKernel(ex, countOnly = true), row, lists, s)
      assert(cn == expected.length && cout.n == 0, s"case $c (count-only)")
      survivors += n
    }
    assert(survivors > 1000, s"only $survivors survivors: the cases are too sparse")
  }

  test("verify extend tests membership exactly as intersect-then-binary-search") {
    val r = new Random(3)
    val o = new Random(13)
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
        val (n, out) = run(o, new Kernels.ExtendKernel(ex, countOnly), row, lists, s)
        assert(n == (if (keep) 1 else 0), s"case $c: row ${row.toVector} pivots $pivots conds $conds")
        assert(out.n == (if (keep && !countOnly) 1 else 0) && rowsOf(out).forall(_ == row.toVector))
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
    val batch   = new Rows(3)
    for (_ <- 0 until 5) batch.add(Array(1, 2, 3), 0)
    assert(batch.bytes == 60)
    q.enqueue(batch)
    assert(q.rows == 5 && metrics.peakMemoryBytes == 60)
    val narrow = new Rows(2)
    narrow.add(Array(1, 2), 0)
    intercept[IllegalArgumentException](q.enqueue(narrow))
  }

  // ---- PUSH-JOIN over flat rows ---------------------------------------------

  private val byKey: Ordering[Vector[Int]] = Ordering.Implicits.seqOrdering[Vector, Int]

  /** `n` random rows of `width` columns. Values come from a narrow range
    * (many duplicate keys) or the whole int range, negatives included.
    */
  private def randomRows(r: Random, n: Int, width: Int): Vector[Array[Int]] = {
    val narrow = r.nextBoolean()
    Vector.fill(n)(Array.fill(width)(if (narrow) r.nextInt(9) - 4 else r.nextInt()))
  }

  /** One or two distinct key columns of a `width`-column row. */
  private def randomKeyCols(r: Random, width: Int): Array[Int] =
    r.shuffle((0 until width).toVector).take(1 + r.nextInt(math.min(2, width))).toArray

  private def key(row: Array[Int], cols: Array[Int]): Vector[Int] = cols.toVector.map(row)

  /** The rows a merge yields, in order. */
  private def drain(m: Kernels.RowMerge, width: Int): Vector[Vector[Int]] = {
    val out = Vector.newBuilder[Vector[Int]]
    while (m.nonEmpty) { out += m.buf.slice(m.pos, m.pos + width).toVector; m.advance() }
    out.result()
  }

  test("radix sort of flat rows equals a stable sortBy on the key") {
    val r      = new Random(5)
    val counts = new Array[Int](Kernels.RadixBuckets)
    for (c <- 0 until 2000) {
      val width = 1 + r.nextInt(5)
      val rows  = randomRows(r, r.nextInt(300), width)
      val keys  = randomKeyCols(r, width)
      val flat  = rows.flatten.toArray
      val tmp   = new Array[Int](flat.length)
      val out   = Kernels.radixSortRows(flat, tmp, rows.length, width, keys, counts)
      val expected = rows.sortBy(key(_, keys))(byKey).map(_.toVector)
      assert(out.grouped(width).map(_.toVector).toVector.take(rows.length) == expected,
        s"case $c: width $width keys ${keys.toVector}")
    }
  }

  test("heap merge of sorted runs equals the sorted concatenation") {
    val r      = new Random(6)
    val counts = new Array[Int](Kernels.RadixBuckets)
    for (c <- 0 until 1000) {
      val width = 1 + r.nextInt(4)
      val keys  = randomKeyCols(r, width)
      val runs  = Vector.fill(1 + r.nextInt(6))(randomRows(r, r.nextInt(40), width))
      val cursors = runs.map { rows =>
        val flat = rows.flatten.toArray
        val out  = Kernels.radixSortRows(flat, new Array[Int](flat.length), rows.length, width, keys, counts)
        Kernels.RunCursor.inMemory(out, rows.length, width)
      }
      val got = drain(new Kernels.RowMerge(width, keys, cursors.toArray), width)
      val all = runs.flatten.map(_.toVector)
      assert(got.map(_.toArray).map(key(_, keys)) == all.map(_.toArray).map(key(_, keys)).sorted(byKey),
        s"case $c: keys out of order")
      assert(got.sorted(byKey) == all.sorted(byKey), s"case $c: rows lost or duplicated")
    }
  }

  // Join shapes: left and right sub-dataflows sharing a 1- or 2-vertex key.
  private val joinShapes: Vector[(Op, Op)] = {
    val path012 = PullExtend(ScanEdge(0, 1, Vector.empty), Vector(1), 2, verify = false, Vector.empty)
    val path0123 = PullExtend(path012, Vector(2), 3, verify = false, Vector.empty)
    Vector(
      (path012, ScanEdge(2, 3, Vector.empty)),                                                // key {2}
      (path012, PullExtend(ScanEdge(4, 2, Vector.empty), Vector(4), 0, verify = false, Vector.empty)), // key {0, 2}
      (path0123, PullExtend(ScanEdge(3, 4, Vector.empty), Vector(4), 0, verify = false, Vector.empty)), // key {0, 3}
    )
  }

  /** A random injective row binding `vars`, with `fixed` values kept. */
  private def injectiveRow(r: Random, vars: Vector[Int], fixed: Map[Int, Int]): Array[Int] = {
    val pool = r.shuffle((-6 to 6).filterNot(fixed.values.toSet).toVector).iterator
    vars.map(v => fixed.getOrElse(v, pool.next())).toArray
  }

  test("pair join check-and-build equals SimpleExec's PushJoin semantics") {
    val r = new Random(7)
    var joined, rejected = 0
    for (c <- 0 until 3000) {
      val (left, right) = joinShapes(r.nextInt(joinShapes.size))
      val extras = right.matched.filterNot(left.matched.contains)
      val lFree  = left.matched.filterNot(right.matched.contains)
      val conds  = (for (a <- lFree; b <- extras) yield if (r.nextBoolean()) (a, b) else (b, a))
        .filter(_ => r.nextInt(3) == 0)
      val j     = PushJoin(left, right, conds)
      val pairs = new Kernels.PairJoin(j)
      val l     = injectiveRow(r, left.matched, Map.empty)
      // A key group of right rows, behind a random offset in the left buffer.
      val group = Vector.fill(1 + r.nextInt(8))(
        injectiveRow(r, right.matched, j.key.map(v => v -> l(left.col(v))).toMap))
      val lOff  = r.nextInt(3) * left.matched.length
      val lBuf  = new Array[Int](lOff) ++ l
      pairs.setRight(group.flatten.toArray, group.size)
      val n = pairs.countLeft(lBuf, lOff)
      for ((rr, i) <- group.zipWithIndex) {
        val row = l ++ extras.map(v => rr(right.col(v)))
        val ok  = !extras.exists(v => l.contains(rr(right.col(v)))) && SimpleExec.condsOk(j, row)
        assert(pairs.passed(i) == ok, s"case $c: ${l.toVector} ${rr.toVector} conds $conds")
        val built = new Rows(j.matched.length)
        pairs.appendJoined(lBuf, lOff, rr, 0, built)
        assert(rowsOf(built) == Vector(row.toVector))
        if (ok) joined += 1 else rejected += 1
      }
      assert(n == (0 until group.size).count(pairs.passed), s"case $c")
    }
    assert(joined > 1000 && rejected > 1000, s"joined=$joined rejected=$rejected")
  }

  test("merge join of side buffers equals SimpleExec's PushJoin on the test graphs") {
    val cost = CostModel.of(TestGraphs.pl)
    for (q <- Seq(Queries.q7, Queries.q8); (gn, g) <- Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road);
         threshold <- Seq(64, 1 << 20)) {
      val j = Dataflow.fromPlan(Optimiser.optimise(q, cost, OptimiserConfig.huge(2)), q, q.symmetryConditions)
        .asInstanceOf[PushJoin]
      val metrics = new Metrics(1)
      def loaded(): JoinSpec = {
        val spec = new JoinSpec(j, EngineConfig(machines = 1, workersPerMachine = 2,
                                                spillThresholdRows = threshold), metrics)
        for ((side, op) <- Seq(0 -> j.left, 1 -> j.right)) {
          val rows = SimpleExec.run(op, g)
          spec.buffers(0)(side).add(rows.flatten.toArray, rows.length)
        }
        spec
      }
      val expected = SimpleExec.run(j, g).map(_.toVector).sorted(byKey)
      val building = loaded()
      val mj       = building.mergeJoin(0)
      val built    = new Rows(j.matched.length)
      while (mj.fill(built, built.n + 1000, () => false)) {}
      assert(rowsOf(built).sorted(byKey) == expected, s"$gn $q threshold $threshold")
      building.clear()
      val counting = loaded()
      val cj = counting.mergeJoin(0)
      var n, chunked = 0L
      while (cj.nextGroup()) {
        n += cj.countGroup()
        // The same group in chunks of 3 left rows, alternating the workers' kernels.
        for (from <- 0 until cj.leftRows by 3)
          chunked += cj.countRows(from / 3 % 2, from, math.min(cj.leftRows, from + 3))
      }
      assert(n == expected.size && chunked == n, s"$gn $q threshold $threshold (count)")
      counting.clear()
      assert(metrics.heldBytes == 0)
    }
  }

  test("a side buffer returns its input in key order at every spill threshold") {
    val r = new Random(8)
    for (c <- 0 until 200; threshold <- Seq(1, 2, 16, 1 << 20)) {
      val width   = 1 + r.nextInt(4)
      val keys    = randomKeyCols(r, width)
      val rows    = randomRows(r, r.nextInt(120), width)
      val metrics = new Metrics(1)
      val buf     = new JoinSideBuffer(width, keys, threshold, 0, metrics)
      var at = 0
      while (at < rows.length) {
        val n = math.min(rows.length - at, 1 + r.nextInt(40))
        buf.add(rows.slice(at, at + n).flatten.toArray, n)
        at += n
      }
      assert(buf.rows == rows.length)
      assert(metrics.spilledBytes.get == 4L * width * (rows.length / threshold * threshold), s"case $c")
      val got = drain(buf.merged(), width)
      assert(got.map(_.toArray).map(key(_, keys)) == rows.map(key(_, keys)).sorted(byKey),
        s"case $c: threshold $threshold keys out of order")
      assert(got.sorted(byKey) == rows.map(_.toVector).sorted(byKey), s"case $c: threshold $threshold")
      assert(buf.runFiles.isEmpty, "every run is deleted once read")
      buf.clear()
      assert(metrics.heldBytes == 0)
    }
  }

  test("spilled run files exist until the side buffer is cleared") {
    val metrics = new Metrics(1)
    val buf     = new JoinSideBuffer(2, Array(0), 2, 0, metrics)
    buf.add(Array(5, 1, 3, 2, 4, 3, 1, 4, 2, 5), 5)
    val files = buf.runFiles
    assert(files.size == 2 && files.forall(java.nio.file.Files.exists(_)))
    assert(metrics.heldBytes == 8)
    buf.clear()
    assert(files.forall(f => !java.nio.file.Files.exists(f)) && buf.runFiles.isEmpty)
    assert(metrics.heldBytes == 0)
  }

  test("a worker pool rethrows a chunk's exception on the caller") {
    val pool = new WorkerPool(0, 3, new Metrics(1))
    try {
      val e = intercept[IllegalStateException] {
        pool.run(1000, 10) { (_, from, _) => if (from == 500) throw new IllegalStateException("chunk 50") }
      }
      assert(e.getMessage == "chunk 50")
      val rows = new java.util.concurrent.atomic.AtomicInteger
      pool.run(1000, 10) { (_, from, until) => rows.addAndGet(until - from) }
      assert(rows.get == 1000, "the pool still works after a failed batch")
    } finally pool.shutdown()
  }
}
