package repro.engine

import java.io._
import repro.core.{Op, PullExtend, PushJoin, SimpleExec}
import scala.collection.mutable.ArrayBuffer

/** Shared row-level helpers for the runtime engine. Rows are `Array[Int]`
  * in the producing operator's `matched` column order; 4 bytes per id.
  */
object Kernels {
  def rowBytes(row: Array[Int]): Long = 4L * row.length
  /** Bytes of a batch whose rows all have `rowWidth` columns (every row of a
    * batch comes from the same operator).
    */
  def batchBytes(batch: Array[Array[Int]], rowWidth: Int): Long = 4L * batch.length * rowWidth

  def condsOk(op: Op, row: Array[Int]): Boolean = SimpleExec.condsOk(op, row)

  /** Precompute an operator's symmetry conditions as column-index pairs so
    * the hot loops never do Vector.indexOf per row.
    */
  def condCols(op: Op): Array[Array[Int]] =
    op.conds.map { case (a, b) => Array(op.col(a), op.col(b)) }.toArray

  def condsOkFast(cc: Array[Array[Int]], row: Array[Int]): Boolean = {
    var i = 0
    while (i < cc.length) {
      if (row(cc(i)(0)) >= row(cc(i)(1))) return false
      i += 1
    }
    true
  }

  /** Neighbour lists of the pivot vertices (an `Int => Array[Int]` without
    * boxing the vertex id). Returns null when the list is unavailable.
    */
  trait NbrSource { def apply(v: Int): Array[Int] }

  /** Reusable per-worker buffers of the extend kernel. */
  final class Scratch(maxPivots: Int) {
    private[engine] val lists = new Array[Array[Int]](maxPivots)
    private[engine] val from  = new Array[Int](maxPivots)
    private[engine] val until = new Array[Int](maxPivots)
    private var buf = new Array[Int](256)
    /** Result of the last [[intersectWindow]]: `cands(candFrom until candUntil)`. */
    var cands: Array[Int] = buf
    var candFrom: Int     = 0
    var candUntil: Int    = 0

    private[engine] def buffer(need: Int): Array[Int] = {
      if (buf.length < need) buf = new Array[Int](math.max(need, buf.length * 2))
      buf
    }
  }

  /** First index in `a(from until to)` whose value is greater than `x`. */
  private def firstAbove(a: Array[Int], from: Int, to: Int, x: Int): Int = {
    val p = java.util.Arrays.binarySearch(a, from, to, x)
    if (p >= 0) p + 1 else -(p + 1)
  }

  /** First index in `a(from until to)` whose value is at least `x`. */
  private def firstAtLeast(a: Array[Int], from: Int, to: Int, x: Int): Int = {
    val p = java.util.Arrays.binarySearch(a, from, to, x)
    if (p >= 0) p else -(p + 1)
  }

  /** Intersect the sorted lists `s.lists(0 until n)` restricted to the open
    * window `lo < c < hi` (`Int.MinValue`/`Int.MaxValue` mean unbounded).
    * Each list is first narrowed to the window by binary search; the
    * sub-ranges are then intersected smallest first. A single list is not
    * copied: the result points into it. Otherwise the result lives in the
    * scratch buffer, so no row allocates.
    */
  def intersectWindow(s: Scratch, n: Int, lo: Int, hi: Int): Unit = {
    s.candFrom = 0; s.candUntil = 0
    if (lo.toLong + 1 >= hi) return
    var i = 0
    while (i < n) {
      val a = s.lists(i)
      val f = if (lo == Int.MinValue) 0 else firstAbove(a, 0, a.length, lo)
      val t = if (hi == Int.MaxValue) a.length else firstAtLeast(a, f, a.length, hi)
      if (f >= t) return
      // Insertion sort by sub-range size (n is the pivot count, tiny).
      var j = i
      while (j > 0 && s.until(j - 1) - s.from(j - 1) > t - f) {
        s.lists(j) = s.lists(j - 1); s.from(j) = s.from(j - 1); s.until(j) = s.until(j - 1)
        j -= 1
      }
      s.lists(j) = a; s.from(j) = f; s.until(j) = t
      i += 1
    }
    if (n == 1) {
      s.cands = s.lists(0); s.candFrom = s.from(0); s.candUntil = s.until(0)
      return
    }
    val buf = s.buffer(s.until(0) - s.from(0))
    var len = intersectInto(s.lists(0), s.from(0), s.until(0), s.lists(1), s.from(1), s.until(1), buf)
    i = 2
    while (i < n && len > 0) {
      len = intersectInto(buf, 0, len, s.lists(i), s.from(i), s.until(i), buf)
      i += 1
    }
    s.cands = buf; s.candUntil = len
  }

  /** Write `a(af until at) ∩ b(bf until bt)` to `out` from index 0 and return
    * its length; `a`'s range must be the smaller one. `out` may be `a` when
    * `af == 0` (each write lands at or before the element it copies).
    * Skewed pairs take the galloping path: binary-search each element of the
    * small range in the big one, O(small · log big) instead of O(small + big).
    */
  private def intersectInto(a: Array[Int], af: Int, at: Int,
                            b: Array[Int], bf: Int, bt: Int, out: Array[Int]): Int = {
    var k = 0
    var i = af
    var j = bf
    if ((at - af).toLong * 16 < bt - bf) {
      while (i < at && j < bt) {
        val p = java.util.Arrays.binarySearch(b, j, bt, a(i))
        if (p >= 0) { out(k) = a(i); k += 1; j = p + 1 }
        else j = -(p + 1)
        i += 1
      }
    } else {
      while (i < at && j < bt) {
        val x = a(i); val y = b(j)
        if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
    }
    k
  }

  /** One PULL-EXTEND's kernel state, computed once per stage: pivot columns,
    * the columns bounding the target's window (every condition of a
    * non-verify extend mentions its target), the target and condition
    * columns of a verify extend, and whether survivors are only counted
    * (the stage's last extend feeding a count sink).
    */
  final class ExtendKernel(val ex: PullExtend, val countOnly: Boolean) {
    val pivotCols: Array[Int] = ex.ext.map(ex.input.col).toArray
    private val width = ex.input.matched.length
    private val targetCol = if (ex.verify) ex.input.col(ex.target) else -1
    private val verifyConds: Array[Array[Int]] = if (ex.verify) condCols(ex) else Array.empty
    // (a, target) demands row(a) < c; (target, b) demands c < row(b).
    private val loCols: Array[Int] =
      if (ex.verify) Array.empty else ex.conds.collect { case (a, t) if t == ex.target => ex.input.col(a) }.toArray
    private val hiCols: Array[Int] =
      if (ex.verify) Array.empty else ex.conds.collect { case (t, b) if t == ex.target => ex.input.col(b) }.toArray

    /** Extend one input row and return the number of surviving rows; they
      * are appended to `out` unless the kernel only counts.
      */
    def apply(row: Array[Int], nbrs: NbrSource, s: Scratch, out: ArrayBuffer[Array[Int]]): Int = {
      var i = 0
      while (i < pivotCols.length) {
        val ns = nbrs(row(pivotCols(i)))
        if (ns == null || ns.length == 0) return 0
        s.lists(i) = ns
        i += 1
      }
      if (ex.verify) {
        if (!condsOkFast(verifyConds, row)) return 0
        val t = row(targetCol)
        i = 0
        while (i < pivotCols.length) {
          if (java.util.Arrays.binarySearch(s.lists(i), t) < 0) return 0
          i += 1
        }
        if (!countOnly) out += row
        1
      } else {
        var lo = Int.MinValue
        var hi = Int.MaxValue
        i = 0
        while (i < loCols.length) { lo = math.max(lo, row(loCols(i))); i += 1 }
        i = 0
        while (i < hiCols.length) { hi = math.min(hi, row(hiCols(i))); i += 1 }
        intersectWindow(s, pivotCols.length, lo, hi)
        val cands = s.cands
        var ci    = s.candFrom
        var n     = 0
        while (ci < s.candUntil) {
          val v = cands(ci)
          var distinct = true
          var p = 0
          while (distinct && p < width) { if (row(p) == v) distinct = false; p += 1 }
          if (distinct) {
            n += 1
            if (!countOnly) {
              val nr = java.util.Arrays.copyOf(row, width + 1)
              nr(width) = v
              out += nr
            }
          }
          ci += 1
        }
        n
      }
    }
  }

  /** Per-pair join kernel: merges one (left, right) row pair — cross-side
    * injectivity and the join's symmetry conditions enforced (same
    * semantics as SimpleExec's PushJoin). Returns null if the pair is
    * infeasible.
    */
  final class PairJoin(j: PushJoin) {
    private val rExtraCols: Array[Int] = j.right.matched.zipWithIndex
      .collect { case (v, i) if !j.left.matched.contains(v) => i }.toArray
    private val width = j.matched.length
    private val cc    = condCols(j)

    def tryJoin(l: Array[Int], r: Array[Int]): Array[Int] = {
      val row = java.util.Arrays.copyOf(l, width)
      var i   = 0
      while (i < rExtraCols.length) {
        val v = r(rExtraCols(i))
        var p = 0
        while (p < l.length) { if (l(p) == v) return null; p += 1 }
        row(l.length + i) = v
        i += 1
      }
      if (condsOkFast(cc, row)) row else null
    }
  }

  /** Open-addressing int hash set (no boxing) — the fetch stage dedups the
    * remote pivot vertices of every batch, so this path must be cheap for
    * the paper's "t_f is a small fraction of runtime" to hold.
    */
  final class IntSet(initialCapacity: Int = 1024) {
    private var mask  = Integer.highestOneBit(math.max(16, initialCapacity) * 2 - 1) * 2 - 1
    private var table = emptyTable(mask + 1)
    private var n     = 0

    private def emptyTable(size: Int): Array[Int] = {
      val t = new Array[Int](size)
      java.util.Arrays.fill(t, -1)
      t
    }

    def size: Int = n

    /** Returns true if v was newly added. */
    def add(v: Int): Boolean = {
      var i = (v * 0x9E3779B9 >>> 8) & mask
      while (true) {
        val cur = table(i)
        if (cur == v) return false
        if (cur == -1) {
          table(i) = v
          n += 1
          if (n * 4 > mask * 3) grow()
          return true
        }
        i = (i + 1) & mask
      }
      false
    }

    private def grow(): Unit = {
      val old = table
      mask = mask * 2 + 1
      table = emptyTable(mask + 1)
      n = 0
      var i = 0
      while (i < old.length) { if (old(i) != -1) add(old(i)); i += 1 }
    }

    /** The members, in table order. */
    def toArray: Array[Int] = {
      val out = new Array[Int](n)
      var k = 0
      var i = 0
      while (i < table.length) { if (table(i) != -1) { out(k) = table(i); k += 1 }; i += 1 }
      out
    }
  }

  /** Lexicographic comparison of two rows on the given key columns. */
  def compareKeys(a: Array[Int], aCols: Array[Int], b: Array[Int], bCols: Array[Int]): Int = {
    var i = 0
    while (i < aCols.length) {
      val c = Integer.compare(a(aCols(i)), b(bCols(i)))
      if (c != 0) return c
      i += 1
    }
    0
  }
}

/** One side of a buffered distributed hash join (§4.3) on one machine.
  *
  * Producers add shuffled rows; when the in-memory buffer exceeds the
  * threshold the rows are sorted by join key and spilled to disk as a run
  * ("external merge sort via the join keys"). `sortedIterator` merges the
  * in-memory rest with all on-disk runs into one key-ordered stream, so the
  * join reads each key group streaming — memory stays bounded by the buffer
  * size regardless of input size.
  */
final class JoinSideBuffer(rowWidth: Int, keyCols: Array[Int], spillThresholdRows: Int,
                           machine: Int, metrics: Metrics) {
  private val mem   = new ArrayBuffer[Array[Int]]()
  private val runs  = new ArrayBuffer[File]()
  private var total = 0L

  private def keyOrdering: Ordering[Array[Int]] =
    (a, b) => Kernels.compareKeys(a, keyCols, b, keyCols)

  def add(row: Array[Int]): Unit = this.synchronized {
    mem += row
    total += 1
    metrics.memAdd(machine, Kernels.rowBytes(row))
    if (mem.length >= spillThresholdRows) spill()
  }

  def rows: Long = this.synchronized(total)

  private def spill(): Unit = {
    val sorted = mem.sorted(keyOrdering)
    val f      = File.createTempFile(s"huge-join-m$machine", ".run")
    f.deleteOnExit()
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
    try sorted.foreach { r => var i = 0; while (i < rowWidth) { out.writeInt(r(i)); i += 1 } }
    finally out.close()
    runs += f
    metrics.spilledBytes.addAndGet(4L * rowWidth * sorted.length)
    metrics.memAdd(machine, -mem.iterator.map(Kernels.rowBytes).sum)
    mem.clear()
  }

  /** Key-ordered iterator over all buffered rows (memory + spilled runs).
    * Call once, after all producers are done.
    */
  def sortedIterator(): Iterator[Array[Int]] = this.synchronized {
    val memSorted = mem.sorted(keyOrdering).iterator
    val runIts: Seq[Iterator[Array[Int]]] = runs.toSeq.map(readRun)
    val its = (memSorted +: runIts).map(_.buffered).filter(_.hasNext)
    if (its.isEmpty) return Iterator.empty
    if (its.size == 1) return its.head // common case: nothing spilled
    new Iterator[Array[Int]] {
      private val heap = new java.util.PriorityQueue[scala.collection.BufferedIterator[Array[Int]]](
        math.max(1, its.size),
        (x, y) => Kernels.compareKeys(x.head, keyCols, y.head, keyCols))
      its.foreach(heap.add)
      def hasNext: Boolean = !heap.isEmpty
      def next(): Array[Int] = {
        val it = heap.poll()
        val r  = it.next()
        if (it.hasNext) heap.add(it)
        r
      }
    }
  }

  private def readRun(f: File): Iterator[Array[Int]] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f), 1 << 16))
    new Iterator[Array[Int]] {
      private var nextRow: Array[Int] = advance()
      private def advance(): Array[Int] =
        try {
          val r = new Array[Int](rowWidth)
          var i = 0
          while (i < rowWidth) { r(i) = in.readInt(); i += 1 }
          r
        } catch { case _: EOFException => in.close(); null }
      def hasNext: Boolean = nextRow != null
      def next(): Array[Int] = { val r = nextRow; nextRow = advance(); r }
    }
  }

  /** Release in-memory rows (after the join consumed the iterator). */
  def clear(): Unit = this.synchronized {
    metrics.memAdd(machine, -mem.iterator.map(Kernels.rowBytes).sum)
    mem.clear()
    runs.foreach(_.delete())
    runs.clear()
  }
}
