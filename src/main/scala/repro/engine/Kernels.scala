package repro.engine

import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import repro.core.{Op, PullExtend, PushJoin}

/** The engine's one row format: `n` partial results of `width` ids each,
  * packed row after row in `data` (row i starts at `i * width`), in the
  * producing operator's `matched` column order; 4 bytes per id. Appends
  * grow `data` by doubling, the format's one growth policy.
  */
final class Rows(val width: Int) {
  var data: Array[Int] = Array.emptyIntArray
  var n: Int           = 0

  def bytes: Long = 4L * n * width
  def clear(): Unit = n = 0

  private def reserve(rows: Int): Unit = {
    val need = (n + rows).toLong * width
    if (need > data.length) {
      val grown = math.max(need, math.min(2L * data.length, Int.MaxValue - 8L))
      data = java.util.Arrays.copyOf(data, Math.toIntExact(grown))
    }
  }

  /** Add a row whose columns the caller writes; returns its offset. */
  def append(): Int = {
    reserve(1)
    n += 1
    (n - 1) * width
  }

  /** Append the `rows` rows at `src(off ..)`. */
  def add(src: Array[Int], off: Int, rows: Int = 1): Unit = {
    reserve(rows)
    System.arraycopy(src, off, data, n * width, rows * width)
    n += rows
  }

  /** Append the `width - 1` ids at `src(off ..)` followed by `v`. */
  def addExtended(src: Array[Int], off: Int, v: Int): Unit = {
    val o = append()
    System.arraycopy(src, off, data, o, width - 1)
    data(o + width - 1) = v
  }

  /** A copy of rows `from until until`. */
  def slice(from: Int, until: Int): Rows = {
    val r = new Rows(width)
    r.add(data, from * width, until - from)
    r
  }
}

/** Shared kernels of the runtime engine, over [[Rows]]-format rows. */
object Kernels {
  /** Precompute an operator's symmetry conditions as column-index pairs so
    * the hot loops never do Vector.indexOf per row.
    */
  def condCols(op: Op): Array[Array[Int]] =
    op.conds.map { case (a, b) => Array(op.col(a), op.col(b)) }.toArray

  /** Whether the row at `row(off ..)` satisfies the conditions `cc`. */
  def condsOkFast(cc: Array[Array[Int]], row: Array[Int], off: Int): Boolean = {
    var i = 0
    while (i < cc.length) {
      if (row(off + cc(i)(0)) >= row(off + cc(i)(1))) return false
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

    /** Extend the input row at `in(off ..)` and return the number of
      * surviving rows; they are appended to `out` unless the kernel only
      * counts. A verify extend appends the input row itself.
      */
    def apply(in: Array[Int], off: Int, nbrs: NbrSource, s: Scratch, out: Rows): Int = {
      var i = 0
      while (i < pivotCols.length) {
        val ns = nbrs(in(off + pivotCols(i)))
        if (ns == null || ns.length == 0) return 0
        s.lists(i) = ns
        i += 1
      }
      if (ex.verify) {
        if (!condsOkFast(verifyConds, in, off)) return 0
        val t = in(off + targetCol)
        i = 0
        while (i < pivotCols.length) {
          if (java.util.Arrays.binarySearch(s.lists(i), t) < 0) return 0
          i += 1
        }
        if (!countOnly) out.add(in, off)
        1
      } else {
        var lo = Int.MinValue
        var hi = Int.MaxValue
        i = 0
        while (i < loCols.length) { lo = math.max(lo, in(off + loCols(i))); i += 1 }
        i = 0
        while (i < hiCols.length) { hi = math.min(hi, in(off + hiCols(i))); i += 1 }
        intersectWindow(s, pivotCols.length, lo, hi)
        val cands = s.cands
        var ci    = s.candFrom
        var n     = 0
        while (ci < s.candUntil) {
          val v = cands(ci)
          var distinct = true
          var p = 0
          while (distinct && p < width) { if (in(off + p) == v) distinct = false; p += 1 }
          if (distinct) {
            n += 1
            if (!countOnly) out.addExtended(in, off, v)
          }
          ci += 1
        }
        n
      }
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

  // ---- PUSH-JOIN over flat rows ---------------------------------------------
  // A join side's rows are packed into one `Array[Int]` with stride `width`;
  // a row is addressed by the offset of its first column.

  /** Lexicographic comparison, in `Integer.compare` order, of the key of the
    * row at `a(ao ..)` (columns `aCols`) with the key of the row at `b(bo ..)`
    * (columns `bCols`).
    */
  def keyCompare(a: Array[Int], ao: Int, aCols: Array[Int],
                 b: Array[Int], bo: Int, bCols: Array[Int]): Int = {
    var i = 0
    while (i < aCols.length) {
      val c = Integer.compare(a(ao + aCols(i)), b(bo + bCols(i)))
      if (c != 0) return c
      i += 1
    }
    0
  }

  /** Buckets of one radix-sort digit. */
  val RadixBuckets: Int = 1 << 16

  /** Sort the first `n` rows of `rows` (stride `width`) by the key columns,
    * lexicographically in `Integer.compare` order: a stable LSD radix sort on
    * 16-bit digits, least significant column first. The top digit of each
    * column has its sign bit flipped, so negative ids sort first. A pass
    * whose digits all fall in one bucket is skipped; a pass only clears and
    * sums the bucket range its digits span. `tmp` must hold `n * width` ints
    * and `counts` [[RadixBuckets]]. Returns the array holding the sorted
    * rows: `rows` or `tmp`.
    */
  def radixSortRows(rows: Array[Int], tmp: Array[Int], n: Int, width: Int,
                    keyCols: Array[Int], counts: Array[Int]): Array[Int] = {
    var src = rows
    var dst = tmp
    if (n <= 1) return src
    val len = n * width
    var k = keyCols.length - 1
    while (k >= 0) {
      val c = keyCols(k)
      var shift = 0
      while (shift <= 16) {
        val flip = if (shift == 16) 0x8000 else 0
        var lo = RadixBuckets
        var hi = -1
        var off = c
        while (off < len) {
          val d = ((src(off) >>> shift) & 0xFFFF) ^ flip
          if (d < lo) lo = d
          if (d > hi) hi = d
          off += width
        }
        if (lo < hi) {
          java.util.Arrays.fill(counts, lo, hi + 1, 0)
          off = c
          while (off < len) { counts(((src(off) >>> shift) & 0xFFFF) ^ flip) += 1; off += width }
          var sum = 0
          var b   = lo
          while (b <= hi) { val t = counts(b); counts(b) = sum; sum += t; b += 1 }
          off = 0
          while (off < len) {
            val d  = ((src(off + c) >>> shift) & 0xFFFF) ^ flip
            val to = counts(d) * width
            counts(d) += 1
            var i = 0
            while (i < width) { dst(to + i) = src(off + i); i += 1 }
            off += width
          }
          val t = src; src = dst; dst = t
        }
        shift += 16
      }
      k -= 1
    }
    src
  }

  /** A key-ordered run of flat rows: `buf(pos until end)`, refilled block by
    * block from its spill file (if any) until the file is read to the end,
    * at which point the file is closed and deleted.
    */
  final class RunCursor private () {
    var buf: Array[Int] = Array.emptyIntArray
    var pos: Int        = 0
    var end: Int        = 0
    private var file: Path        = null
    private var ch: FileChannel   = null
    private var bytes: ByteBuffer = null

    /** Load the next block; false when the run is exhausted. */
    def refill(): Boolean = {
      if (ch == null) return false
      bytes.clear()
      while (bytes.hasRemaining && ch.read(bytes) >= 0) {}
      bytes.flip()
      val n = bytes.remaining >> 2
      bytes.asIntBuffer().get(buf, 0, n)
      pos = 0; end = n
      if (ch.position() >= ch.size()) close()
      n > 0
    }

    /** Close and delete the run's file; idempotent. */
    def close(): Unit = if (ch != null) {
      ch.close(); ch = null
      Files.deleteIfExists(file)
    }
  }

  object RunCursor {
    /** Ints per block read back from a spill file. */
    val BlockInts: Int = 1 << 14

    /** A run already in memory: the first `n` rows of `rows`. */
    def inMemory(rows: Array[Int], n: Int, width: Int): RunCursor = {
      val c = new RunCursor
      c.buf = rows; c.end = n * width
      c
    }

    /** A run spilled to `file`, positioned on its first block. */
    def onFile(file: Path, width: Int): RunCursor = {
      val c = new RunCursor
      c.file = file
      c.ch = FileChannel.open(file, StandardOpenOption.READ)
      val size = c.ch.size()
      val ints = math.min(size >> 2, math.max(width, BlockInts / width * width).toLong).toInt
      c.buf = new Array[Int](ints)
      c.bytes = ByteBuffer.allocate(4 * ints).order(ByteOrder.nativeOrder())
      c.refill()
      c
    }
  }

  /** K-way merge of key-ordered runs: a binary min-heap of cursor indices
    * keyed by each cursor's current row. The head row is `buf(pos ..)`;
    * [[advance]] moves the head cursor one row and re-sifts only the root.
    */
  final class RowMerge(width: Int, keyCols: Array[Int], cursors: Array[RunCursor]) {
    private val heap = cursors.indices.filter(i => cursors(i).pos < cursors(i).end).toArray
    private var size = heap.length
    locally { var i = size / 2 - 1; while (i >= 0) { siftDown(i); i -= 1 } }

    def nonEmpty: Boolean = size > 0
    def buf: Array[Int]   = cursors(heap(0)).buf
    def pos: Int          = cursors(heap(0)).pos

    def advance(): Unit = {
      val c = cursors(heap(0))
      c.pos += width
      if (c.pos >= c.end && !c.refill()) { size -= 1; heap(0) = heap(size) }
      if (size > 1) siftDown(0)
    }

    private def less(a: Int, b: Int): Boolean = {
      val x = cursors(a); val y = cursors(b)
      keyCompare(x.buf, x.pos, keyCols, y.buf, y.pos, keyCols) < 0
    }

    private def siftDown(i0: Int): Unit = {
      var i = i0
      val h = heap(i)
      var done = false
      while (!done) {
        var child = 2 * i + 1
        if (child >= size) done = true
        else {
          if (child + 1 < size && less(heap(child + 1), heap(child))) child += 1
          if (less(heap(child), h)) { heap(i) = heap(child); i = child }
          else done = true
        }
      }
      heap(i) = h
    }
  }

  /** Pair-join kernel over flat rows, with the semantics of SimpleExec's
    * PushJoin: a left row and a key-equal right row join iff every extra
    * column of the right row avoids all values of the left row (cross-side
    * injectivity) and the join's symmetry conditions hold. The kernel holds
    * one key group of right rows ([[setRight]]) and checks a left row against
    * all of them at once ([[countLeft]]). A joined row, the left row followed
    * by the right row's extra columns, is appended only for a pair that passed.
    *
    * Every partial result is injective, so a right row's extra values never
    * equal its key values, which are the left row's: only the left row's
    * non-key columns need checking. A join's conditions each relate a right
    * extra vertex to a left vertex (Dataflow assigns a condition to the
    * first operator binding both ends), so each compares one left column
    * with one right column.
    */
  final class PairJoin(j: PushJoin) {
    val leftWidth: Int  = j.left.matched.length
    val rightWidth: Int = j.right.matched.length
    private val rExtraCols: Array[Int] = j.right.matched.zipWithIndex
      .collect { case (v, i) if !j.left.matched.contains(v) => i }.toArray
    private val lFreeCols: Array[Int] = j.left.matched.zipWithIndex
      .collect { case (v, i) if !j.key.contains(v) => i }.toArray
    require(j.conds.forall { case (a, b) => j.left.matched.contains(a) != j.left.matched.contains(b) },
      s"each condition of ${j.conds} must relate a left vertex to a right extra vertex")
    // Condition i bounds right extra column condT(i) by left column condL(i):
    // from below if leftLow(i) (l < r), else from above (r < l).
    private val leftLow: Array[Boolean] = j.conds.map { case (a, _) => j.left.matched.contains(a) }.toArray
    private val condL: Array[Int] =
      j.conds.map { case (a, b) => j.left.col(if (j.left.matched.contains(a)) a else b) }.toArray
    private val condT: Array[Int] = j.conds.map { case (a, b) =>
      rExtraCols.indexOf(j.right.col(if (j.left.matched.contains(a)) b else a)) }.toArray

    // The current left row, hoisted: its non-key values and the open window
    // lo(t) < v < hi(t) its conditions put on each right extra column t.
    // A pair joins iff each right extra value lies in its window and differs
    // from every non-key left value.
    private val free = new Array[Int](lFreeCols.length)
    private val lo   = new Array[Int](rExtraCols.length)
    private val hi   = new Array[Int](rExtraCols.length)

    private def setLeft(l: Array[Int], off: Int): Unit = {
      var i = 0
      while (i < free.length) { free(i) = l(off + lFreeCols(i)); i += 1 }
      java.util.Arrays.fill(lo, Int.MinValue)
      java.util.Arrays.fill(hi, Int.MaxValue)
      i = 0
      while (i < condL.length) {
        val v = l(off + condL(i))
        val t = condT(i)
        if (leftLow(i)) lo(t) = math.max(lo(t), v) else hi(t) = math.min(hi(t), v)
        i += 1
      }
    }

    // The current right group's extra columns, column-major
    // (`rx(t * groupRows + j)`), and whether each row joins the left row of
    // the last [[countLeft]].
    private var rx        = Array.emptyIntArray
    private var pass      = Array.emptyIntArray
    private var groupRows = 0

    /** Make the first `n` rows of `r` the group [[countLeft]] checks. */
    def setRight(r: Array[Int], n: Int): Unit = {
      groupRows = n
      if (rx.length < n * rExtraCols.length) rx = new Array[Int](n * rExtraCols.length)
      if (pass.length < n) pass = new Array[Int](n)
      var t = 0
      while (t < rExtraCols.length) {
        val c = rExtraCols(t)
        val base = t * n
        var j = 0
        while (j < n) { rx(base + j) = r(j * rightWidth + c); j += 1 }
        t += 1
      }
    }

    /** Number of rows of the current right group joining the left row at
      * `l(off ..)`; [[passed]] then tells which. The checks run one column
      * at a time, each a flat branch-free loop over the group: within a key
      * group the outcome of a pair is close to a coin flip.
      */
    def countLeft(l: Array[Int], off: Int): Int = {
      setLeft(l, off)
      val n = groupRows
      java.util.Arrays.fill(pass, 0, n, 1)
      var t = 0
      while (t < rExtraCols.length) {
        val base = t * n
        val a = lo(t).toLong
        val b = hi(t).toLong
        var j = 0
        if (a != Int.MinValue || b != Int.MaxValue)
          while (j < n) { val v = rx(base + j).toLong; pass(j) &= (((a - v) & (v - b)) >>> 63).toInt; j += 1 }
        var p = 0
        while (p < free.length) {
          val f = free(p)
          j = 0
          while (j < n) { val d = rx(base + j) ^ f; pass(j) &= (d | -d) >>> 31; j += 1 }
          p += 1
        }
        t += 1
      }
      var c = 0
      var j = 0
      while (j < n) { c += pass(j); j += 1 }
      c
    }

    /** Whether right row `j` passed the last [[countLeft]]. */
    def passed(j: Int): Boolean = pass(j) != 0

    /** Append to `out` the joined row of the left row at `l(lOff ..)` and
      * the right row at `r(rOff ..)`.
      */
    def appendJoined(l: Array[Int], lOff: Int, r: Array[Int], rOff: Int, out: Rows): Unit = {
      val o = out.append()
      System.arraycopy(l, lOff, out.data, o, leftWidth)
      var i = 0
      while (i < rExtraCols.length) { out.data(o + leftWidth + i) = r(rOff + rExtraCols(i)); i += 1 }
    }
  }
}

/** One side of a buffered distributed hash join (§4.3) on one machine.
  *
  * Producers append blocks of rows to one [[Rows]] buffer. When it holds
  * `spillThresholdRows` rows they are radix-sorted by join key and written
  * to disk as a run ("external merge sort via the join keys"). [[merged]] sorts the in-memory rest and merges it with all runs
  * into one key-ordered stream; runs are read back block by block, so the
  * merge's memory stays bounded whatever the input size. A run's file is
  * deleted once it has been read; [[clear]] deletes the rest.
  */
final class JoinSideBuffer(rowWidth: Int, keyCols: Array[Int], spillThresholdRows: Int,
                           machine: Int, metrics: Metrics) {
  private val threshold = math.max(1, spillThresholdRows)
  private val mem       = new Rows(rowWidth)
  private var scratch   = Array.emptyIntArray
  private var counts: Array[Int] = null
  private var runs      = Vector.empty[Path]
  private var cursors   = Array.empty[Kernels.RunCursor]
  private var total     = 0L

  /** Append the first `n` rows of `src`, spilling each time the buffer
    * reaches the threshold.
    */
  def add(src: Array[Int], n: Int): Unit = this.synchronized {
    var done = 0
    while (done < n) {
      val take = math.min(n - done, threshold - mem.n)
      mem.add(src, done * rowWidth, take)
      done += take
      metrics.memAdd(machine, 4L * rowWidth * take)
      if (mem.n >= threshold) spill()
    }
    total += n
  }

  def rows: Long = this.synchronized(total)

  /** The spill files not yet read back and deleted. */
  private[engine] def runFiles: Seq[Path] = this.synchronized(runs.filter(Files.exists(_)).toSeq)

  /** Sort the in-memory rows; afterwards `mem` holds them in key order. */
  private def sortMem(): Unit = if (mem.n > 1) {
    if (scratch.length < mem.n * rowWidth) scratch = new Array[Int](mem.data.length)
    if (counts == null) counts = new Array[Int](Kernels.RadixBuckets)
    val sorted = Kernels.radixSortRows(mem.data, scratch, mem.n, rowWidth, keyCols, counts)
    if (sorted ne mem.data) { scratch = mem.data; mem.data = sorted }
  }

  private def spill(): Unit = {
    sortMem()
    val f  = Files.createTempFile(s"huge-join-m$machine-", ".run")
    runs :+= f
    val ch = FileChannel.open(f, StandardOpenOption.WRITE, StandardOpenOption.TRUNCATE_EXISTING)
    try {
      val ints  = mem.n * rowWidth
      val bytes = ByteBuffer.allocate(4 * math.min(ints, Kernels.RunCursor.BlockInts * 4))
                            .order(ByteOrder.nativeOrder())
      val block = bytes.capacity >> 2
      var off   = 0
      while (off < ints) {
        val len = math.min(block, ints - off)
        bytes.clear()
        bytes.asIntBuffer().put(mem.data, off, len)
        bytes.limit(4 * len)
        while (bytes.hasRemaining) ch.write(bytes)
        off += len
      }
    } finally ch.close()
    metrics.spilledBytes.addAndGet(mem.bytes)
    metrics.memAdd(machine, -mem.bytes)
    mem.clear()
  }

  /** Key-ordered merge of all buffered rows (memory + spilled runs). Call
    * once, after all producers are done.
    */
  def merged(): Kernels.RowMerge = this.synchronized {
    sortMem()
    cursors = Kernels.RunCursor.inMemory(mem.data, mem.n, rowWidth) +:
                runs.map(Kernels.RunCursor.onFile(_, rowWidth)).toArray
    new Kernels.RowMerge(rowWidth, keyCols, cursors)
  }

  /** Release the rows and delete every remaining run file; idempotent. */
  def clear(): Unit = this.synchronized {
    metrics.memAdd(machine, -mem.bytes)
    mem.clear()
    mem.data = Array.emptyIntArray
    scratch = Array.emptyIntArray
    counts = null
    cursors.foreach(_.close())
    cursors = Array.empty
    runs.foreach(Files.deleteIfExists(_))
    runs = Vector.empty
  }
}

/** One machine's merge join of its two side buffers, one key group at a
  * time. Each group is copied into a [[Rows]] buffer per side; the pairs of
  * a group are then either counted or appended as rows, resuming where the
  * last call stopped. `pairKernels` holds one kernel per worker (a kernel
  * hoists its current left row); kernel 0 also serves the calling thread.
  */
final class MergeJoin(pairKernels: Array[Kernels.PairJoin], left: Kernels.RowMerge, leftKeys: Array[Int],
                      right: Kernels.RowMerge, rightKeys: Array[Int]) {
  private val lw = pairKernels(0).leftWidth
  private val rw = pairKernels(0).rightWidth
  // Each side's rows of the current key.
  private val lg = new Rows(lw)
  private val rg = new Rows(rw)
  // The next pair of the current group to try: left row a, right row b.
  private var a = 0
  private var b = 0

  // The current group's number, and the group each worker's kernel holds.
  private var groupId     = 0L
  private val rightLoaded = Array.fill(pairKernels.length)(-1L)

  /** Worker w's kernel, holding the current right group. */
  private def kernel(w: Int): Kernels.PairJoin = {
    val k = pairKernels(w)
    if (rightLoaded(w) != groupId) { k.setRight(rg.data, rg.n); rightLoaded(w) = groupId }
    k
  }

  /** Load the next key present on both sides; false when none is left. */
  def nextGroup(): Boolean = {
    lg.clear(); rg.clear(); a = 0; b = 0
    groupId += 1
    while (left.nonEmpty && right.nonEmpty) {
      val c = Kernels.keyCompare(left.buf, left.pos, leftKeys, right.buf, right.pos, rightKeys)
      if (c < 0) left.advance()
      else if (c > 0) right.advance()
      else { load(lg, left, leftKeys); load(rg, right, rightKeys); return true }
    }
    false
  }

  /** Move the merge's rows sharing its head row's key into `g`. */
  private def load(g: Rows, m: Kernels.RowMerge, keys: Array[Int]): Unit =
    while (m.nonEmpty && (g.n == 0 || Kernels.keyCompare(m.buf, m.pos, keys, g.data, 0, keys) == 0)) {
      g.add(m.buf, m.pos)
      m.advance()
    }

  def leftRows: Int    = lg.n
  def rightRows: Int   = rg.n
  def groupPairs: Long = lg.n.toLong * rg.n

  /** Number of joined rows of the current group. */
  def countGroup(): Long = countRows(0, 0, lg.n)

  /** Number of joined rows of the current group's left rows `from until
    * until`, on worker `w`'s kernel.
    */
  def countRows(w: Int, from: Int, until: Int): Long = {
    val k = kernel(w)
    var n = 0L
    var i = from
    while (i < until) { n += k.countLeft(lg.data, i * lw); i += 1 }
    n
  }

  /** Append joined rows to `out` until it holds `max` rows or the join ends
    * (then returns false). `stop` is asked before each new key group; when it
    * says so the call returns early with true.
    */
  def fill(out: Rows, max: Int, stop: () => Boolean): Boolean = {
    while (out.n < max) {
      if (a >= lg.n) {
        if (stop()) return true
        if (!nextGroup()) return false
      } else {
        val k  = kernel(0)
        val lo = a * lw
        if (b == 0) k.countLeft(lg.data, lo)
        while (b < rg.n && out.n < max) {
          if (k.passed(b)) k.appendJoined(lg.data, lo, rg.data, b * rw, out)
          b += 1
        }
        if (b >= rg.n) { b = 0; a += 1 }
      }
    }
    true
  }
}
