package repro.engine

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicReference}
import repro.core._

/** Engine configuration — one per "system" (HUGE and every baseline run on
  * the same engine with different knobs, the paper's plug-in story).
  *
  * @param queueCapacityRows fixed capacity of every operator output queue
  *        (Algorithm 5): small => DFS-style, huge => BFS-style scheduling
  * @param pushExtends      BiGJoin-native: extends *push* the partial
  *        results machine-to-machine instead of pulling adjacency
  * @param externalStore    BENU-native: all adjacency (even local) is read
  *        through an external KV store — per-access RPC + modelled latency
  * @param interStealing    inter-machine StealWork (§5.3)
  */
final case class EngineConfig(
    machines: Int = 4,
    workersPerMachine: Int = 2,
    batchSize: Int = 2048,
    queueCapacityRows: Long = 200_000,
    cacheKind: String = "lrbu",
    cacheCapacityEntries: Int = 50_000,
    pushExtends: Boolean = false,
    externalStore: Boolean = false,
    spillThresholdRows: Int = 2_000_000,
    interStealing: Boolean = true,
    chunkSize: Int = 512,
    timeLimitSec: Double = Double.PositiveInfinity,
    net: NetworkModel = NetworkModel(),
)

/** Execution structure (§5.4): the operator tree is cut at PUSH-JOINs into
  * linear chains; chains run as stages in topological order with a global
  * barrier between stages.
  */
sealed trait ChainSource { def op: Op }
final case class ScanSrc(op: ScanEdge)  extends ChainSource
final case class JoinSrc(spec: JoinSpec) extends ChainSource { def op: Op = spec.op }

sealed trait ChainSink
case object CountSink                                 extends ChainSink
final case class JoinSink(spec: JoinSpec, side: Int)  extends ChainSink

final case class Stage(source: ChainSource, exts: Vector[PullExtend], sink: ChainSink)

/** Shared state of one PUSH-JOIN: per-machine, per-side spill buffers. */
final class JoinSpec(val op: PushJoin, cfg: EngineConfig, metrics: Metrics) {
  val keyCols: Array[Array[Int]] = Array(op.key.map(op.left.col).toArray, op.key.map(op.right.col).toArray)
  val widths: Array[Int] = Array(op.left.matched.length, op.right.matched.length)
  val buffers: Array[Array[JoinSideBuffer]] = Array.tabulate(cfg.machines, 2) { (m, side) =>
    new JoinSideBuffer(widths(side), keyCols(side), cfg.spillThresholdRows, m, metrics)
  }

  /** Machine owning the join-key bucket of the row at `row(off ..)`. */
  def route(row: Array[Int], off: Int, side: Int): Int = {
    val cols = keyCols(side)
    var h = 17
    var i = 0
    while (i < cols.length) { h = h * 31 + row(off + cols(i)) * 0x9E3779B9; i += 1 }
    (h >>> 8) % cfg.machines
  }

  /** Key-aligned merge join over machine m's buckets, with a pair kernel
    * per worker.
    */
  def mergeJoin(m: Int): MergeJoin =
    new MergeJoin(Array.fill(cfg.workersPerMachine)(new Kernels.PairJoin(op)),
                  buffers(m)(0).merged(), keyCols(0), buffers(m)(1).merged(), keyCols(1))

  def clear(): Unit = buffers.foreach(_.foreach(_.clear()))
}

object Stages {
  /** Cut the operator tree at PUSH-JOINs; topological order (left, right,
    * then the join's own chain) — §5.4's DAG of subgraphs.
    */
  def compile(root: Op, cfg: EngineConfig, metrics: Metrics): Vector[Stage] = {
    def decompose(op: Op, sink: ChainSink): Vector[Stage] = {
      var exts = List.empty[PullExtend]
      var cur  = op
      while (cur.isInstanceOf[PullExtend]) {
        val e = cur.asInstanceOf[PullExtend]
        exts = e :: exts
        cur = e.input
      }
      (cur: @unchecked) match {
        case s: ScanEdge => Vector(Stage(ScanSrc(s), exts.toVector, sink))
        case j: PushJoin =>
          val spec = new JoinSpec(j, cfg, metrics)
          decompose(j.left, JoinSink(spec, 0)) ++
            decompose(j.right, JoinSink(spec, 1)) :+
            Stage(JoinSrc(spec), exts.toVector, sink)
      }
    }
    decompose(root, CountSink)
  }
}

/** The HUGE compute engine: k simulated machines, each with an Algorithm-5
  * scheduler thread, a worker pool with intra-machine stealing, an LRBU (or
  * ablation) cache, and modelled network accounting. See DESIGN.md.
  */
object Engine {

  /** Run the dataflow to completion, or until the time limit (then the
    * count is partial). An exception on any machine or worker is rethrown
    * here once every machine has stopped.
    */
  def run(dataflow: Op, pg: PartitionedGraph, cfg: EngineConfig): Metrics = {
    require(pg.k == cfg.machines, "partition count must equal machine count")
    val metrics = new Metrics(cfg.machines, cfg.net)
    val stages  = Stages.compile(dataflow, cfg, metrics)
    val k       = cfg.machines

    val caches  = Array.fill(k)(NbrCache(cfg.cacheKind, cfg.cacheCapacityEntries))
    val pools   = Array.tabulate(k)(m => new WorkerPool(m, cfg.workersPerMachine, metrics))
    val barrier = new CyclicBarrier(k)
    @volatile var aborted = false
    val failure  = new AtomicReference[Throwable]()
    def fail(e: Throwable): Unit = { failure.compareAndSet(null, e); aborted = true }
    val deadline = if (cfg.timeLimitSec.isInfinity) Long.MaxValue
                   else System.nanoTime() + (cfg.timeLimitSec * 1e9).toLong

    val boards = stages.map(s => new StageBoard(s, k))

    val t0 = System.nanoTime()
    try {
      val threads = (0 until k).map { m =>
        val t = new Thread(() => {
          try {
            for ((stage, si) <- stages.zipWithIndex) {
              // A failing machine keeps meeting the barriers, so the others
              // see `aborted` and stop instead of waiting for it.
              var runner: MachineRunner = null
              try {
                runner = new MachineRunner(m, stage, boards(si), pg, caches(m), pools(m),
                                           cfg, metrics, deadline, () => aborted, () => { aborted = true })
                boards(si).register(m, runner)
              } catch { case e: Throwable => fail(e) }
              barrier.await() // all runners registered
              try if (!aborted) runner.runStage()
              catch { case e: Throwable => fail(e) }
              barrier.await() // stage complete everywhere
              stage.source match {
                case JoinSrc(spec) => spec.buffers(m).foreach(_.clear())
                case _             =>
              }
            }
          } catch { case e: Throwable => fail(e); barrier.reset() }
        }, s"machine-$m")
        t.start(); t
      }
      threads.foreach(_.join())
    } finally {
      pools.foreach(_.shutdown())
      stages.foreach {
        case Stage(JoinSrc(spec), _, _) => spec.clear()
        case _                          =>
      }
      for (b <- boards; m <- 0 until k if b(m) != null) b(m).queues.foreach(_.clear())
    }
    metrics.measuredWallSec = (System.nanoTime() - t0) / 1e9
    caches.foreach { c =>
      metrics.cacheHits.addAndGet(c.hits.get)
      metrics.cacheMisses.addAndGet(c.misses.get)
    }
    if (failure.get != null) throw failure.get
    metrics
  }

  /** Convenience: build the dataflow for q under `plan` and run it. */
  def runPlan(plan: PlanNode, q: repro.graph.QueryGraph, pg: PartitionedGraph,
              cfg: EngineConfig, symmetry: Boolean = true): Metrics = {
    val conds = if (symmetry) q.symmetryConditions else Vector.empty
    run(Dataflow.fromPlan(plan, q, conds), pg, cfg)
  }
}

/** Registry of the k runners of the current stage (for inter-machine
  * stealing and termination detection).
  */
final class StageBoard(val stage: Stage, k: Int) {
  private val runners = new Array[MachineRunner](k)
  // Written by each machine's thread, read by all of them.
  private val idle    = new AtomicIntegerArray(k)
  def register(m: Int, r: MachineRunner): Unit = runners(m) = r
  def apply(m: Int): MachineRunner = runners(m)
  def setIdle(m: Int, isIdle: Boolean): Unit = idle.set(m, if (isIdle) 1 else 0)
  def allDone: Boolean =
    (0 until k).forall { m =>
      idle.get(m) == 1 && runners(m) != null && runners(m).ownWorkExhausted
    }
}

/** One machine's execution of one stage: the Algorithm-5 scheduler walk,
  * source generation, two-stage PULL-EXTENDs, sinks, and StealWork.
  */
final class MachineRunner(val m: Int, stage: Stage, board: StageBoard,
                          pg: PartitionedGraph, cache: NbrCache, pool: WorkerPool,
                          cfg: EngineConfig, metrics: Metrics, deadlineNanos: Long,
                          isAborted: () => Boolean, abort: () => Unit) {

  private val e = stage.exts.length
  val queues: Array[BatchQueue] = stage.exts.map { ex =>
    new BatchQueue(cfg.queueCapacityRows, ex.input.matched.length, m, metrics)
  }.toArray

  // Per-extend kernel state; the last extend of a counting stage only counts.
  private val kernels: Array[Kernels.ExtendKernel] = stage.exts.zipWithIndex.map { case (ex, i) =>
    new Kernels.ExtendKernel(ex, countOnly = i == e - 1 && stage.sink == CountSink)
  }.toArray
  private val scratch: Array[Kernels.Scratch] = {
    val maxPivots = (stage.exts.map(_.ext.length) :+ 1).max
    Array.fill(cfg.workersPerMachine)(new Kernels.Scratch(maxPivots))
  }
  // Per-extend output buffers, one per worker, reused batch after batch. A
  // stolen batch's depth-first pipeline holds one extend's output while the
  // next extend runs, so each extend has its own.
  private val outs: Array[Array[Rows]] = stage.exts.map { ex =>
    Array.fill(cfg.workersPerMachine)(new Rows(ex.matched.length))
  }.toArray

  // ---- source state -------------------------------------------------------
  private var sourceDone = false
  // Local vertices in multiplicative-hash order: with hub-first vertex ids
  // (our generators place hubs at low ids) a sequential scan would start
  // with the most expensive pivots; hashing spreads them evenly, which is
  // what a random partition of a real graph looks like.
  private val scanLocal: Array[Int] = stage.source match {
    case ScanSrc(_) => pg.localVertices(m).toArray.sortBy(v => v * 0x9E3779B9)
    case _          => Array.emptyIntArray
  }
  private val scanConds = Kernels.condCols(stage.source.op)
  private var scanVertexIdx = 0
  private var join: MergeJoin = null
  // Pairs per worker chunk when a large key group is counted in parallel.
  private val JoinChunkPairs = 1L << 14
  // A join stage with no extends that feeds the count sink only counts.
  private val countJoin = e == 0 && stage.sink == CountSink

  def ownWorkExhausted: Boolean = sourceDone && queues.forall(_.isEmpty)

  private def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos) abort()

  // ---- Algorithm 5 --------------------------------------------------------
  def runStage(): Unit = {
    while (!isAborted()) {
      val worked = runOwnWork()
      if (!worked) {
        val stole = cfg.interStealing && trySteal()
        if (!stole) {
          board.setIdle(m, true)
          if (board.allDone) return
          Thread.sleep(0, 200_000)
          board.setIdle(m, false)
        } else board.setIdle(m, false)
      }
    }
  }

  /** The DFS/BFS-adaptive walk: returns true if any batch was processed. */
  private def runOwnWork(): Boolean = {
    var worked = false
    var p      = 0
    var done   = false
    while (!done && !isAborted()) {
      checkDeadline()
      if (p == 0) {
        if (!sourceDone) { worked = generateSource() || worked }
        if (e == 0) done = true
        else p = 1
      } else {
        val qi = p - 1
        if (queues(qi).isEmpty) {
          if ((0 until qi).exists(i => !queues(i).isEmpty) || !sourceDone) p -= 1
          else {
            (qi + 1 until e).find(i => !queues(i).isEmpty) match {
              case Some(d) => p = d + 1
              case None    => done = true
            }
          }
        } else {
          worked = drainExtend(qi) || worked
          if (p < e) p += 1
        }
      }
    }
    worked
  }

  /** Run extend qi until its input is empty or its output queue is full. */
  private def drainExtend(qi: Int): Boolean = {
    var worked = false
    def outFull = qi + 1 < e && queues(qi + 1).isFull
    while (!queues(qi).isEmpty && !outFull && !isAborted()) {
      checkDeadline()
      val batch = queues(qi).tryDequeue()
      if (batch != null) {
        worked = true
        processExtendBatch(qi, batch, 0, batch.n, out => emit(out, qi))
      }
    }
    worked
  }

  /** `f(from, until)` over consecutive ranges of at most `batchSize` of `n` rows. */
  private def batches(n: Int)(f: (Int, Int) => Unit): Unit =
    for (from <- 0 until n by cfg.batchSize) f(from, math.min(n, from + cfg.batchSize))

  private def emit(rows: Rows, fromExt: Int): Unit = {
    if (fromExt + 1 < e) batches(rows.n)((from, until) => queues(fromExt + 1).enqueue(rows.slice(from, until)))
    else if (!kernels(fromExt).countOnly) sinkRows(rows)
  }

  // Per-target staging of one output chunk bound for a join side.
  private val staged: Array[Rows] = stage.sink match {
    case JoinSink(spec, side) => Array.fill(cfg.machines)(new Rows(spec.widths(side)))
    case CountSink            => Array.empty
  }

  /** Count the rows, or route the whole chunk to the join buffers with one
    * `add` (and one pushed-bytes update) per target machine.
    */
  private def sinkRows(rows: Rows): Unit = stage.sink match {
    case CountSink => metrics.results.addAndGet(rows.n)
    case JoinSink(spec, side) =>
      staged.foreach(_.clear())
      var off = 0
      while (off < rows.n * rows.width) {
        staged(spec.route(rows.data, off, side)).add(rows.data, off)
        off += rows.width
      }
      var t = 0
      while (t < cfg.machines) {
        val st = staged(t)
        if (st.n > 0) {
          if (t != m) metrics.bytesPushed.addAndGet(st.bytes)
          spec.buffers(t)(side).add(st.data, st.n)
        }
        t += 1
      }
  }

  // ---- sources ------------------------------------------------------------
  /** Generate source batches until the first queue is full (or source ends).
    * With e == 0 rows go straight to the sink.
    */
  private def generateSource(): Boolean = {
    var worked = false
    var batch  = new Rows(stage.source.op.matched.length)
    // A queued batch belongs to its queue; a sunk one is copied out.
    def flush(): Unit = if (batch.n > 0) {
      worked = true
      if (e > 0) { queues(0).enqueue(batch); batch = new Rows(batch.width) }
      else { sinkRows(batch); batch.clear() }
    }
    stage.source match {
      case ScanSrc(_) =>
        val edge = new Array[Int](2)
        while (!sourceDone && !(e > 0 && queues(0).isFull) && !isAborted()) {
          checkDeadline()
          if (scanVertexIdx >= scanLocal.length) { sourceDone = true }
          else {
            val u  = scanLocal(scanVertexIdx)
            val ns = pg.localNbrs(u, m)
            edge(0) = u
            var i  = 0
            while (i < ns.length) {
              edge(1) = ns(i)
              if (Kernels.condsOkFast(scanConds, edge, 0)) batch.add(edge, 0)
              i += 1
            }
            scanVertexIdx += 1
            if (batch.n >= cfg.batchSize) flush()
          }
        }
        flush()
      case JoinSrc(spec) =>
        if (join == null) join = spec.mergeJoin(m)
        if (countJoin) worked = countJoinGroups()
        else {
          val stop = () => { checkDeadline(); isAborted() }
          while (!sourceDone && !(e > 0 && queues(0).isFull) && !isAborted()) {
            if (!join.fill(batch, cfg.batchSize, stop)) sourceDone = true
            flush()
          }
        }
    }
    worked
  }

  /** Count-fused join: count each key group's pairs and build no rows. A
    * large group is counted in chunks of left rows by the workers.
    */
  private def countJoinGroups(): Boolean = {
    var worked = false
    var n = 0L
    while (!isAborted() && join.nextGroup()) {
      if (join.groupPairs < 4 * JoinChunkPairs) n += join.countGroup()
      else {
        val chunk = math.max(1L, JoinChunkPairs / join.rightRows).toInt
        pool.run(join.leftRows, chunk) { (w, from, until) =>
          if (!isAborted()) metrics.results.addAndGet(join.countRows(w, from, until))
        }
      }
      worked = true
      checkDeadline()
    }
    metrics.results.addAndGet(n)
    sourceDone = true
    worked
  }

  // ---- PULL-EXTEND (Algorithm 4) ------------------------------------------
  /** Process rows `from until until` of a batch, emitting bounded output
    * chunks. The rows are first split into sub-ranges whose *expected
    * expansion* (sum over rows of the smallest pivot degree — an upper
    * bound on the intersection size) is bounded: one 20k-degree hub row can
    * otherwise blow a 4096-row batch up to 10^8 output rows in a single
    * burst, stalling the window and overflowing memory far beyond the queue
    * bound. A counting extend emits empty chunks. A chunk's buffer is reused
    * for the next sub-range.
    */
  private def processExtendBatch(qi: Int, batch: Rows, from: Int, until: Int, emit: Rows => Unit): Unit = {
    val pivotCols = kernels(qi).pivotCols
    val maxExpansion = math.max(cfg.batchSize.toLong * 8, 32768L)
    var start = from
    var acc   = 0L
    var i     = from
    while (i < until) {
      var minDeg = Int.MaxValue
      var pc = 0
      while (pc < pivotCols.length) {
        val d = pg.g.degree(batch.data(i * batch.width + pivotCols(pc))) // degree = graph metadata
        if (d < minDeg) minDeg = d
        pc += 1
      }
      acc += minDeg
      i += 1
      if (acc >= maxExpansion || i == until) {
        emit(processExtendSub(qi, batch, start, i))
        start = i
        acc = 0L
      }
    }
  }

  /** Extend rows `from until until` of `batch`; returns the output rows. */
  private def processExtendSub(qi: Int, batch: Rows, from: Int, until: Int): Rows = {
    val pivotCols = kernels(qi).pivotCols
    val w         = batch.width
    if (cfg.pushExtends) {
      // BiGJoin-native: each partial result travels to the owner of every
      // extension pivot in turn; the intersection itself is then local.
      var off = from * w
      while (off < until * w) {
        var prev = m
        var i    = 0
        while (i < pivotCols.length) {
          val o = pg.owner(batch.data(off + pivotCols(i)))
          if (o != prev) { metrics.bytesPushed.addAndGet(4L * w); prev = o }
          i += 1
        }
        off += w
      }
      return intersectStage(qi, batch, from, until, v => pg.serveNbrs(v))
    }

    if (cache.twoStage) {
      // ---- fetch stage (single writer: this scheduler thread) ----
      val tf = System.nanoTime()
      val remote = new Kernels.IntSet(until - from)
      var off = from * w
      while (off < until * w) {
        var i = 0
        while (i < pivotCols.length) {
          val v = batch.data(off + pivotCols(i))
          if (cfg.externalStore || pg.owner(v) != m) remote.add(v)
          i += 1
        }
        off += w
      }
      // Seal the cached vertices; compact the misses to the front.
      val fetch  = remote.toArray
      var misses = 0
      var i      = 0
      while (i < fetch.length) {
        val v = fetch(i)
        if (cache.contains(v)) cache.seal(v)
        else { fetch(misses) = v; misses += 1 }
        i += 1
      }
      cache.hits.addAndGet(fetch.length - misses)
      cache.misses.addAndGet(misses)
      if (misses > 0) {
        if (cfg.externalStore) {
          // One store access per vertex; the store round-trip latency is
          // client-side overhead and is accounted as compute (kvAccesses),
          // not as network RPC time — the paper's observation that BENU's
          // store overhead inflates T_R, not T_C.
          metrics.kvAccesses.addAndGet(misses)
        } else {
          // Bulk GetNbrs: one RPC per distinct owner machine per batch.
          val owners = new Array[Boolean](cfg.machines)
          i = 0
          while (i < misses) { owners(pg.owner(fetch(i))) = true; i += 1 }
          metrics.rpcs.addAndGet(owners.count(identity))
        }
        i = 0
        while (i < misses) {
          val v  = fetch(i)
          val ns = pg.serveNbrs(v)
          metrics.bytesPulled.addAndGet(4L + 4L * ns.length)
          cache.insert(v, ns)
          cache.seal(v) // every vertex used by this batch stays resident
          i += 1
        }
      }
      metrics.fetchNanos.addAndGet(System.nanoTime() - tf)

      // ---- intersect stage (workers, lock-free reads) ----
      val out = intersectStage(qi, batch, from, until, { v =>
        if (!cfg.externalStore && pg.owner(v) == m) pg.localNbrs(v, m) else cache.get(v)
      })
      cache.release()
      out
    } else {
      // Per-access mode (Cncr-LRU / BENU): fetch inside the intersection.
      intersectStage(qi, batch, from, until, { v =>
        if (!cfg.externalStore && pg.owner(v) == m) pg.localNbrs(v, m)
        else {
          var ns = cache.get(v)
          if (ns != null) cache.hits.incrementAndGet()
          else {
            cache.misses.incrementAndGet()
            ns = pg.serveNbrs(v)
            metrics.bytesPulled.addAndGet(4L + 4L * ns.length)
            if (cfg.externalStore) metrics.kvAccesses.incrementAndGet()
            else metrics.rpcs.incrementAndGet()
            cache.insert(v, ns)
          }
          ns
        }
      })
    }
  }

  /** Run extend qi's kernel over rows `from until until` of `batch` on the
    * worker pool. Each worker appends to its own output buffer with its own
    * scratch; a counting kernel adds each chunk's survivors to the result
    * count instead. Returns the outputs in worker order, in worker 0's buffer.
    */
  private def intersectStage(qi: Int, batch: Rows, from: Int, until: Int,
                             nbrs: Kernels.NbrSource): Rows = {
    val kernel = kernels(qi)
    val out    = outs(qi)
    out.foreach(_.clear())
    pool.run(until - from, cfg.chunkSize) { (w, a, b) =>
      val s = scratch(w)
      var n = 0L
      var i = from + a
      while (i < from + b && !isAborted() && System.nanoTime() <= deadlineNanos) {
        n += kernel(batch.data, i * batch.width, nbrs, s, out(w))
        i += 1
      }
      if (kernel.countOnly) metrics.results.addAndGet(n)
    }
    for (o <- out.tail) out(0).add(o.data, 0, o.n)
    out(0)
  }

  // ---- inter-machine StealWork (§5.3) --------------------------------------
  private def trySteal(): Boolean = {
    val rng   = java.util.concurrent.ThreadLocalRandom.current()
    val order = rng.ints(0, cfg.machines).distinct().limit(cfg.machines.toLong).toArray
    for (victimId <- order if victimId != m) {
      val victim = board(victimId)
      if (victim != null) {
        // Top-most unfinished operator: the earliest non-empty input queue.
        var qi = 0
        while (qi < victim.queues.length) {
          val batch = victim.queues(qi).tryDequeue()
          if (batch != null) {
            metrics.stealsInter.incrementAndGet()
            metrics.rpcs.incrementAndGet() // the StealWork RPC
            metrics.stolenBytes.addAndGet(batch.bytes)
            pipelineFrom(qi, batch, 0, batch.n)
            return true
          }
          qi += 1
        }
      }
    }
    false
  }

  /** Depth-first local pipeline for stolen rows `from until until` of
    * `batch`: run ops qi..e-1 with bounded sub-batches (no queues involved).
    */
  private def pipelineFrom(qi: Int, batch: Rows, from: Int, until: Int): Unit = {
    if (isAborted()) return
    processExtendBatch(qi, batch, from, until, { out =>
      if (qi + 1 < e) batches(out.n)((a, b) => pipelineFrom(qi + 1, out, a, b))
      else if (!kernels(qi).countOnly) sinkRows(out)
    })
  }
}
