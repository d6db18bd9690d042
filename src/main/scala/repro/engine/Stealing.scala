package repro.engine

import java.util.concurrent.{CountDownLatch, Executors, ThreadFactory}
import java.util.concurrent.atomic.AtomicReference

/** Per-machine worker pool implementing intra-machine work stealing (§5.3).
  *
  * The intersect stage of a batch is split into row chunks distributed
  * round-robin to per-worker deques. A worker pops from the *back* of its
  * own deque; when empty it picks a random victim and steals half of the
  * victim's chunks from the *front* (Chase–Lev style discipline over a
  * simple synchronized deque — the contention object is the shared cache,
  * not the deque, at this worker count).
  */
final class WorkerPool(val machine: Int, nWorkers: Int, metrics: Metrics) {
  require(nWorkers >= 1)

  private val exec = Executors.newFixedThreadPool(nWorkers, new ThreadFactory {
    private val n = new java.util.concurrent.atomic.AtomicInteger
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"m$machine-worker-${n.getAndIncrement()}")
      t.setDaemon(true); t
    }
  })

  /** Process the row indices `0 until n` in parallel: `task(w, from, until)`
    * runs the chunk `from until until` on worker `w` (`0 until nWorkers`;
    * a worker runs one chunk at a time, so per-worker state indexed by `w`
    * needs no lock). The caller thread blocks until every chunk is done (the
    * stage barrier of §4.2). Batches of at most one chunk, and single-worker
    * pools, run on the caller thread as worker 0. The first exception a
    * chunk throws is rethrown on the caller thread once every worker is done.
    */
  def run(n: Int, chunkSize: Int)(task: (Int, Int, Int) => Unit): Unit = {
    if (n == 0) return
    if (nWorkers == 1 || n <= chunkSize) { task(0, 0, n); return }
    val deques = Array.fill(nWorkers)(new java.util.ArrayDeque[Integer]())
    val chunks = (n + chunkSize - 1) / chunkSize
    for (c <- 0 until chunks) deques(c % nWorkers).addLast(c)
    val latch   = new CountDownLatch(nWorkers)
    val failure = new AtomicReference[Throwable]()
    for (w <- 0 until nWorkers) exec.execute { () =>
      val rng = java.util.concurrent.ThreadLocalRandom.current()
      try {
        var done = false
        while (!done && failure.get == null) {
          val chunk = deques(w).synchronized(deques(w).pollLast())
          if (chunk == null) {
            // Steal half of a random victim's remaining chunks from the front.
            val victim = rng.nextInt(nWorkers)
            if (victim != w) {
              val stolen = deques(victim).synchronized {
                val half = (deques(victim).size + 1) / 2
                (0 until half).flatMap(_ => Option(deques(victim).pollFirst()))
              }
              if (stolen.nonEmpty) {
                metrics.stealsIntra.incrementAndGet()
                deques(w).synchronized(stolen.foreach(deques(w).addLast))
              } else if (deques.forall(d => d.synchronized(d.isEmpty))) done = true
            } else if (deques.forall(d => d.synchronized(d.isEmpty))) done = true
          } else {
            val from = chunk.intValue * chunkSize
            task(w, from, math.min(n, from + chunkSize))
          }
        }
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
      finally latch.countDown()
    }
    latch.await()
    if (failure.get != null) throw failure.get
  }

  def shutdown(): Unit = exec.shutdownNow()
}

/** A bounded FIFO of row batches — the fixed-capacity output queue Q_O that
  * drives the DFS/BFS-adaptive scheduler (§5.2). Thread-safe because
  * inter-machine thieves dequeue from remote machines' queues.
  */
final class BatchQueue(capacityRows0: Long, val rowWidth: Int, machine: Int, metrics: Metrics) {
  /** Capacity 1 row = DFS-style scheduling (one batch in flight); the
    * queue still accepts the overflow of the producing batch (§5.2).
    */
  val capacityRows: Long = math.max(1L, capacityRows0)
  private val q = new java.util.ArrayDeque[Rows]()
  private var rowCount: Long = 0L

  /** Queue a batch; the queue owns it from now on. */
  def enqueue(batch: Rows): Unit = {
    require(batch.width == rowWidth, s"row width ${batch.width}, queue holds $rowWidth")
    if (batch.n > 0) this.synchronized {
      q.addLast(batch)
      rowCount += batch.n
      metrics.memAdd(machine, batch.bytes)
    }
  }

  def tryDequeue(): Rows = this.synchronized {
    val b = q.pollFirst()
    if (b != null) { rowCount -= b.n; metrics.memAdd(machine, -b.bytes) }
    b
  }

  /** Drop every queued batch (a run that stopped early). */
  def clear(): Unit = this.synchronized {
    metrics.memAdd(machine, -4L * rowCount * rowWidth)
    q.clear()
    rowCount = 0
  }

  def isFull: Boolean  = this.synchronized(rowCount >= capacityRows)
  def isEmpty: Boolean = this.synchronized(q.isEmpty)
  def rows: Long       = this.synchronized(rowCount)
}
