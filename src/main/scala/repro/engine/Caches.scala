package repro.engine

/** Per-machine cache of remote adjacency lists (§4.4).
  *
  * The contract mirrors the paper's two-stage execution: `contains` /
  * `seal` / `insert` / `release` are called only by the machine's scheduler
  * thread during the *fetch* stage (single writer); `get` is called
  * concurrently by all workers during the *intersect* stage. LRBU makes the
  * read path lock-free and zero-copy; the Table 5 ablation variants
  * re-introduce copies and locks, and Cncr-LRU abandons the two-stage
  * protocol entirely (per-access fetching).
  */
trait NbrCache {
  /** Read path (intersect stage). Returns null when absent. */
  def get(v: Int): Array[Int]
  def contains(v: Int): Boolean
  def insert(v: Int, nbrs: Array[Int]): Unit
  def seal(v: Int): Unit
  def release(): Unit
  /** False for Cncr-LRU: the operator must fetch per access, not per batch. */
  def twoStage: Boolean = true
  def size: Int

  // Statistics (maintained by the operator, read by Metrics).
  val hits   = new java.util.concurrent.atomic.AtomicLong
  val misses = new java.util.concurrent.atomic.AtomicLong
}

object NbrCache {
  /** Factory for the Table 5 cache designs. */
  def apply(kind: String, capacity: Int): NbrCache = kind match {
    case "lrbu"      => new LrbuCache(capacity, copyOnGet = false, locked = false)
    case "lrbu-copy" => new LrbuCache(capacity, copyOnGet = true,  locked = false)
    case "lrbu-lock" => new LrbuCache(capacity, copyOnGet = true,  locked = true)
    case "lru-inf"   => new LruCache(Int.MaxValue, twoStage = true)
    case "cncr-lru"  => new LruCache(capacity, twoStage = false)
    case other       => sys.error(s"unknown cache kind $other")
  }
}

/** LRBU — least-recent-batch-used cache (Algorithm 3).
  *
  * Entries live in slot arrays (key, neighbour list, state) indexed by an
  * int-keyed open-addressing table (linear probing, backward-shift
  * deletion), so no vertex id is boxed. Every slot sits on one of two
  * intrusive doubly-linked lists threaded through `prev`/`next`:
  *  - S_free in the vertex order Ord: head = smallest = eviction candidate;
  *    inserted and released vertices go to the tail, i.e. get an order
  *    larger than all existing ones (Algorithm 3 line 12);
  *  - S_sealed in sealing order; `release` splices it onto S_free's tail.
  * An insert into a full cache evicts S_free's head and reuses its slot; if
  * S_free is empty the cache overflows, bounded by the number of remote
  * vertices in one batch (§4.4). Reads never mutate, so with the single
  * fetch-stage writer the cache is lock-free and (unless `copyOnGet`)
  * zero-copy; `copyOnGet` and `locked` add back exactly the copy and the
  * lock of the Table 5 ablations.
  */
final class LrbuCache(capacity: Int, copyOnGet: Boolean, locked: Boolean) extends NbrCache {
  import LrbuCache._

  private var keys  = new Array[Int](16)
  private var vals  = new Array[Array[Int]](16)
  private var prev  = new Array[Int](16)
  private var next  = new Array[Int](16)
  private var state = new Array[Byte](16)
  private var used  = 0 // slots 0 until used hold the live entries

  private var bits  = 5
  private var index = emptyIndex(1 << bits) // slot id or -1

  private var freeHead   = NoSlot
  private var freeTail   = NoSlot
  private var sealedHead = NoSlot
  private var sealedTail = NoSlot

  private def emptyIndex(n: Int): Array[Int] = {
    val t = new Array[Int](n)
    java.util.Arrays.fill(t, -1)
    t
  }

  private def home(v: Int): Int = hash(v) >>> (32 - bits)

  /** Index position of v, or -1. */
  private def position(v: Int): Int = {
    val mask = index.length - 1
    var i    = home(v)
    while (true) {
      val s = index(i)
      if (s < 0) return -1
      if (keys(s) == v) return i
      i = (i + 1) & mask
    }
    -1
  }

  private def slotOf(v: Int): Int = {
    val i = position(v)
    if (i < 0) -1 else index(i)
  }

  private def indexSlot(s: Int): Unit = {
    val mask = index.length - 1
    var i    = home(keys(s))
    while (index(i) >= 0) i = (i + 1) & mask
    index(i) = s
  }

  /** Remove the entry at index position i, shifting later entries of its
    * probe run back so lookups need no tombstones.
    */
  private def unindex(i0: Int): Unit = {
    val mask = index.length - 1
    var i    = i0
    var j    = i0
    while (true) {
      j = (j + 1) & mask
      val s = index(j)
      if (s < 0) { index(i) = -1; return }
      val h = home(keys(s))
      // The entry at j may fill the hole at i unless its home lies in (i, j].
      val stays = if (i <= j) i < h && h <= j else i < h || h <= j
      if (!stays) { index(i) = s; i = j }
    }
  }

  private def growSlots(): Unit = {
    val n = keys.length * 2
    keys  = java.util.Arrays.copyOf(keys, n)
    vals  = java.util.Arrays.copyOf(vals, n)
    prev  = java.util.Arrays.copyOf(prev, n)
    next  = java.util.Arrays.copyOf(next, n)
    state = java.util.Arrays.copyOf(state, n)
  }

  private def growIndex(): Unit = {
    bits += 1
    index = emptyIndex(1 << bits)
    var s = 0
    while (s < used) { indexSlot(s); s += 1 }
  }

  private def unlink(s: Int): Unit = {
    val p = prev(s); val n = next(s)
    if (state(s) == Free) {
      if (p == NoSlot) freeHead = n else next(p) = n
      if (n == NoSlot) freeTail = p else prev(n) = p
    } else {
      if (p == NoSlot) sealedHead = n else next(p) = n
      if (n == NoSlot) sealedTail = p else prev(n) = p
    }
  }

  private def appendFree(s: Int): Unit = {
    state(s) = Free
    prev(s) = freeTail; next(s) = NoSlot
    if (freeTail == NoSlot) freeHead = s else next(freeTail) = s
    freeTail = s
  }

  private def appendSealed(s: Int): Unit = {
    state(s) = Sealed
    prev(s) = sealedTail; next(s) = NoSlot
    if (sealedTail == NoSlot) sealedHead = s else next(sealedTail) = s
    sealedTail = s
  }

  private def read(v: Int): Array[Int] = {
    val s = slotOf(v)
    if (s < 0) null else if (copyOnGet) vals(s).clone() else vals(s)
  }

  def get(v: Int): Array[Int] = if (locked) this.synchronized(read(v)) else read(v)

  def contains(v: Int): Boolean = if (locked) this.synchronized(slotOf(v) >= 0) else slotOf(v) >= 0

  /** Insert a vertex that is not cached (the fetch stage inserts misses only). */
  def insert(v: Int, nbrs: Array[Int]): Unit = if (locked) this.synchronized(put(v, nbrs)) else put(v, nbrs)

  private def put(v: Int, nbrs: Array[Int]): Unit = {
    require(position(v) < 0, s"vertex $v is already cached")
    val s =
      if (used >= capacity && freeHead != NoSlot) {
        // Evict the vertex with the smallest order = the least recent batch.
        val victim = freeHead
        unlink(victim)
        unindex(position(keys(victim)))
        victim
      } else {
        if (used == keys.length) growSlots()
        used += 1
        if (used * 2 > index.length) growIndex()
        used - 1
      }
    keys(s) = v
    vals(s) = nbrs
    appendFree(s)
    indexSlot(s)
  }

  def seal(v: Int): Unit = if (locked) this.synchronized(sealIt(v)) else sealIt(v)

  private def sealIt(v: Int): Unit = {
    val s = slotOf(v)
    if (s >= 0 && state(s) == Free) { unlink(s); appendSealed(s) }
  }

  def release(): Unit = if (locked) this.synchronized(releaseAll()) else releaseAll()

  /** Move every sealed vertex, in sealing order, to the tail of the order. */
  private def releaseAll(): Unit = if (sealedHead != NoSlot) {
    var s = sealedHead
    while (s != NoSlot) { state(s) = Free; s = next(s) }
    prev(sealedHead) = freeTail
    if (freeTail == NoSlot) freeHead = sealedHead else next(freeTail) = sealedHead
    freeTail = sealedTail
    sealedHead = NoSlot; sealedTail = NoSlot
  }

  def size: Int = if (locked) this.synchronized(used) else used
}

object LrbuCache {
  private final val NoSlot = -1
  private final val Free: Byte   = 1
  private final val Sealed: Byte = 2

  /** The index hashes a vertex id multiplicatively and probes from the top
    * bits of the product, so ids whose hashes share their top b bits collide
    * in every table of up to 2^b positions.
    */
  private[engine] def hash(v: Int): Int = v * 0x9E3779B9
}

/** Classic LRU updated on every read — reads mutate recency, so every
  * access takes the lock. LRU-Inf is the two-stage protocol over an
  * unbounded LRU. Cncr-LRU (`twoStage = false`) is the paper's concurrent
  * LRU baseline: workers fetch remote adjacency on demand during the
  * intersection (per-access RPCs) and contend on the shared lock.
  */
final class LruCache(capacity: Int, override val twoStage: Boolean) extends NbrCache {
  private val map = new java.util.LinkedHashMap[Integer, Array[Int]](16, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Integer, Array[Int]]): Boolean =
      this.size() > capacity
  }
  def get(v: Int): Array[Int] = this.synchronized {
    val r = map.get(v)
    if (r != null) r.clone() else null
  }
  def contains(v: Int): Boolean = this.synchronized { map.containsKey(v) }
  def insert(v: Int, nbrs: Array[Int]): Unit = this.synchronized { map.put(v, nbrs); () }
  def seal(v: Int): Unit = ()
  def release(): Unit = ()
  def size: Int = this.synchronized { map.size() }
}
