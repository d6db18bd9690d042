package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.Systems
import repro.core._
import repro.engine.{Engine, EngineConfig, Metrics, NetworkModel, PartitionedGraph}
import repro.graph.{DataGraph, GraphGen, QueryGraph, Queries}
import repro.spark.{BatchedRunner, CommAccounting, GraphDF}

/** A workload's graph: the generator of one `-lite` dataset
  * (`GraphGen.dataset`) with |V| and |E| divided by `scale`; the power-law
  * exponent and the degree cap stay. The dataset's own seed is the default;
  * any seed gives a graph of the same shape.
  */
final case class Shape(dataset: String, n: Int, m: Int, alpha: Double, maxDegree: Int,
                       defaultSeed: Long, scale: Int = 1) {
  def generate(seed: Long): DataGraph = GraphGen.powerLaw(n / scale, m / scale, alpha, seed, maxDegree)
  def label: String = if (scale == 1) s"$dataset-lite" else s"$dataset-lite/$scale"
  /** The engine runs these graphs at a third of their size: at full size one
    * query takes 4-9 s on a 4-core box, too few samples per run for a steady
    * median; at a third it takes 1-3 s.
    */
  def third: Shape = copy(scale = 3)
}

object Shape {
  val GO: Shape = Shape("GO", 6_000, 30_000, 0.55, 100, 101)
  val LJ: Shape = Shape("LJ", 50_000, 450_000, 0.55, 600, 102)
  val OR: Shape = Shape("OR", 32_000, 1_200_000, 0.50, 900, 103)
}

/** What one query returned. `engine` holds the engine's counters (engine
  * workloads only); `sparkPeakTaskBytes` is Spark's own largest per-task
  * peak execution memory (Spark workload only).
  */
final case class Sample(wallS: Double, count: Long, error: Option[String], dataflow: Op,
                        engine: Option[Metrics], batches: Int, sparkPeakTaskBytes: Long)

/** One benchmark workload: a query and a graph shape, run through one
  * execution path of the system. `setUp` may be called more than once; each
  * call replaces the previous state.
  */
sealed trait Workload {
  def name: String
  def shape: Shape
  def query: QueryGraph
  def graph: DataGraph
  def cost: CostModel
  def setUp(seed: Long, tr: Tracer): Unit
  def runQuery(tr: Tracer): Sample
  /** The workload's end-to-end C and T for a sample (bytes, seconds). */
  def commBytes(s: Sample): Long
  def paperTSec(s: Sample): Double
  def peakMemBytes(s: Sample): Long
  /** Warnings when the workload no longer uses the layer it was chosen for. */
  def purposeWarnings(s: Sample): Seq[String]
  def describe: String
  def close(): Unit = ()
}

object Workload {
  /** Cluster shape of every engine workload: 2 machines x 2 workers keeps at
    * most 4 threads busy and still exercises both intra-machine and
    * inter-machine work stealing.
    */
  val Machines = 2
  val WorkersPerMachine = 2
  /** A query that runs past this is cut by the engine's deadline and fails. */
  val TimeLimitSec = 60.0

  def byName(name: String): Workload = name match {
    case "square-lj"       => new EngineWorkload(name, Shape.LJ.third, Queries.q1, None)
    // The spill threshold sits below the per-machine join-side size, so the
    // external-merge path of PUSH-JOIN runs.
    case "cycle6-go"       => new EngineWorkload(name, Shape.GO.third, Queries.q8, Some(200_000))
    case "clique4-or"      => new EngineWorkload(name, Shape.OR.third, Queries.q3, None)
    // Spark's per-query cost is mostly fixed planning and scheduling work;
    // the full-size graph makes the data part large enough to be steady.
    case "square-go-spark" => new SparkWorkload(name, Shape.GO, Queries.q1)
    case other             => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def countOps(op: Op): (Int, Int, Int) = {
    val ops = op.sequence
    (ops.count { case e: PullExtend => !e.verify; case _ => false },
     ops.count { case e: PullExtend => e.verify; case _ => false },
     ops.count(_.isInstanceOf[PushJoin]))
  }
}

/** HUGE on the in-process k-machine engine, with the plan and engine knobs
  * `Systems` gives HUGE.
  */
final class EngineWorkload(val name: String, val shape: Shape, val query: QueryGraph,
                           spillThresholdRows: Option[Int]) extends Workload {
  import Workload._
  var graph: DataGraph = _
  var cost: CostModel = _
  private var pg: PartitionedGraph = _
  private var cfg: EngineConfig = _

  def setUp(seed: Long, tr: Tracer): Unit = {
    graph = tr.span("graph.generate")(shape.generate(seed))
    pg = tr.span("engine.partition")(new PartitionedGraph(graph, Machines))
    cost = tr.span("core.cost_model")(CostModel.of(graph))
    val base = EngineConfig(machines = Machines, workersPerMachine = WorkersPerMachine,
      batchSize = 4096, queueCapacityRows = 500_000, timeLimitSec = TimeLimitSec,
      net = NetworkModel.benchScaled)
    val huge = Systems.config("HUGE", base, graph)
    cfg = spillThresholdRows.fold(huge)(t => huge.copy(spillThresholdRows = t))
  }

  def runQuery(tr: Tracer): Sample = {
    ErrWatch.reset()
    val t0 = System.nanoTime()
    // The same call Systems.plan("HUGE", ...) makes, with the set-up's cost model.
    val plan = tr.span("core.optimise")(Optimiser.optimise(query, cost, OptimiserConfig.huge(Machines)))
    val op = tr.span("core.dataflow")(Dataflow.fromPlan(plan, query, query.symmetryConditions))
    val m = tr.span("engine.run")(Engine.run(op, pg, cfg))
    val wall = (System.nanoTime() - t0) / 1e9
    // Engine.run reports a worker exception on stderr and a fired deadline
    // only through a partial count; both are failures, never samples.
    val error =
      if (ErrWatch.written) Some("the engine wrote to stderr (worker exception)")
      else if (m.measuredWallSec >= cfg.timeLimitSec) Some(s"time limit ${cfg.timeLimitSec}s reached")
      else None
    Sample(wall, m.results.get, error, op, Some(m), 0, 0L)
  }

  def commBytes(s: Sample): Long = s.engine.get.commBytes
  def paperTSec(s: Sample): Double = s.engine.get.totalTimeSec
  def peakMemBytes(s: Sample): Long = s.engine.get.peakMemoryBytes

  def purposeWarnings(s: Sample): Seq[String] = {
    val (_, verify, joins) = Workload.countOps(s.dataflow)
    val m = s.engine.get
    name match {
      case "square-lj" =>
        (if (joins > 0) Seq(s"plan has $joins PUSH-JOIN(s); expected a PULL-EXTEND chain") else Nil) ++
          (if (m.cacheMisses.get == 0) Seq("no cache misses; the cache no longer thrashes") else Nil)
      case "cycle6-go" =>
        (if (joins == 0) Seq("plan has no PUSH-JOIN") else Nil) ++
          (if (m.spilledBytes.get == 0) Seq("PUSH-JOIN spilled nothing") else Nil)
      case "clique4-or" =>
        if (verify == 0) Seq("plan has no verify extend") else Nil
      case _ => Nil
    }
  }

  def describe: String =
    s"engine machines=$Machines workersPerMachine=$WorkersPerMachine batchSize=${cfg.batchSize} " +
      s"queueCapacityRows=${cfg.queueCapacityRows} cache=${cfg.cacheKind}:${cfg.cacheCapacityEntries} " +
      s"spillThresholdRows=${cfg.spillThresholdRows} net=benchScaled"
}

/** HUGE's dataflow compiled to Spark (Catalyst) and run in adaptive batches
  * by `BatchedRunner`.
  */
final class SparkWorkload(val name: String, val shape: Shape, val query: QueryGraph) extends Workload {
  import Workload._
  val Master = "local[4]"
  /** Row budget of the adaptive batch count; small enough that the runner
    * splits the pivot scan into several batches.
    */
  val BudgetRows = 500_000.0
  var graph: DataGraph = _
  var cost: CostModel = _
  private var spark: SparkSession = _
  private var edges: DataFrame = _
  private var adj: DataFrame = _
  // Spark reports each task's peak execution memory on the listener bus;
  // a query's figure is complete once the bus has seen the end of its jobs.
  @volatile private var peakTaskBytes = 0L
  private val endedJobs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
  private val listener = new SparkListener {
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (e.taskMetrics != null)
        peakTaskBytes = math.max(peakTaskBytes, e.taskMetrics.peakExecutionMemory)
    override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.add(e.jobId)
  }
  private var queries = 0
  private var commCache: Option[(Op, (Long, Long))] = None

  def setUp(seed: Long, tr: Tracer): Unit = {
    close()
    graph = tr.span("graph.generate")(shape.generate(seed))
    cost = tr.span("core.cost_model")(CostModel.of(graph))
    spark = tr.span("spark.session") {
      SparkSession.builder.master(Master).appName(s"perfbench-$name")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    }
    spark.sparkContext.setLogLevel("ERROR")
    spark.sparkContext.addSparkListener(listener)
    tr.span("spark.load") {
      edges = GraphDF.edges(spark, graph).cache()
      adj = GraphDF.adjacency(spark, graph).cache()
      edges.count(); adj.count()
    }
    commCache = None
  }

  def runQuery(tr: Tracer): Sample = {
    val sc = spark.sparkContext
    queries += 1
    val group = s"query-$queries"
    sc.setJobGroup(group, group)
    peakTaskBytes = 0L
    val t0 = System.nanoTime()
    try {
      val plan = tr.span("core.optimise")(Optimiser.optimise(query, cost, OptimiserConfig.huge(Machines)))
      val op = tr.span("core.dataflow")(Dataflow.fromPlan(plan, query, query.symmetryConditions))
      val r = tr.span("spark.count") {
        val b = BatchedRunner.adaptiveBatches(query, plan, cost, BudgetRows)
        BatchedRunner.countBatched(op, edges, adj, b)
      }
      val wall = (System.nanoTime() - t0) / 1e9
      val jobs = sc.statusTracker.getJobIdsForGroup(group)
      val waitUntil = System.nanoTime() + 10_000_000_000L
      while (!jobs.forall(endedJobs.contains) && System.nanoTime() < waitUntil) Thread.sleep(1)
      Sample(wall, r.count, None, op, None, r.batches, peakTaskBytes)
    } catch {
      case e: Exception =>
        Sample((System.nanoTime() - t0) / 1e9, -1L, Some(e.toString), null, None, 0, 0L)
    } finally sc.clearJobGroup()
  }

  /** Bytes the dataflow would push and pull on `Machines` machines, measured
    * on the data by `CommAccounting`. It depends only on the graph and the
    * plan, so it is measured once per plan.
    */
  def commTotals(op: Op): (Long, Long) = commCache match {
    case Some((o, t)) if o == op => t
    case _ =>
      val t = CommAccounting.totals(op, edges, adj, Machines)
      commCache = Some(op -> t)
      t
  }

  def commBytes(s: Sample): Long = { val (push, pull) = commTotals(s.dataflow); push + pull }

  /** T = T_R + T_C with the engine's accounting under the same network model. */
  def paperTSec(s: Sample): Double = {
    val m = new Metrics(Machines, NetworkModel.benchScaled)
    val (push, pull) = commTotals(s.dataflow)
    m.bytesPushed.set(push); m.bytesPulled.set(pull)
    m.measuredWallSec = s.wallS
    m.totalTimeSec
  }

  def peakMemBytes(s: Sample): Long = s.sparkPeakTaskBytes

  def purposeWarnings(s: Sample): Seq[String] =
    if (s.batches <= 1) Seq(s"BatchedRunner ran ${s.batches} batch; expected several") else Nil

  def describe: String = {
    val plan = Optimiser.optimise(query, cost, OptimiserConfig.huge(Machines))
    val peak = BatchedRunner.planIntermediates(plan).map(cost.estimate).max
    s"spark master=$Master shufflePartitions=8 budgetRows=$BudgetRows " +
      f"estPeakRows=$peak%.0f batches=${BatchedRunner.adaptiveBatches(query, plan, cost, BudgetRows)} " +
      s"commMachines=$Machines"
  }

  override def close(): Unit = if (spark != null) {
    spark.stop()
    spark = null
  }
}

/** Watches stderr so that a failure the engine only prints is still seen. */
object ErrWatch {
  @volatile private var dirty = false
  def written: Boolean = dirty
  def reset(): Unit = dirty = false
  def install(): Unit = {
    val orig = System.err
    System.setErr(new java.io.PrintStream(new java.io.OutputStream {
      def write(b: Int): Unit = { dirty = true; orig.write(b) }
      override def write(b: Array[Byte], off: Int, len: Int): Unit = {
        if (len > 0) dirty = true
        orig.write(b, off, len)
      }
      override def flush(): Unit = orig.flush()
    }, true))
  }
}
