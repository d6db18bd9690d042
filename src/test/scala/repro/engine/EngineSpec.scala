package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph._

/** End-to-end correctness of the distributed engine: every configuration
  * (scheduling mode, cache design, communication mode, stealing, spilling)
  * must return the exact reference subgraph count.
  */
class EngineSpec extends AnyFunSuite {

  val cost = CostModel.of(TestGraphs.pl)

  def base(k: Int = 3): EngineConfig = EngineConfig(
    machines = k, workersPerMachine = 2, batchSize = 256,
    queueCapacityRows = 5000, cacheCapacityEntries = 128)

  def expected(q: QueryGraph, g: DataGraph): Long = LocalEnum.countSubgraphs(q, g)

  def hugeRun(q: QueryGraph, g: DataGraph, cfg: EngineConfig,
              plan: QueryGraph => PlanNode = null): Metrics = {
    val p  = if (plan == null) Optimiser.optimise(q, cost, OptimiserConfig.huge(cfg.machines)) else plan(q)
    val pg = new PartitionedGraph(g, cfg.machines)
    Engine.runPlan(p, q, pg, cfg)
  }

  // --- core correctness matrix ---------------------------------------------
  for ((qn, q) <- Queries.all; (gn, g) <- Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road))
    test(s"engine count matches reference: $qn on $gn (HUGE plan)") {
      assert(hugeRun(q, g, base()).results.get == expected(q, g))
    }

  for ((qn, q) <- Seq("q1" -> Queries.q1, "q3" -> Queries.q3, "q7" -> Queries.q7))
    test(s"engine count with k=1 machine: $qn") {
      assert(hugeRun(q, TestGraphs.pl, base(1)).results.get == expected(q, TestGraphs.pl))
    }

  // --- count-fused sink -----------------------------------------------------
  // The last extend of a counting stage counts survivors without building
  // rows, on queued and on stolen batches alike: DFS queues keep batches
  // small, so machines run dry often and steal.
  for ((qn, q) <- Queries.all; (gn, g) <- Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road);
       k <- Seq(1, 2, 3))
    test(s"count-fused sink is exact: $qn on $gn, k=$k, DFS queues, stealing on") {
      val cfg = base(k).copy(queueCapacityRows = 1, interStealing = true)
      assert(hugeRun(q, g, cfg).results.get == expected(q, g))
    }

  test("q3's HUGE dataflow ends in a verify extend feeding the count sink") {
    val op = Dataflow.fromPlan(Optimiser.optimise(Queries.q3, cost, OptimiserConfig.huge(3)),
                               Queries.q3, Queries.q3.symmetryConditions)
    assert(op.isInstanceOf[PullExtend] && op.asInstanceOf[PullExtend].verify, op)
  }

  // --- plugged baseline plans ----------------------------------------------
  val pluggedPlans: Seq[(String, QueryGraph => PlanNode)] = Seq(
    "SEED"     -> ((q: QueryGraph) => LogicalPlans.seed(q, cost, 3)),
    "BiGJoin"  -> ((q: QueryGraph) => LogicalPlans.bigJoin(q)),
    "BENU"     -> ((q: QueryGraph) => LogicalPlans.benu(q)),
    "RADS"     -> ((q: QueryGraph) => LogicalPlans.rads(q)),
    "StarJoin" -> ((q: QueryGraph) => LogicalPlans.starJoin(q)),
    "EH"       -> ((q: QueryGraph) => LogicalPlans.emptyHeaded(q, cost)),
    "GF"       -> ((q: QueryGraph) => LogicalPlans.graphFlow(q, cost)),
  )
  for ((pn, mk) <- pluggedPlans; (qn, q) <- Seq("q1" -> Queries.q1, "q2" -> Queries.q2, "q7" -> Queries.q7))
    test(s"plugged $pn plan on engine: $qn") {
      assert(hugeRun(q, TestGraphs.pl, base(), mk).results.get == expected(q, TestGraphs.pl))
    }

  // --- scheduling modes -----------------------------------------------------
  test("DFS-style scheduling (queue capacity 1) is exact") {
    val cfg = base().copy(queueCapacityRows = 1)
    assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
  }

  test("BFS-style scheduling (huge queues) is exact") {
    val cfg = base().copy(queueCapacityRows = Long.MaxValue / 2)
    assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
  }

  test("adaptive scheduling bounds queued memory: small queues => smaller peak") {
    val big   = hugeRun(Queries.q2, TestGraphs.pl, base().copy(queueCapacityRows = Long.MaxValue / 2))
    val small = hugeRun(Queries.q2, TestGraphs.pl, base().copy(queueCapacityRows = 64))
    assert(small.peakMemoryBytes < big.peakMemoryBytes,
      s"small=${small.peakMemoryBytes} big=${big.peakMemoryBytes}")
  }

  // --- cache designs --------------------------------------------------------
  for (kind <- Seq("lrbu", "lrbu-copy", "lrbu-lock", "lru-inf", "cncr-lru"))
    test(s"cache design $kind is exact") {
      val cfg = base().copy(cacheKind = kind)
      assert(hugeRun(Queries.q1, TestGraphs.pl, cfg).results.get == expected(Queries.q1, TestGraphs.pl))
    }

  test("cache hit rate grows with capacity") {
    val tinyCache = hugeRun(Queries.q1, TestGraphs.pl, base().copy(cacheCapacityEntries = 2))
    val bigCache  = hugeRun(Queries.q1, TestGraphs.pl, base().copy(cacheCapacityEntries = 100000))
    assert(bigCache.hitRate > tinyCache.hitRate)
    assert(bigCache.bytesPulled.get < tinyCache.bytesPulled.get)
  }

  // --- communication modes --------------------------------------------------
  test("pure pulling plan pushes zero bytes; k=1 pulls zero bytes") {
    val m = hugeRun(Queries.q3, TestGraphs.pl, base())
    assert(m.bytesPushed.get == 0, "4-clique plan is all PULL-EXTEND")
    val solo = hugeRun(Queries.q3, TestGraphs.pl, base(1))
    assert(solo.bytesPulled.get == 0, "one machine owns everything")
  }

  test("pushExtends (BiGJoin-native) counts pushed bytes instead of pulls") {
    val cfg = base().copy(pushExtends = true)
    val m   = hugeRun(Queries.q1, TestGraphs.pl, cfg, LogicalPlans.bigJoin)
    assert(m.results.get == expected(Queries.q1, TestGraphs.pl))
    assert(m.bytesPushed.get > 0 && m.bytesPulled.get == 0)
  }

  test("externalStore (BENU-native) counts kv accesses") {
    val cfg = base().copy(externalStore = true, cacheKind = "cncr-lru",
                          cacheCapacityEntries = 64, queueCapacityRows = 1)
    val m = hugeRun(Queries.q1, TestGraphs.pl, cfg, LogicalPlans.benu)
    assert(m.results.get == expected(Queries.q1, TestGraphs.pl))
    assert(m.kvAccesses.get > 0)
    assert(m.modelledComputeSec > 0)
  }

  test("push-join plan (5-path) is exact and pushes bytes") {
    val m = hugeRun(Queries.q7, TestGraphs.pl, base())
    assert(m.results.get == expected(Queries.q7, TestGraphs.pl))
    assert(m.bytesPushed.get > 0, "the top join shuffles both sides")
  }

  test("SEED plan (all pushing hash joins) is exact on a bushy query") {
    val m = hugeRun(Queries.q5, TestGraphs.pl, base(), q => LogicalPlans.seed(q, cost, 3))
    assert(m.results.get == expected(Queries.q5, TestGraphs.pl))
  }

  // --- spilling -------------------------------------------------------------
  test("hash join spills to disk when the buffer threshold is tiny, still exact") {
    val cfg = base().copy(spillThresholdRows = 16)
    val m   = hugeRun(Queries.q7, TestGraphs.pl, cfg)
    assert(m.results.get == expected(Queries.q7, TestGraphs.pl))
    assert(m.spilledBytes.get > 0)
  }

  // --- flat PUSH-JOIN --------------------------------------------------------
  // Every plan family below runs with a run per 16 rows and with the default
  // threshold (no spill on these graphs). A run per row is tried on road
  // only: on pl it writes 60k-160k run files per query, and file creation
  // then dominates the test time.
  val joinQueries = Seq("q5" -> Queries.q5, "q7" -> Queries.q7, "q8" -> Queries.q8)
  def spillThresholds(graph: String): Seq[Int] =
    (if (graph == "road") Seq(1) else Nil) ++ Seq(16, EngineConfig().spillThresholdRows)

  /** A pushing hash join of units a and b, then unit c joined by Equation 3
    * (a pulled star join): the join stage is followed by extends.
    */
  def pushThenPull(q: QueryGraph, a: Set[(Int, Int)], b: Set[(Int, Int)], c: Set[(Int, Int)]): PlanNode = {
    val (ua, ub, uc) = (SubQuery(q, a), SubQuery(q, b), SubQuery(q, c))
    val ab = JoinNode(ua.union(ub), UnitScan(ua), UnitScan(ub),
                      PhysicalSetting(JoinAlgo.Hash, CommMode.Pushing, -1))
    JoinNode(ab.sub.union(uc), ab, UnitScan(uc), PhysicalSetting.configure(ab.sub, uc))
  }
  val joinThenExtend: Map[String, QueryGraph => PlanNode] = Map(
    "q5" -> (q => pushThenPull(q, Set((0, 1), (0, 3)), Set((1, 2), (2, 3)), Set((2, 4), (3, 4)))),
    "q7" -> (q => pushThenPull(q, Set((0, 1), (1, 2)), Set((2, 3)), Set((3, 4)))),
    "q8" -> (q => pushThenPull(q, Set((0, 1), (1, 2)), Set((2, 3), (3, 4)), Set((4, 5), (0, 5)))),
  )
  val seedPlan: QueryGraph => PlanNode = q => LogicalPlans.seed(q, cost, 3)
  def hugePlan(k: Int): QueryGraph => PlanNode = q => Optimiser.optimise(q, cost, OptimiserConfig.huge(k))

  def dataflow(q: QueryGraph, plan: PlanNode): Op = Dataflow.fromPlan(plan, q, q.symmetryConditions)

  test("the join plan families have the stage shapes they are meant to cover") {
    for (q <- Seq(Queries.q7, Queries.q8))
      assert(dataflow(q, hugePlan(3)(q)).isInstanceOf[PushJoin],
        "HUGE's join stage feeds the count sink directly (count-fused)")
    for ((qn, q) <- joinQueries)
      dataflow(q, joinThenExtend(qn)(q)) match {
        case e: PullExtend => assert(e.sequence.exists(_.isInstanceOf[PushJoin]), qn)
        case op            => fail(s"$qn: $op does not end in an extend")
      }
    for (q <- Seq(Queries.q5, Queries.q8)) {
      val nested = dataflow(q, seedPlan(q)).sequence.collect { case j: PushJoin => j }
        .exists(j => (j.left.sequence ++ j.right.sequence).exists(_.isInstanceOf[PushJoin]))
      assert(nested, "SEED's bushy plan feeds a join into another join's side")
    }
  }

  for ((family, plan) <- Seq[(String, (String, Int) => QueryGraph => PlanNode)](
         "HUGE plan"        -> ((_, k) => hugePlan(k)),
         "join then extend" -> ((qn, _) => joinThenExtend(qn)),
         "SEED plan"        -> ((_, _) => seedPlan));
       (qn, q) <- joinQueries; (gn, g) <- Seq("pl" -> TestGraphs.pl, "road" -> TestGraphs.road);
       k <- Seq(1, 2, 3); t <- spillThresholds(gn))
    test(s"PUSH-JOIN is exact ($family): $qn on $gn, k=$k, spill threshold $t") {
      val p = plan(qn, k)
      val m = hugeRun(q, g, base(k).copy(spillThresholdRows = t), p)
      assert(m.results.get == expected(q, g))
      assert(m.heldBytes == 0, "a finished run holds no rows")
      val joins = dataflow(q, p(q)).sequence.exists(_.isInstanceOf[PushJoin])
      if (t == 1 && joins) assert(m.spilledBytes.get > 0, "a run per row spills")
    }

  // A join side's row is produced on the machine owning its first vertex
  // (the scanned edge's source, as no machine steals) and pushed, 4 bytes
  // per id, iff its join key routes it to another machine.
  for ((qn, q) <- Seq("q7" -> Queries.q7, "q8" -> Queries.q8); k <- Seq(2, 3))
    test(s"pushed bytes are exactly the join-side rows routed off their machine: $qn on pl, k=$k") {
      val cfg  = base(k).copy(interStealing = false)
      val j    = dataflow(q, hugePlan(k)(q)).asInstanceOf[PushJoin]
      val pg   = new PartitionedGraph(TestGraphs.pl, k)
      val spec = new JoinSpec(j, cfg, new Metrics(k))
      val pushed = Seq(j.left, j.right).zipWithIndex.map { case (side, s) =>
        assert(!side.sequence.exists(_.isInstanceOf[PushJoin]), "each side starts at a scan")
        val routedOff = SimpleExec.run(side, TestGraphs.pl).count(row => spec.route(row, 0, s) != pg.owner(row(0)))
        4L * side.matched.length * routedOff
      }.sum
      val m = hugeRun(q, TestGraphs.pl, cfg)
      assert(m.results.get == expected(q, TestGraphs.pl))
      assert(pushed > 0 && m.bytesPushed.get == pushed, s"pushed ${m.bytesPushed.get}, expected $pushed")
    }

  test("a time-limited PUSH-JOIN run returns a partial count and holds no rows") {
    val m = hugeRun(Queries.q7, TestGraphs.pl, base().copy(timeLimitSec = 0.0, spillThresholdRows = 16))
    assert(m.results.get <= expected(Queries.q7, TestGraphs.pl))
    assert(m.heldBytes == 0)
  }

  // --- failures ---------------------------------------------------------------
  test("a machine failure is rethrown, not returned as a partial count") {
    // Every adjacency list names vertex 9 of a 4-vertex graph.
    val bad = new DataGraph(Array(Array(1, 2, 9), Array(0, 2, 9), Array(0, 1, 3, 9), Array(2, 9)))
    for (q <- Seq(Queries.q1, Queries.q8); k <- Seq(1, 2))
      intercept[IndexOutOfBoundsException](hugeRun(q, bad, base(k)))
  }

  // --- stealing -------------------------------------------------------------
  test("inter-machine stealing preserves counts") {
    val withSteal = hugeRun(Queries.q2, TestGraphs.pl, base().copy(interStealing = true))
    val noSteal   = hugeRun(Queries.q2, TestGraphs.pl, base().copy(interStealing = false))
    assert(withSteal.results.get == noSteal.results.get)
  }

  test("intra-machine stealing engages on skewed work") {
    val cfg = base(1).copy(workersPerMachine = 4, chunkSize = 4, batchSize = 4096)
    val m   = hugeRun(Queries.q2, TestGraphs.pl, cfg)
    assert(m.results.get == expected(Queries.q2, TestGraphs.pl))
    assert(m.stealsIntra.get > 0, "4 workers on chunked batches must steal")
  }

  // --- time limit -----------------------------------------------------------
  test("time-limited run terminates early with partial results") {
    val cfg = base().copy(timeLimitSec = 0.0)
    val m   = hugeRun(Queries.q6, TestGraphs.pl, cfg)
    assert(m.results.get <= expected(Queries.q6, TestGraphs.pl))
  }

  // --- metrics model --------------------------------------------------------
  test("metrics: T = T_R + T_C and summary formats") {
    val m = hugeRun(Queries.q1, TestGraphs.pl, base())
    assert(math.abs(m.totalTimeSec - (m.computeTimeSec + m.commTimeSec)) < 1e-9)
    assert(m.summary.contains("T="))
    assert(m.peakMemoryBytes > 0)
  }
}
