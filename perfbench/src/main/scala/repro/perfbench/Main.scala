package repro.perfbench

import java.nio.file.{Files, Paths}
import repro.graph.LocalEnum
import scala.collection.mutable.ArrayBuffer

/** The HUGE benchmark: one workload, one client, one query in flight.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  *
  * It sets up the workload several times (the median is `setup_s`), counts
  * the pattern with the reference interpreter `LocalEnum`, runs untimed
  * warm-up queries and then queries for `--seconds` seconds. Every count is
  * checked against the reference; a wrong count, an exception or a fired
  * deadline is a failure and never a timing sample. With `--trace 1` it
  * alternates untraced and traced queries and reports per-layer figures
  * from the traced ones; spans are written to `<out>/trace-<workload>-<seed>.json`.
  * The last line of stdout is one JSON object with the result.
  */
object Main {
  val SetupReps = 5
  val WarmupQueries = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "out")
    require(args.length % 2 == 0 && opts.keySet.subsetOf(known) && opts.contains("workload"),
      "usage: --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--out dir]")
    val w = Workload.byName(opts("workload"))
    val seed = opts.get("seed").map(_.toLong).getOrElse(w.shape.defaultSeed)
    val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
    val trace = opts.getOrElse("trace", "0") == "1"
    val out = Paths.get(opts.getOrElse("out", "."))

    ErrWatch.install()
    try run(w, seed, seconds, trace, out)
    finally w.close()
  }

  private def info(s: String): Unit = println(s"# $s")

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  def run(w: Workload, seed: Long, seconds: Double, trace: Boolean, out: java.nio.file.Path): Unit = {
    val rt = Runtime.getRuntime
    info(s"workload=${w.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0}")
    info(s"nproc=${rt.availableProcessors} jvm=${System.getProperty("java.vm.name")} " +
      s"${System.getProperty("java.runtime.version")} maxHeap=${rt.maxMemory >> 20}MiB")

    val tr = new Tracer(trace)
    // Each set-up starts from a collected heap, so that it does not pay for
    // the garbage of the one before it.
    val setupS = (1 to SetupReps).map { _ =>
      System.gc()
      val t0 = System.nanoTime()
      tr.span("setup")(w.setUp(seed, tr))
      (System.nanoTime() - t0) / 1e9
    }
    info(w.describe)
    val g = w.graph
    info(s"graph=${w.shape.label} |V|=${g.numVertices} |E|=${g.numEdges} d_max=${g.maxDegree} " +
      f"d_avg=${g.avgDegree}%.1f")

    // The reference count runs on its own thread while the untimed warm-up
    // queries run; warm-up counts are checked once it is known.
    val oracle = new java.util.concurrent.FutureTask[(Long, Long, Long)](() => {
      val t0 = System.nanoTime()
      val c = LocalEnum.countSubgraphs(w.query, g)
      (c, t0, System.nanoTime())
    })
    val oracleThread = new Thread(oracle, "reference-count")
    oracleThread.start()

    var attempted = 0
    var failed = 0
    val warnings = scala.collection.mutable.LinkedHashSet.empty[String]
    def runOne(traced: Boolean): Sample = {
      attempted += 1
      tr.enabled = traced
      if (traced) tr.query += 1
      try tr.span("query")(w.runQuery(tr))
      finally tr.enabled = trace
    }
    def check(s: Sample, expected: Long): Option[Sample] = {
      val problem = s.error.orElse(
        if (s.count != expected) Some(s"count ${s.count} != reference $expected") else None)
      problem match {
        case Some(p) =>
          failed += 1
          info(s"FAILED query: $p")
          None
        case None =>
          warnings ++= w.purposeWarnings(s)
          Some(s)
      }
    }

    val warm = (1 to WarmupQueries).map(_ => runOne(traced = false))
    val (expected, oracleT0, oracleT1) = oracle.get()
    oracleThread.join()
    tr.record("graph.oracle", oracleT0, oracleT1)
    val oracleS = (oracleT1 - oracleT0) / 1e9
    info(s"oracle count=$expected (LocalEnum, ${"%.3f".format(oracleS)}s, beside the warm-up)")
    warm.foreach(check(_, expected))
    def once(traced: Boolean): Option[Sample] = check(runOne(traced), expected)

    val plain = ArrayBuffer.empty[Sample]
    val traced = ArrayBuffer.empty[Sample]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    do {
      plain ++= once(traced = false)
      if (trace) traced ++= once(traced = true)
    } while (System.nanoTime() < deadline)
    warnings.foreach(x => info(s"WARNING: ${w.name} $x"))
    info(s"attempted=$attempted failed=$failed samples=${plain.length} (+${traced.length} traced)")
    info("query wall s: " + plain.map(x => "%.3f".format(x.wallS)).mkString(" "))

    val metrics: Seq[(String, Double, String)] =
      if (!trace) endToEnd(w, plain.toSeq, setupS)
      else perLayer(w, plain.toSeq, traced.toSeq, tr, oracleS)
    metrics.foreach { case (k, v, u) => info(f"$k%-28s $v%.6g $u") }

    if (trace) {
      Files.createDirectories(out)
      val f = out.resolve(s"trace-${w.name}-$seed.json")
      Files.write(f, tr.toJson.getBytes("UTF-8"))
      info(s"${tr.spans.length} spans written to $f")
    }
    val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  private def endToEnd(w: Workload, ss: Seq[Sample], setupS: Seq[Double]): Seq[(String, Double, String)] = {
    info(s"end-to-end figures are medians over ${ss.length} timed queries and ${setupS.length} set-ups")
    Seq(
      ("query_s", median(ss.map(_.wallS)), "s"),
      ("paper_T_s", median(ss.map(w.paperTSec)), "s"),
      ("comm_bytes", median(ss.map(w.commBytes(_).toDouble)), "bytes"),
      ("peak_mem_bytes", median(ss.map(w.peakMemBytes(_).toDouble)), "bytes"),
      ("setup_s", median(setupS), "s"),
    )
  }

  private def perLayer(w: Workload, plain: Seq[Sample], traced: Seq[Sample], tr: Tracer,
                       oracleS: Double): Seq[(String, Double, String)] = {
    val spans = tr.spans.toSeq
    def spanMedian(name: String): Double = median(spans.filter(_.name == name).map(_.seconds))
    val self = tr.selfSeconds
    def selfMedian(name: String): Double = median(spans.filter(_.name == name).map(s => self(s.id)))
    def engine(f: repro.engine.Metrics => Double): Double =
      median(traced.flatMap(_.engine).map(f))
    val queries = spans.filter(_.name == "query")
    val covered = median(queries.map(q => 1.0 - self(q.id) / q.seconds))
    val tracedQ = median(traced.map(_.wallS))
    val plainQ = median(plain.map(_.wallS))
    val (pulls, verifies, joins) =
      traced.headOption.map(s => Workload.countOps(s.dataflow)).getOrElse((0, 0, 0))
    // q-error of the cost model's estimate of the query's ordered matches.
    val actual = traced.headOption.map(_.count.toDouble * w.query.automorphisms.size).getOrElse(0.0)
    val est = w.cost.estimate(w.query)
    val qerr = if (actual > 0 && est > 0) math.max(est / actual, actual / est) else 0.0
    val (sparkPush, sparkPull) = w match {
      case s: SparkWorkload => traced.headOption.map(x => s.commTotals(x.dataflow)).getOrElse((0L, 0L))
      case _                => (0L, 0L)
    }
    val runS = spanMedian("engine.run")
    val fetchS = engine(_.fetchNanos.get / 1e9)
    Seq(
      ("engine.fetch_s", fetchS, "s"),
      ("engine.fetch_share", if (runS > 0) fetchS / (runS * Workload.Machines) else 0.0, "ratio"),
      ("engine.cache_hit_ratio", engine(_.hitRate), "ratio"),
      ("engine.cache_hits", engine(_.cacheHits.get.toDouble), "count"),
      ("engine.cache_misses", engine(_.cacheMisses.get.toDouble), "count"),
      ("engine.bytes_pulled", engine(_.bytesPulled.get.toDouble), "bytes"),
      ("engine.rpcs", engine(_.rpcs.get.toDouble), "count"),
      ("engine.bytes_pushed", engine(_.bytesPushed.get.toDouble), "bytes"),
      ("engine.spilled_bytes", engine(_.spilledBytes.get.toDouble), "bytes"),
      ("engine.run_s", runS, "s"),
      ("engine.steals_intra", engine(_.stealsIntra.get.toDouble), "count"),
      ("engine.steals_inter", engine(_.stealsInter.get.toDouble), "count"),
      ("engine.bytes_stolen", engine(_.stolenBytes.get.toDouble), "bytes"),
      ("core.optimise_s", spanMedian("core.optimise"), "s"),
      ("core.dataflow_s", spanMedian("core.dataflow"), "s"),
      ("core.plan_pull_extends", pulls.toDouble, "count"),
      ("core.plan_verify_extends", verifies.toDouble, "count"),
      ("core.plan_push_joins", joins.toDouble, "count"),
      ("core.est_qerror", qerr, "ratio"),
      ("graph.generate_s", spanMedian("graph.generate"), "s"),
      ("engine.partition_s", spanMedian("engine.partition"), "s"),
      ("core.cost_model_s", spanMedian("core.cost_model"), "s"),
      ("spark.session_s", spanMedian("spark.session"), "s"),
      ("spark.load_s", spanMedian("spark.load"), "s"),
      ("spark.batches", median(traced.map(_.batches.toDouble)), "count"),
      ("spark.count_s", spanMedian("spark.count"), "s"),
      ("spark.comm_pushed_bytes", sparkPush.toDouble, "bytes"),
      ("spark.comm_pulled_bytes", sparkPull.toDouble, "bytes"),
      ("graph.oracle_s", oracleS, "s"),
      ("setup.self_s", selfMedian("setup"), "s"),
      ("query.self_s", selfMedian("query"), "s"),
      ("trace.covered_share", covered, "ratio"),
      ("trace.query_s", tracedQ, "s"),
      ("trace_overhead", if (plainQ > 0) tracedQ / plainQ - 1.0 else 0.0, "ratio"),
    )
  }
}
