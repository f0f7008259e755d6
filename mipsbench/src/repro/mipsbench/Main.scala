package repro.mipsbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Matrix
import repro.sparkmips.SparkMips

/** The MIPS serving benchmark.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--shrink <d>]
  * }}}
  *
  * Sets up (Spark session, model, cached DataFrames, JIT warm-up) three
  * times and reports the median, computes the brute-force reference, then
  * runs cycles of the five end-to-end calls until `--seconds` are used.
  * With `--trace 0` it reports the end-to-end metrics as medians over
  * cycles; with `--trace 1` each cycle is run once untraced and once traced
  * with every layer replayed, and it reports the per-layer metrics and
  * writes the spans to `.bench_out/`. The last stdout line is the result
  * JSON. `--shrink d` divides both sides of the model by d (smoke tests).
  */
object Main {

  val SetupReps = 3

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, shrink: Int)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    // exit explicitly either way: Spark's threads would keep a failed run alive
    val status =
      try { run(args); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(status)
  }

  private def run(args: Args): Unit = {
    val threads = math.min(4, Runtime.getRuntime.availableProcessors())

    val setupS = ArrayBuffer.empty[Double]
    var env: Env = null
    var warmAttempted = 0L
    var warmFailed = 0L
    for (_ <- 0 until SetupReps) {
      if (env != null) env.close()
      System.gc()
      val t0 = System.nanoTime()
      env = Env.start(args.workload, args.seed, args.shrink, threads)
      val (wa, wf) = env.warmUp(threads)
      setupS += (System.nanoTime() - t0) / 1e9
      warmAttempted += wa; warmFailed += wf
    }

    log(args, "set-up seconds " + setupS.map(s => f"$s%.3f").mkString(" "))
    val reference = Reference.topK(env.users, env.items, args.workload.k, threads)
    log(args, "reference done")
    val e2e = new EndToEnd(env.spark, env.users, env.items, env.usersDf, env.itemsDf,
      args.workload.k, reference)
    e2e.attempted = warmAttempted
    e2e.failed = warmFailed

    val metrics =
      if (args.trace) traced(args, env, e2e)
      else timed(args, env, e2e, median(setupS.toSeq))
    env.close()
    log(args, "done")

    val result = Metrics.result(e2e.attempted, e2e.failed, metrics,
      if (args.trace) Metrics.perLayer else Metrics.endToEnd)
    println(result)
  }

  private def timed(args: Args, env: Env, e2e: EndToEnd, setupS: Double): Map[String, Double] = {
    val cycles = loop(args.seconds) { _ =>
      val c = e2e.cycle(Tracer.Off)
      log(args, "cycle " + EndToEnd.Calls.map(n => f"$n=${c.seconds(n)}%.3fs").mkString(" ") +
        s" recopt=${c.recoptReport.chosen} spark=${c.sparkReport.chosen}")
      c
    }
    val n = env.users.rows.toDouble
    EndToEnd.Calls.map(call => s"${call}_users_per_s" -> n / median(cycles.map(_.seconds(call)))).toMap ++
      Map(
        "setup_s" -> setupS,
        "match_frac" -> (if (e2e.attempted == 0) 0.0 else 1.0 - e2e.failed.toDouble / e2e.attempted),
      )
  }

  private def traced(args: Args, env: Env, e2e: EndToEnd): Map[String, Double] = {
    val tracer = new Tracer
    val layers = new Layers(env.spark, env.users, env.items, env.usersDf, env.itemsDf,
      args.workload.k, e2e)
    val u = env.users.rows.toDouble; val i = env.items.rows.toDouble; val f = env.items.cols
    val flops = 2.0 * u * i * f
    val perCycle = loop(args.seconds) { c =>
      val off = e2e.cycle(Tracer.Off)
      val id = s"${args.workload.name}/seed=${args.seed}/cycle=$c"
      tracer.startRun(id)
      val (on, replayed) = tracer.span("cycle") {
        val on = e2e.cycle(tracer)
        (on, layers.replay(tracer, on))
      }
      def s(name: String) = tracer.seconds(name, id)
      val m = replayed ++ Map(
        "core.gemm.flops" -> flops,
        "core.mm.gemm_s" -> s("core.gemm"),
        "core.gemm.gflops" -> flops / s("core.gemm") / 1e9,
        "core.gemm.ref_blas_gflops" -> flops / s("core.gemm.ref_blas") / 1e9,
        "core.mm.topk_s" -> s("core.topk"),
        "core.topk.ns_per_score" -> s("core.topk") * 1e9 / (u * i),
        "cluster.kmeans_s" -> s("cluster.kmeans"),
        "recdex.build_user_index_s" -> s("recdex.build_user_index"),
        "recdex.walk_s" -> s("recdex.walk"),
        "recdex.walk_unblocked_s" -> s("recdex.walk_unblocked"),
        "lemp.prepare_s" -> s("lemp.prepare"),
        "lemp.query_s" -> s("lemp.query"),
        "recopt.estimate_s" -> s("recopt.estimate"),
        "sparkmips.collect_items_s" -> s("sparkmips.collect_items"),
        "sparkmips.recopt_driver_s" -> s("sparkmips.recopt_driver"),
        "sparkmips.pass_s" -> s("sparkmips.pass"),
        "sparkmips.fixed_pass_s" -> s("sparkmips.fixed_pass"),
        "trace.overhead_s" -> (on.totalS - off.totalS),
        "trace.spans" -> tracer.count(id).toDouble,
      )
      log(args, s"traced cycle $c: untraced ${off.totalS}s, traced ${on.totalS}s, " +
        s"recopt=${on.recoptReport.chosen} spark=${on.sparkReport.chosen}")
      m
    }
    val metrics = perCycle.head.keys.map(k => k -> median(perCycle.map(_(k)))).toMap

    val dir = Paths.get(".bench_out")
    Files.createDirectories(dir)
    val file = dir.resolve(s"trace-${args.workload.name}-seed${args.seed}.json")
    val extra = Seq(
      "workload" -> Json.str(args.workload.name),
      "seed" -> args.seed.toString,
      "blas_impl" -> Json.str(layers.blasImpl),
      "metrics" -> metrics.toSeq.sorted.map { case (k, v) => s"${Json.str(k)}:${Json.num(v)}" }
        .mkString("{", ",", "}"),
    )
    Files.write(file, tracer.toJson(extra).getBytes(StandardCharsets.UTF_8))
    log(args, s"wrote ${tracer.size} spans to $file (BLAS: ${layers.blasImpl})")
    metrics
  }

  /** Runs `body` for cycles 0, 1, ... while one more cycle, as long as the
    * last, still fits in `seconds`; always at least once. */
  private def loop[A](seconds: Double)(body: Int => A): Seq[A] = {
    val out = ArrayBuffer.empty[A]
    val t0 = System.nanoTime()
    var last = 0.0
    do {
      val c0 = System.nanoTime()
      out += body(out.size)
      last = (System.nanoTime() - c0) / 1e9
    } while ((System.nanoTime() - t0) / 1e9 + last <= seconds)
    out.toSeq
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private val started = System.nanoTime()

  private def log(args: Args, msg: String): Unit =
    Console.err.println(f"[mipsbench ${args.workload.name} seed=${args.seed} ${(System.nanoTime() - started) / 1e9}%.1fs] $msg")

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.byName(get("workload")).getOrElse(usage(s"unknown workload ${get("workload")}"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    Args(wl, get("seed").toLong, get("seconds").toDouble, trace, kv.get("shrink").fold(1)(_.toInt))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: Main --workload <${Workloads.all.map(_.name).mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1> [--shrink <d>]")
    sys.exit(2)
  }
}

/** One set-up: a local Spark session, the workload's model, and its users
  * and items as cached DataFrames. */
final class Env(val spark: SparkSession, val users: Matrix, val items: Matrix,
                val usersDf: DataFrame, val itemsDf: DataFrame, workload: Workload,
                seed: Long, shrink: Int) {

  /** One end-to-end cycle on a tenth of the users and all the items, so the
    * JIT has compiled every kernel, on the item shapes the timed calls see,
    * before the first timed call. Returns the users checked and the
    * mismatches. */
  def warmUp(threads: Int): (Long, Long) = {
    val (u, i) = workload.generate(seed, 10 * shrink, shrink)
    val uDf = Env.cached(SparkMips.toDf(spark, u, "user_id"))
    val iDf = Env.cached(SparkMips.toDf(spark, i, "item_id", numPartitions = 1))
    val small = new EndToEnd(spark, u, i, uDf, iDf, workload.k, Reference.topK(u, i, workload.k, threads))
    small.cycle(Tracer.Off)
    uDf.unpersist(); iDf.unpersist()
    (small.attempted, small.failed)
  }

  def close(): Unit = {
    usersDf.unpersist(); itemsDf.unpersist()
    spark.stop()
  }
}

object Env {
  def start(workload: Workload, seed: Long, shrink: Int, threads: Int): Env = {
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("mipsbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val (users, items) = workload.generate(seed, shrink, shrink)
    val usersDf = cached(SparkMips.toDf(spark, users, "user_id"))
    val itemsDf = cached(SparkMips.toDf(spark, items, "item_id", numPartitions = 1))
    new Env(spark, users, items, usersDf, itemsDf, workload, seed, shrink)
  }

  def cached(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    c
  }
}
