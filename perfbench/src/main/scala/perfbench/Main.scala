package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Executors, ScheduledExecutorService, ThreadFactory, TimeUnit}
import org.apache.spark.{SparkConf, SparkContext}
import repro.core.QuickPlus
import repro.graph.GraphGen
import repro.gthinker.{Engine, EngineConfig}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark of one workload in one JVM. Set-up (Spark start, dataset
  * generation, relabelled copies, reference answer, warm-up jobs) is timed
  * as `setup_s`; then jobs run back to back for `--seconds` seconds, each
  * timed from outside around `QuickPlus.mineSerial` or `Engine.run` and each
  * answer checked. With `--trace 1`, every other job is traced instead and
  * the per-layer numbers are printed. The last line of standard output is
  * the result object; the line before it is the stamped run record.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *             [--dataset-seed <n>] [--out-dir <dir>] [--commit <id>] [--source-sha <id>]
  */
object Main {

  /** Relabelled copies of the dataset per run; jobs cycle through them. */
  val Copies = 8
  /** Dataset generations in set-up; their median is the generation time. */
  val GenReps = 3
  /** Fewest timed jobs per run, even when `--seconds` is shorter. */
  val MinJobs = 3
  /** A job running longer than this is cancelled and counted as failed. */
  val JobTimeoutS = 60.0

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        datasetSeed: Option[Long], outDir: String, commit: String, sourceSha: String)

  def main(args: Array[String]): Unit = {
    val code =
      try parse(args) match {
        case Right(o) => run(o)
        case Left(msg) => System.err.println(s"perfbench: $msg"); 2
      } catch {
        case e: Throwable => System.err.println("perfbench: run failed"); e.printStackTrace(); 1
      }
    System.exit(code)
  }

  def parse(args: Array[String]): Either[String, Opts] = {
    if (args.length % 2 != 0) return Left("arguments come in --name value pairs")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--dataset-seed", "--out-dir",
      "--commit", "--source-sha")
    m.keys.find(k => !known(k)).foreach(k => return Left(s"unknown option $k"))
    def need(k: String) = m.get(k).toRight(s"missing $k")
    try {
      for {
        w <- need("--workload")
        _ <- Workloads.byName(w).toRight(s"unknown workload '$w'; one of ${Workloads.all.map(_.name).mkString(", ")}")
        seed <- need("--seed")
        secs <- need("--seconds")
        tr <- need("--trace")
        _ <- if (tr == "0" || tr == "1") Right(()) else Left("--trace takes 0 or 1")
      } yield Opts(w, seed.toLong, secs.toDouble, tr == "1", m.get("--dataset-seed").map(_.toLong),
        m.getOrElse("--out-dir", ".bench_build/perfbench"), m.getOrElse("--commit", "unknown"),
        m.getOrElse("--source-sha", "unknown"))
    } catch { case e: NumberFormatException => Left(s"not a number: ${e.getMessage}") }
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime
    val a = body
    (a, (System.nanoTime - t0) / 1e9)
  }

  def run(o: Opts): Int = {
    val wl = Workloads.byName(o.workload).get
    val bootS = (System.currentTimeMillis - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val p = Runtime.getRuntime.availableProcessors

    val (sc, sparkS) = if (wl.usesSpark) timed(startSpark(p, o.outDir)) else (null, 0.0)
    try {
      val dsSeed = o.datasetSeed.getOrElse(Datasets.defaultSeed(wl.dataset))
      val gens = (0 until GenReps).map(_ => timed(Datasets.generate(wl.dataset, dsSeed)))
      val ds = gens.head._1
      if (gens.exists(_._1.graph.numEdges != ds.graph.numEdges))
        throw new IllegalStateException(s"${ds.name} generation is not deterministic")
      val genS = Stats.median(gens.map(_._2))
      val (copies, relabelS) = timed((0 until Copies).map(j => Relabelled(ds.graph, o.seed * 1000 + j)))
      val (ref, refS) = timed(Datasets.pinned.getOrElse((wl.dataset, dsSeed),
        AnswerCheck.reference(QuickPlus.mineSerial(ds.graph, ds.gamma, ds.tauSize).maximal)))

      val tracer = new Tracer
      val listener = if (o.trace && sc != null) { val l = new EngineListener(tracer); sc.addSparkListener(l); Some(l) } else None
      val runner = new JobRunner(wl, ds, copies, ref, sc, p, JobTimeoutS, tracer, listener)
      try {
        val (_, warmS) = timed((0 until wl.warmupJobs).foreach(i => runner.run(i % Copies, traced = false)))
        val setupS = bootS + sparkS + genS + relabelS + refS + warmS

        val timed0 = runner.records.length
        val t0 = System.nanoTime
        var i = 0
        val minJobs = if (o.trace) 2 * MinJobs else MinJobs
        while (i < minJobs || (System.nanoTime - t0) / 1e9 < o.seconds) {
          runner.run(i / (if (o.trace) 2 else 1) % Copies, traced = o.trace && i % 2 == 1)
          i += 1
        }
        val window = runner.records.drop(timed0)
        // a job that failed is counted in `failed` and never timed as a success
        val untraced = window.filter(r => !r.traced && r.ok)
        val traced = window.filter(r => r.traced && r.ok)

        val layers: Map[String, Double] =
          if (!o.trace) Map.empty
          else {
            val perJob = Metrics.perLayer.map { m =>
              m.name -> Stats.median(traced.flatMap(_.layers.get(m.name)))
            }.toMap
            // the engine's traced jobs carry no serial-layer numbers: replay
            // the serial job once on the first copy to get them
            val serialLayers =
              if (wl.usesSpark) runner.replay(0).layers - "trace.unattributed_share" else Map.empty[String, Double]
            val overhead = Stats.median(traced.map(_.wallS)) / Stats.median(untraced.map(_.wallS))
            perJob ++ serialLayers ++ Map("graph.gen_s" -> genS, "trace.overhead" -> overhead)
          }

        val attempted = runner.records.length
        val failed = runner.records.count(!_.ok)
        val wall = untraced.map(_.wallS).sorted
        val endToEnd = Map(
          "job_s" -> Stats.median(wall),
          "job_cpu_s" -> Stats.median(untraced.map(_.cpuS)),
          "jobs_ok" -> (attempted - failed).toDouble / attempted,
          "setup_s" -> setupS)

        if (o.trace) tracer.write(java.nio.file.Paths.get(o.outDir, s"trace-${wl.name}-seed${o.seed}.json"))
        val record = Json.obj(
          "workload" -> wl.name, "seed" -> o.seed, "dataset" -> ds.name, "dataset_seed" -> dsSeed,
          "gamma" -> ds.gamma, "tau_size" -> ds.tauSize, "copies" -> Copies, "seconds" -> o.seconds,
          "trace" -> o.trace, "parallelism" -> (if (wl.usesSpark) p else 1), "nproc" -> p,
          "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
          "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
          "spark" -> org.apache.spark.SPARK_VERSION, "scala" -> scala.util.Properties.versionNumberString,
          "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.version")} ${System.getProperty("os.arch")}",
          "commit" -> o.commit, "source_sha" -> o.sourceSha,
          "job_s" -> Json.Raw(Json.obj("p50" -> Stats.median(wall), "max" -> wall.lastOption.getOrElse(0.0),
            "n" -> wall.length, "samples" -> wall)),
          "setup" -> Json.Raw(Json.obj("boot_s" -> bootS, "spark_s" -> sparkS, "gen_s" -> genS,
            "relabel_s" -> relabelS, "reference_s" -> refS, "warmup_s" -> warmS)),
          "failures" -> runner.failures.toList)
        println(Json.obj("record" -> Json.Raw(record)))

        val metrics = (if (o.trace) Metrics.perLayer else Metrics.endToEnd).map { m =>
          m.name -> Json.Raw(Json.obj("value" -> (if (o.trace) layers.getOrElse(m.name, 0.0) else endToEnd(m.name)),
            "unit" -> m.unit))
        }
        println(Json.obj("correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
          "metrics" -> Json.Raw(Json.obj(metrics: _*))))
        0
      } finally runner.close()
    } finally if (sc != null) sc.stop()
  }

  private def startSpark(p: Int, outDir: String): SparkContext = {
    val local = java.nio.file.Paths.get(outDir, "spark-local").toAbsolutePath
    java.nio.file.Files.createDirectories(local)
    val conf = new SparkConf().setMaster(s"local[$p]").setAppName("perfbench")
      .set("spark.ui.enabled", "false")
      .set("spark.ui.showConsoleProgress", "false")
      .set("spark.driver.host", "127.0.0.1")
      .set("spark.driver.bindAddress", "127.0.0.1")
      .set("spark.local.dir", local.toString)
    val sc = new SparkContext(conf)
    sc.setLogLevel("WARN")
    sc
  }
}

/** One end-to-end or per-layer metric as named in BENCHMARK.json. */
final case class Metric(name: String, unit: String)

object Metrics {
  val endToEnd: Seq[Metric] = Seq(
    Metric("job_s", "s"), Metric("job_cpu_s", "s"), Metric("jobs_ok", "share"), Metric("setup_s", "s"))

  val perLayer: Seq[Metric] = Seq(
    Metric("graph.gen_s", "s"), Metric("graph.kcore_s", "s"), Metric("graph.recode_s", "s"),
    Metric("graph.core_vertices", "count"), Metric("graph.core_edges", "count"),
    Metric("core.spawn_s", "s"), Metric("core.spawn_tasks", "count"), Metric("core.spawn_yield", "share"),
    Metric("core.mine_s", "s"), Metric("core.tasks", "count"), Metric("core.task_s_p50", "s"),
    Metric("core.task_s_p99", "s"), Metric("core.task_s_max", "s"),
    Metric("core.lookahead_s", "s"), Metric("core.cover_s", "s"), Metric("core.critical_s", "s"),
    Metric("core.bound_s", "s"), Metric("core.phase_coverage", "share"),
    Metric("core.candidates", "count"), Metric("core.maximal", "count"),
    Metric("core.candidate_yield", "share"), Metric("core.post_s", "s"),
    Metric("gthinker.rounds", "count"), Metric("gthinker.tasks", "count"), Metric("gthinker.subtasks", "count"),
    Metric("gthinker.mine_cpu_s", "s"), Metric("gthinker.materialize_cpu_s", "s"),
    Metric("gthinker.max_task_s", "s"), Metric("gthinker.peak_heap_mb", "MB"),
    Metric("gthinker.efficiency", "share"), Metric("gthinker.materialize_share", "share"),
    Metric("gthinker.stages", "count"), Metric("gthinker.stage_s", "s"), Metric("gthinker.driver_s", "s"),
    Metric("gthinker.result_mb", "MB"), Metric("gthinker.shuffle_write_mb", "MB"), Metric("gthinker.gc_s", "s"),
    Metric("gthinker.stage_skew", "ratio"), Metric("gthinker.task_failures", "count"),
    Metric("trace.unattributed_share", "share"), Metric("trace.overhead", "ratio"))
}

/** The traced serial replay no longer returns what `QuickPlus.mineSerial`
  * returns, so it no longer traces the program: the run stops.
  */
final class ReplayDrift extends RuntimeException(
  "the traced serial replay's maximal set differs from QuickPlus.mineSerial's; update SerialReplay to mirror mineSerial")

/** The outcome of one job: wall and process CPU time, whether its answer
  * was right, and (when traced) its per-layer numbers.
  */
final case class JobRecord(wallS: Double, cpuS: Double, ok: Boolean, traced: Boolean, layers: Map[String, Double])

/** Runs, times and checks the jobs of one workload. */
final class JobRunner(wl: Workload, ds: GraphGen.Dataset, copies: Seq[Relabelled], ref: Reference,
                      sc: SparkContext, p: Int, timeoutS: Double, tracer: Tracer,
                      listener: Option[EngineListener]) {
  val records = ArrayBuffer.empty[JobRecord]
  val failures = ArrayBuffer.empty[String]
  private val serialAnswers = scala.collection.mutable.Map.empty[Int, Seq[Vector[Int]]]
  private val watchdog: ScheduledExecutorService = Executors.newSingleThreadScheduledExecutor(new ThreadFactory {
    def newThread(r: Runnable): Thread = { val t = new Thread(r, "perfbench-watchdog"); t.setDaemon(true); t }
  })
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private def cpuNs: Long = os.getProcessCpuTime
  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def timeoutMs: Long = (timeoutS * 1000).toLong

  def close(): Unit = watchdog.shutdownNow()

  private def fail(what: String): Unit = { failures += what; System.err.println(s"perfbench: FAILED $what") }

  /** Checks `maximal` (ids of copy `c`); records a failure when wrong. */
  private def verify(c: Int, maximal: Seq[Array[Int]], what: String): Boolean =
    AnswerCheck.check(ds.graph, ds.gamma, ds.tauSize, copies(c).toBase(maximal), ref) match {
      case None => true
      case Some(err) => fail(s"$what: $err"); false
    }

  /** Runs one job on copy `c`, traced or not, and records it. */
  def run(c: Int, traced: Boolean): JobRecord = {
    val job = records.length
    val rec =
      try wl.kind match {
        case SerialJob if traced => replayJob(c, job)
        case SerialJob => serialJob(c, job)
        case EngineJob(_, _) => engineJob(c, job, traced)
      } catch {
        case e: ReplayDrift => throw e
        case e: Exception =>
          fail(s"job $job threw ${e.getClass.getName}: ${e.getMessage}")
          JobRecord(Double.NaN, Double.NaN, ok = false, traced, Map.empty)
      }
    records += rec
    rec
  }

  private def serialJob(c: Int, job: Int): JobRecord = {
    val cpu0 = cpuNs
    val t0 = System.nanoTime
    val out = QuickPlus.mineSerial(copies(c).graph, ds.gamma, ds.tauSize, capMillis = timeoutMs)
    val wall = (System.nanoTime - t0) / 1e9
    val cpu = (cpuNs - cpu0) / 1e9
    if (out.timedOut) fail(s"job $job hit the ${timeoutS}s timeout")
    val ok = !out.timedOut && verify(c, out.maximal, s"job $job")
    if (ok) serialAnswers(c) = canonical(out.maximal)
    JobRecord(wall, cpu, ok, traced = false, Map.empty)
  }

  private def canonical(sets: Seq[Array[Int]]): Seq[Vector[Int]] =
    sets.map(_.sorted.toVector).sortBy(_.mkString(","))

  /** The traced serial job: `SerialReplay`, which must give exactly the
    * answer `QuickPlus.mineSerial` gives on the same graph.
    */
  private def replayJob(c: Int, job: Int): JobRecord = {
    val cpu0 = cpuNs
    val r = SerialReplay.run(copies(c).graph, ds.gamma, ds.tauSize, tracer, job,
      System.nanoTime + timeoutMs * 1000000L)
    val cpu = (cpuNs - cpu0) / 1e9
    if (r.timedOut) fail(s"job $job hit the ${timeoutS}s timeout")
    val ok = !r.timedOut && verify(c, r.maximal, s"traced job $job")
    if (ok) {
      val expected = serialAnswers.getOrElseUpdate(c,
        canonical(QuickPlus.mineSerial(copies(c).graph, ds.gamma, ds.tauSize).maximal))
      if (canonical(r.maximal) != expected)
        throw new ReplayDrift
    }
    JobRecord(r.root.ms / 1e3, cpu, ok, traced = true, r.layers)
  }

  /** A traced serial replay run outside the timed window (engine workloads). */
  def replay(c: Int): JobRecord = {
    val r = replayJob(c, records.length)
    records += r
    r
  }

  private def engineJob(c: Int, job: Int, traced: Boolean): JobRecord = {
    val (mode, conf) = wl.kind match {
      case EngineJob(m, tauSplit) => (m, EngineConfig(parallelism = p, tauSplit = tauSplit))
      case SerialJob => throw new IllegalStateException("not an engine workload")
    }
    val group = if (traced) EngineListener.traceGroup(job) else s"perfbench-job-$job"
    sc.setJobGroup(group, s"perfbench ${wl.name} job $job")
    @volatile var timedOut = false
    val cancel = watchdog.schedule(new Runnable {
      def run(): Unit = { timedOut = true; sc.cancelJobGroup(group) }
    }, timeoutMs, TimeUnit.MILLISECONDS)
    val gc0 = gcMs
    val cpu0 = cpuNs
    val root = if (traced) tracer.open(-1, job, "gthinker.run") else null
    val t0 = System.nanoTime
    val res =
      try Engine.run(sc, copies(c).graph, ds.gamma, ds.tauSize, mode, conf)
      catch { case e: Exception if timedOut => fail(s"job $job hit the ${timeoutS}s timeout"); null }
      finally { cancel.cancel(false); sc.clearJobGroup() }
    val wall = (System.nanoTime - t0) / 1e9
    val cpu = (cpuNs - cpu0) / 1e9
    if (res == null) return JobRecord(wall, cpu, ok = false, traced, Map.empty)
    val ok = verify(c, res.maximal, s"job $job")
    val layers =
      if (!traced) Map.empty[String, Double]
      else {
        val rootSpan = tracer.close(root)
        val l = listener.get
        l.drain(sc, job)
        val mine = res.miningMillis / 1e3
        val mat = res.materializeMillis / 1e3
        l.collect(job, rootSpan) ++ Map(
          "gthinker.rounds" -> res.rounds.toDouble,
          "gthinker.tasks" -> res.tasksProcessed.toDouble,
          "gthinker.subtasks" -> res.subtasksSpawned.toDouble,
          "gthinker.mine_cpu_s" -> mine,
          "gthinker.materialize_cpu_s" -> mat,
          "gthinker.max_task_s" -> res.maxTaskMillis / 1e3,
          "gthinker.peak_heap_mb" -> res.peakHeapMB.toDouble,
          "gthinker.efficiency" -> mine / (p * wall),
          "gthinker.materialize_share" -> (if (mine + mat > 0) mat / (mine + mat) else 0.0),
          "gthinker.gc_s" -> (gcMs - gc0) / 1e3)
      }
    JobRecord(wall, cpu, ok, traced, layers)
  }
}
