package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core._
import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.ArrayBuffer

/** One traced interval. Times are milliseconds since the tracer's origin;
  * `parent` is the id of the enclosing span (-1 for a job's root) and `job`
  * the benchmark job the span belongs to.
  */
final case class Span(id: Int, parent: Int, job: Int, name: String, startMs: Double, endMs: Double) {
  def ms: Double = endMs - startMs
}

/** Spans kept in memory during the run and written out once at the end. */
final class Tracer {
  private val originNs = System.nanoTime
  private val originEpochMs = System.currentTimeMillis
  private val spans = ArrayBuffer.empty[Span]

  def nowMs: Double = (System.nanoTime - originNs) / 1e6
  /** An epoch time in ms (Spark's clock) on the tracer's time line. */
  def fromEpochMs(t: Long): Double = (t - originEpochMs).toDouble

  def add(parent: Int, job: Int, name: String, startMs: Double, endMs: Double): Span = synchronized {
    val s = Span(spans.length, parent, job, name, startMs, endMs)
    spans += s
    s
  }

  /** Runs `body` inside a span named `name`; returns its value and span. */
  def span[A](parent: Int, job: Int, name: String)(body: => A): (A, Span) = {
    val t0 = nowMs
    val a = body
    (a, add(parent, job, name, t0, nowMs))
  }

  /** Reserves a span id now for a span whose end is known later. */
  def open(parent: Int, job: Int, name: String): Span = add(parent, job, name, nowMs, Double.NaN)

  def close(s: Span): Span = synchronized {
    val closed = s.copy(endMs = nowMs)
    spans(s.id) = closed
    closed
  }

  def all: Seq[Span] = synchronized(spans.toList)

  def write(path: java.nio.file.Path): Unit = {
    val rows = all.map { s =>
      Json.obj("id" -> s.id, "parent" -> s.parent, "job" -> s.job, "name" -> s.name,
        "start_ms" -> s.startMs, "end_ms" -> s.endMs)
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, rows.mkString("[\n", ",\n", "\n]\n").getBytes("UTF-8"))
  }
}

object Intervals {
  /** Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`. */
  def unionMs(iv: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = iv.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }.filter(p => p._2 > p._1).sortBy(_._1)
    var total = 0.0
    var curA = Double.NaN; var curB = Double.NaN
    clipped.foreach { case (a, b) =>
      if (curA.isNaN || a > curB) {
        if (!curA.isNaN) total += curB - curA
        curA = a; curB = b
      } else if (b > curB) curB = b
    }
    if (!curA.isNaN) total += curB - curA
    total
  }

  /** Self time of `s`: its duration minus the part its children cover. */
  def selfMs(s: Span, children: Seq[Span]): Double =
    s.ms - unionMs(children.map(c => (c.startMs, c.endMs)), s.startMs, s.endMs)
}

/** The serial Quick+ job replayed from its public parts, with a span around
  * each: k-core, cover recoding, one `egoTask` and one `recursiveMine` per
  * spawning vertex, and `filterMaximal`. Mirrors `QuickPlus.mineSerial` with
  * its defaults (Quick+ config, recoding on); the caller checks that the
  * answers are identical.
  */
object SerialReplay {

  final case class Result(maximal: Seq[Array[Int]], layers: Map[String, Double], root: Span, timedOut: Boolean)

  def run(g: LocalGraph, gamma: Double, tauSize: Int, tracer: Tracer, job: Int,
          deadlineNanos: Long): Result = {
    val root = tracer.open(-1, job, "serial.job")
    val id = root.id
    val k = QuasiClique.ceilGamma(gamma, tauSize - 1)
    val ((gK, idsK), kcore) = tracer.span(id, job, "graph.kcore")(GraphOps.kCoreSubgraph(g, k))
    val ((gm, ids), recode) =
      if (gK.n > 0) {
        val ((g2, ids2), sp) = tracer.span(id, job, "graph.recode")(GraphOps.recodeByCover(gK))
        ((g2, ids2.map(idsK)), Some(sp))
      } else ((gK, idsK), None)
    val spawnUpper = if (gm.n > 0) gm.n - gm.degree(0) else gm.n

    val timers = new PhaseTimers
    val out = ArrayBuffer.empty[Array[Int]]
    val spawnSpans = ArrayBuffer.empty[Span]
    val mineSpans = ArrayBuffer.empty[Span]
    var timedOut = false
    var v = 0
    while (v < spawnUpper && !timedOut) {
      val (task, sp) = tracer.span(id, job, "core.spawn")(TaskSpawn.egoTask(gm, v, k))
      spawnSpans += sp
      task.foreach { case (t, taskIds) =>
        val miner = new Miner(t, gamma, tauSize,
          arr => out += QuasiClique.canon(arr.map(x => ids(taskIds(x)))),
          MinerConfig.quickPlus, timers, deadlineNanos)
        val (_, ms) = tracer.span(id, job, "core.mine") {
          try miner.recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until t.n))
          catch { case _: Miner.DeadlineExceeded => timedOut = true }
        }
        mineSpans += ms
      }
      v += 1
    }
    val (maximal, post) = tracer.span(id, job, "core.post")(Maximality.filterMaximal(out.toSeq))
    val rootSpan = tracer.close(root)

    val children = Seq(kcore, post) ++ recode ++ spawnSpans ++ mineSpans
    val taskS = mineSpans.map(_.ms / 1e3).sorted
    val mineS = taskS.sum
    val phaseS = Seq(timers.lookaheadNs, timers.coverNs, timers.criticalNs, timers.boundNs).map(_ / 1e9)
    val spawned = mineSpans.length
    val layers = Map(
      "graph.kcore_s" -> kcore.ms / 1e3,
      "graph.recode_s" -> recode.map(_.ms / 1e3).getOrElse(0.0),
      "graph.core_vertices" -> gK.n.toDouble,
      "graph.core_edges" -> gK.numEdges.toDouble,
      "core.spawn_s" -> spawnSpans.map(_.ms).sum / 1e3,
      "core.spawn_tasks" -> spawned.toDouble,
      "core.spawn_yield" -> (if (spawnSpans.isEmpty) 0.0 else spawned.toDouble / spawnSpans.length),
      "core.mine_s" -> mineS,
      "core.tasks" -> spawned.toDouble,
      "core.task_s_p50" -> Stats.quantile(taskS, 0.5),
      "core.task_s_p99" -> Stats.quantile(taskS, 0.99),
      "core.task_s_max" -> (if (taskS.isEmpty) 0.0 else taskS.last),
      "core.lookahead_s" -> phaseS(0),
      "core.cover_s" -> phaseS(1),
      "core.critical_s" -> phaseS(2),
      "core.bound_s" -> phaseS(3),
      "core.phase_coverage" -> (if (mineS > 0) phaseS.sum / mineS else 0.0),
      "core.candidates" -> out.length.toDouble,
      "core.maximal" -> maximal.length.toDouble,
      "core.candidate_yield" -> (if (out.isEmpty) 0.0 else maximal.length.toDouble / out.length),
      "core.post_s" -> post.ms / 1e3,
      "trace.unattributed_share" -> unattributed(rootSpan, children))
    Result(maximal, layers, rootSpan, timedOut)
  }

  def unattributed(root: Span, children: Seq[Span]): Double =
    if (root.ms > 0) Intervals.selfMs(root, children) / root.ms else 0.0
}

/** Listens on Spark's listener bus and turns the jobs, stages and tasks of a
  * traced engine job into child spans of its root span. A job is traced when
  * it runs in the Spark job group `traceGroup(id)`; a one-task sentinel job
  * in another group is run afterwards, and because the bus delivers events
  * in order, its end means every event of the traced job has arrived.
  */
final class EngineListener(tracer: Tracer) extends SparkListener {
  import EngineListener._

  private val jobOf = scala.collection.mutable.Map.empty[Int, Int]      // spark job -> bench job
  private val stageJob = scala.collection.mutable.Map.empty[Int, Int]   // stage -> spark job
  private val jobSpans = ArrayBuffer.empty[(Int, Int, Double, Double)]  // (bench job, spark job, start, end)
  private val jobStart = scala.collection.mutable.Map.empty[Int, Double]
  private val stages = ArrayBuffer.empty[(Int, Int, Double, Double)]    // (stage, spark job, start, end)
  private val tasks = ArrayBuffer.empty[TaskRec]
  @volatile private var sentinel: CountDownLatch = new CountDownLatch(0)

  private def group(e: SparkListenerJobStart): String =
    Option(e.properties).flatMap(p => Option(p.getProperty(JobGroupProperty))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = group(e)
    if (g.startsWith(TracePrefix)) {
      jobOf(e.jobId) = g.stripPrefix(TracePrefix).toInt
      jobStart(e.jobId) = tracer.fromEpochMs(e.time)
      e.stageIds.foreach(s => stageJob(s) = e.jobId)
    } else if (g.startsWith(SentinelPrefix)) jobOf(e.jobId) = -1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val isSentinel = synchronized {
      jobOf.get(e.jobId) match {
        case Some(-1) => jobOf.remove(e.jobId); true
        case Some(b) =>
          jobSpans += ((b, e.jobId, jobStart.getOrElse(e.jobId, tracer.fromEpochMs(e.time)), tracer.fromEpochMs(e.time)))
          false
        case None => false
      }
    }
    if (isSentinel) sentinel.countDown()
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageJob.get(info.stageId).foreach { j =>
      val t0 = info.submissionTime.map(t => tracer.fromEpochMs(t)).getOrElse(Double.NaN)
      val t1 = info.completionTime.map(t => tracer.fromEpochMs(t)).getOrElse(t0)
      stages += ((info.stageId, j, t0, t1))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stageJob.contains(e.stageId)) {
      val m = Option(e.taskMetrics)
      tasks += TaskRec(e.stageId, tracer.fromEpochMs(e.taskInfo.launchTime),
        tracer.fromEpochMs(e.taskInfo.finishTime), e.taskInfo.successful,
        m.map(_.resultSize).getOrElse(0L), m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L))
    }
  }

  /** Runs the sentinel job and waits until the listener has seen it end. */
  def drain(sc: SparkContext, job: Int): Unit = {
    sentinel = new CountDownLatch(1)
    sc.setJobGroup(SentinelPrefix + job, "perfbench listener sentinel")
    try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    if (!sentinel.await(30, TimeUnit.SECONDS)) throw new IllegalStateException("Spark listener bus did not drain")
  }

  /** Adds the spans of bench job `job` under `root` and returns its
    * listener-side layer numbers; forgets the job afterwards.
    */
  def collect(job: Int, root: Span): Map[String, Double] = synchronized {
    val myJobs = jobSpans.filter(_._1 == job)
    val sparkJobIds = myJobs.map(_._2).toSet
    val jobSpanIds = myJobs.map { case (_, sj, a, b) => sj -> tracer.add(root.id, job, s"spark.job.$sj", a, b) }.toMap
    val myStages = stages.filter(s => sparkJobIds.contains(s._2))
    val stageSpans = myStages.map { case (st, sj, a, b) =>
      st -> tracer.add(jobSpanIds(sj).id, job, s"spark.stage.$st", a, b)
    }.toMap
    val myTasks = tasks.filter(t => stageSpans.contains(t.stage))
    myTasks.foreach(t => tracer.add(stageSpans(t.stage).id, job, "spark.task", t.startMs, t.endMs))

    val stageUnionMs = Intervals.unionMs(myStages.map(s => (s._3, s._4)).toSeq, root.startMs, root.endMs)
    // per stage: longest task over the median task, weighted by the median
    val perStage = myTasks.groupBy(_.stage).values.filter(_.size >= 2).map { ts =>
      val d = ts.map(t => t.endMs - t.startMs).sorted
      (d.last, Stats.quantile(d, 0.5))
    }
    val medSum = perStage.map(_._2).sum
    val out = Map(
      "gthinker.stages" -> myStages.size.toDouble,
      "gthinker.stage_s" -> stageUnionMs / 1e3,
      "gthinker.driver_s" -> (root.ms - stageUnionMs) / 1e3,
      "gthinker.result_mb" -> myTasks.map(_.resultBytes).sum / 1e6,
      "gthinker.shuffle_write_mb" -> myTasks.map(_.shuffleBytes).sum / 1e6,
      "gthinker.stage_skew" -> (if (medSum > 0) perStage.map(_._1).sum / medSum else 1.0),
      "gthinker.task_failures" -> myTasks.count(!_.ok).toDouble,
      "trace.unattributed_share" -> SerialReplay.unattributed(root, jobSpanIds.values.toSeq))

    jobSpans --= myJobs
    stages --= myStages
    tasks --= myTasks
    sparkJobIds.foreach { j => jobOf.remove(j); jobStart.remove(j) }
    stageJob.filterInPlace((_, j) => !sparkJobIds.contains(j))
    out
  }
}

object EngineListener {
  private final case class TaskRec(stage: Int, startMs: Double, endMs: Double, ok: Boolean,
                                   resultBytes: Long, shuffleBytes: Long)

  /** The local property Spark stores `setJobGroup`'s id in. */
  val JobGroupProperty = "spark.jobGroup.id"
  val TracePrefix = "perfbench-trace-"
  val SentinelPrefix = "perfbench-sentinel-"
  def traceGroup(job: Int): String = TracePrefix + job
}

object Stats {
  /** Quantile of a sorted sample by linear interpolation; 0 when empty. */
  def quantile(sorted: collection.Seq[Double], q: Double): Double = {
    if (sorted.isEmpty) return 0.0
    val pos = q * (sorted.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, sorted.length - 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }

  def median(xs: collection.Seq[Double]): Double = quantile(xs.sorted, 0.5)
}

/** Just enough JSON for the run record and result: strings, numbers,
  * booleans, lists, and objects built with `obj` and nested as `Raw`.
  */
object Json {
  def obj(fields: (String, Any)*): String = fields.map { case (k, v) => str(k) + ":" + value(v) }.mkString("{", ",", "}")

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case b: Boolean => b.toString
    case r: Raw     => r.json
    case xs: collection.Seq[_] => xs.map(value).mkString("[", ",", "]")
    case other      => str(other.toString)
  }

  final case class Raw(json: String)

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
