package repro.gthinker

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.util.{AccumulatorV2, LongAccumulator}
import repro.core._
import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.{ArrayBuffer, ArrayDeque}
import scala.reflect.ClassTag

/** A mining task ⟨S, ext(S)⟩ in ids of the engine's (k-core-pruned, recoded)
  * global graph. The task's subgraph is the one induced by s ++ ext; it is
  * materialized from the broadcast graph when the task is executed, and that
  * materialization time is metered separately (Tables 12–14).
  */
final case class QCTask(root: Int, s: Array[Int], ext: Array[Int]) {
  def extSize: Int = ext.length
}

/** Per-task record for the straggler study of Tables 1–2. */
final case class TaskStat(root: Int, nV: Int, nE: Long, maxDeg: Int,
                          avgDeg: Double, coreNum: Int, mineNanos: Long)

/** The three algorithm variants of Section 8. */
sealed trait Mode extends Serializable
/** Mine each spawned task's set-enumeration subtree fully in serial. */
case object ABase extends Mode
/** Decompose while ext(S) is larger than `EngineConfig.tauSplit` (Algorithm 8). */
case object ASplit extends Mode
/** Mine for τ_time, then wrap remaining branches as subtasks (Algs 9–10). */
final case class ATime(tauTimeMillis: Double) extends Mode

/** Engine knobs. `prioritizeBigTasks=false` emulates the ORIGINAL G-thinker
  * engine (per-thread local queues only: every subtask is mined by the
  * worker that spawned it, no big-task-first ordering); `true` is the
  * paper's redesign (small subtasks stay in the local queue, big ones go to
  * a global queue with stealing ≈ sort big tasks first and round-robin them
  * across workers each round). `tauSplit` is the paper's single τ_split: a
  * task with |ext| >= τ_split is big, and `ASplit` decomposes a task with
  * |ext| > τ_split.
  */
final case class EngineConfig(
    parallelism: Int,
    prioritizeBigTasks: Boolean = true,
    tauSplit: Int = 100,
    recordTaskStats: Boolean = false)

final case class EngineResult(
    maximal: Seq[Array[Int]],
    numCandidates: Long,
    wallMillis: Double,
    postMillis: Double,
    rounds: Int,
    tasksProcessed: Long,
    subtasksSpawned: Long,
    miningMillis: Double,
    materializeMillis: Double,
    maxTaskMillis: Double,
    taskStats: Seq[TaskStat],
    peakHeapMB: Long) {
  def numMaximal: Int = maximal.size
}

/** Accumulator tracking the maximum of longs (longest task). */
final class MaxAccumulator extends AccumulatorV2[Long, Long] {
  private var v: Long = 0L
  override def isZero: Boolean = v == 0L
  override def copy(): MaxAccumulator = { val a = new MaxAccumulator; a.v = v; a }
  override def reset(): Unit = v = 0L
  override def add(x: Long): Unit = if (x > v) v = x
  override def merge(o: AccumulatorV2[Long, Long]): Unit = if (o.value > v) v = o.value
  override def value: Long = v
}

private sealed trait Emit extends Serializable
private final case class EmitResult(vs: Array[Int]) extends Emit
private final case class EmitTask(t: QCTask) extends Emit
private final case class EmitStat(s: TaskStat) extends Emit

/** The redesigned G-thinker execution engine on Spark.
  *
  * One Spark round = every worker drains the tasks placed on it, then its
  * local queue: the subtasks it spawns itself, mined in the same Spark task.
  * With big-task prioritization only big subtasks (|ext| >= τ_split) leave
  * the worker; the driver collects them and, for the next round, sorts them
  * descending and deals them round-robin over the `parallelism` workers
  * (global queue + stealing). The old engine keeps every subtask local, so
  * its mining ends in one round.
  */
object Engine {

  /** Full job: the prologue (k-core prune, recode), a round that spawns the
    * per-vertex ego tasks (Algorithms 4, 6, 7), then the mining rounds.
    */
  def run(sc: SparkContext, g: LocalGraph, gamma: Double, tauSize: Int,
          mode: Mode, conf: EngineConfig): EngineResult = {
    val wall0 = System.nanoTime
    val job = TaskSpawn.prologue(g, gamma, tauSize)
    val k = job.k
    execute(sc, job.graph, job.ids, gamma, tauSize, mode, conf, wall0) { (bc, matAcc) =>
      sc.parallelize(0 until job.spawnUpper, math.max(1, conf.parallelism)).mapPartitions { it =>
        val graph = bc.value
        it.flatMap { v =>
          val t0 = System.nanoTime
          val built = TaskSpawn.egoTask(graph, v, k).map { case (_, coreIds) =>
            QCTask(v, Array(v), coreIds.drop(1))
          }
          matAcc.add(System.nanoTime - t0)
          built
        }
      }.collect()
    }
  }

  /** Kernel-expansion entry (Tables 9, 11): initial tasks are given directly
    * (S = kernel, ext = its candidate pool), in ids of `gm`, whose vertex v
    * maps to original id `ids(v)`. No recoding, no per-vertex spawning.
    */
  def runFromTasks(sc: SparkContext, gm: LocalGraph, ids: Array[Int],
                   tasks0: Array[QCTask], gamma: Double, tauSize: Int,
                   mode: Mode, conf: EngineConfig): EngineResult = {
    val wall0 = System.nanoTime
    TaskSpawn.checkParams(gamma, tauSize)
    execute(sc, gm, ids, gamma, tauSize, mode, conf, wall0)((_, _) => tasks0)
  }

  /** Broadcasts `gm`, builds the first round's tasks with `tasks0` and mines
    * round by round until no task is left; an empty graph returns an empty
    * result at once.
    */
  private def execute(sc: SparkContext, gm: LocalGraph, ids: Array[Int],
                      gamma: Double, tauSize: Int, mode: Mode, conf: EngineConfig, wall0: Long)
                     (tasks0: (Broadcast[LocalGraph], LongAccumulator) => Array[QCTask]): EngineResult = {
    if (gm.n == 0)
      return EngineResult(Nil, 0, (System.nanoTime - wall0) / 1e6, 0.0, 0, 0, 0, 0, 0, 0, Nil, usedHeapMB())
    val bc = sc.broadcast(gm)
    val mineAcc  = sc.longAccumulator("miningNs")
    val matAcc   = sc.longAccumulator("materializeNs")
    val procAcc  = sc.longAccumulator("tasksProcessed")
    val spawnAcc = sc.longAccumulator("subtasksSpawned")
    val maxAcc   = new MaxAccumulator
    sc.register(maxAcc, "maxTaskNs")
    val p = math.max(1, conf.parallelism)
    val results = ArrayBuffer.empty[Array[Int]]
    val stats   = ArrayBuffer.empty[TaskStat]
    var rounds  = 0
    var peakHeap = usedHeapMB()
    var tasks = tasks0(bc, matAcc)

    while (tasks.nonEmpty) {
      rounds += 1
      val placed = place(sc, tasks, p, conf.prioritizeBigTasks, conf.tauSplit)(_.extSize, _.root)
      val emitted = placed.mapPartitions { it =>
        val graph = bc.value
        val out = ArrayBuffer.empty[Emit]
        // LIFO: depth-first keeps the queue near the spawn tree's depth times its fan-out
        val local = ArrayDeque.empty[QCTask]
        def execTask(t: QCTask): Unit = {
          val m0 = System.nanoTime
          val (sub, oldIds) = GraphOps.induced(graph, t.s ++ t.ext)
          matAcc.add(System.nanoTime - m0)
          val f = if (conf.recordTaskStats) GraphOps.features(sub) else null
          val t1 = System.nanoTime
          val sink = (arr: Array[Int]) => {
            out += EmitResult(QuasiClique.canon(arr.map(oldIds))); ()
          }
          val spawnChild = (s: Array[Int], e: Array[Int]) => {
            spawnAcc.add(1)
            val child = QCTask(t.root, s.map(oldIds), e.map(oldIds))
            if (conf.prioritizeBigTasks && child.extSize >= conf.tauSplit) out += EmitTask(child)
            else local += child
            ()
          }
          val miner = new Miner(sub, gamma, tauSize, sink)
          val sBuf = ArrayBuffer.from(0 until t.s.length)
          val eBuf = ArrayBuffer.from(t.s.length until sub.n)
          mode match {
            case ABase => miner.recursiveMine(sBuf, eBuf)
            case ASplit =>
              if (eBuf.length <= conf.tauSplit) miner.recursiveMine(sBuf, eBuf)
              else miner.decomposeOneLevel(sBuf, eBuf, spawnChild)
            case ATime(ms) =>
              miner.timeDelayed(sBuf, eBuf, t1, (ms * 1e6).toLong, spawnChild)
          }
          val dt = System.nanoTime - t1
          mineAcc.add(dt); maxAcc.add(dt); procAcc.add(1)
          if (f ne null) out += EmitStat(TaskStat(t.root, f.nV, f.nE, f.maxDeg, f.avgDeg, f.coreNum, dt))
        }
        it.foreach(execTask)
        while (local.nonEmpty) execTask(local.removeLast())
        out.iterator
      }.collect()

      val next = ArrayBuffer.empty[QCTask]
      emitted.foreach {
        case EmitResult(vs) => results += vs
        case EmitTask(t)    => next += t
        case EmitStat(s)    => stats += s
      }
      tasks = next.toArray
      peakHeap = math.max(peakHeap, usedHeapMB())
    }

    val wall1 = System.nanoTime
    // map results back to the original vertex ids, then post-process
    val mapped  = results.map(vs => QuasiClique.canon(vs.map(ids))).toSeq
    val maximal = Maximality.filterMaximal(mapped)
    val wall2 = System.nanoTime
    bc.destroy()

    EngineResult(
      maximal, results.length.toLong, (wall1 - wall0) / 1e6, (wall2 - wall1) / 1e6,
      rounds, procAcc.value, spawnAcc.value,
      mineAcc.value / 1e6, matAcc.value / 1e6, maxAcc.value / 1e6,
      stats.toSeq, peakHeap)
  }

  /** Deals `items` over `p` workers; bucket i becomes partition i, with no
    * shuffle. The redesigned engine deals items with `size >= bigAt` first,
    * largest first (stable), then the rest in arrival order, round-robin
    * (global queue + stealing). The original engine keeps each item with the
    * worker that owns it, `owner % p`, in arrival order (local queues only).
    */
  private[repro] def place[T: ClassTag](sc: SparkContext, items: Array[T], p: Int,
                                        prioritizeBig: Boolean, bigAt: Int)
                                       (size: T => Int, owner: T => Int): RDD[T] = {
    val buckets = Array.fill(p)(ArrayBuffer.empty[T])
    if (prioritizeBig) {
      val (big, small) = items.partition(size(_) >= bigAt)
      val ordered = big.sortBy(x => -size(x)) ++ small
      var i = 0
      while (i < ordered.length) { buckets(i % p) += ordered(i); i += 1 }
    } else items.foreach(x => buckets(owner(x) % p) += x)
    // p buckets in p slices: slice i holds exactly bucket i, so no shuffle is needed
    sc.parallelize(buckets.toSeq.map(_.toArray), p).flatMap(b => b)
  }

  private def usedHeapMB(): Long = {
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / (1024 * 1024)
  }
}
