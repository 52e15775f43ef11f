package repro.core

import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.ArrayBuffer

/** A job's graph after the prologue, `ids` mapping it back to the input's
  * ids; ego tasks are k-core pruned and spawned from `0 until spawnUpper`.
  */
final case class JobGraph(graph: LocalGraph, ids: Array[Int], k: Int, spawnUpper: Int)

/** Task spawning shared by the serial miners and the G-thinker engine:
  * the job prologue and Algorithms 4, 6 and 7 — the k-core-pruned 2-hop ego
  * network of a vertex.
  */
object TaskSpawn {

  /** Rejects parameters the miner cannot handle, on the caller's thread. */
  def checkParams(gamma: Double, tauSize: Int): Unit = {
    require(gamma >= 0.5 && gamma <= 1.0, s"gamma must be in [0.5, 1], got $gamma")
    require(tauSize >= 1, s"tauSize must be >= 1, got $tauSize")
  }

  /** The prologue of every job: check the parameters, k-core prune the
    * graph (P2/T1), optionally recode ids for the degenerate cover rule
    * (P7/T6). With recoding, tasks spawned from N(v_max) (the tail id block)
    * can only find quasi-cliques inside N(v_max), which v_max itself
    * extends — so no task is spawned from there.
    */
  def prologue(g: LocalGraph, gamma: Double, tauSize: Int, recode: Boolean = true): JobGraph = {
    checkParams(gamma, tauSize)
    val k = QuasiClique.ceilGamma(gamma, tauSize - 1)
    val (gK, idsK) = GraphOps.kCoreSubgraph(g, k)
    if (recode && gK.n > 0) {
      val (gm, ids) = GraphOps.recodeByCover(gK)
      JobGraph(gm, ids.map(idsK), k, gm.n - gm.degree(0))
    } else JobGraph(gK, idsK, k, gK.n)
  }

  /** The task subgraph spawned from `v`: induced by {v} ∪ {u ∈ B(v) : u > v,
    * d(u) >= k}, shrunk to its k-core. Returns None when v itself is pruned
    * (degree < k or peeled away). In the Some case the root v is vertex 0 of
    * the returned subgraph and `oldIds` maps back to `g`'s ids.
    */
  def egoTask(g: LocalGraph, v: Int, k: Int): Option[(LocalGraph, Array[Int])] = {
    if (g.degree(v) < k) return None
    val pool = GraphOps.twoHopAbove(g, v, k)
    if (pool.length + 1 < math.max(k + 1, 1)) return None
    val verts = new Array[Int](pool.length + 1)
    verts(0) = v
    System.arraycopy(pool, 0, verts, 1, pool.length)
    val (sub, oldIds) = GraphOps.induced(g, verts)
    val mask = GraphOps.kCoreMask(sub, k)
    if (!mask(0)) return None
    val keep = (0 until sub.n).filter(mask).toArray // ascending, so root stays first
    val (core, coreIds) = GraphOps.induced(sub, keep)
    Some((core, coreIds.map(oldIds)))
  }
}

/** One serial mining outcome: all emitted candidate sets (original vertex
  * ids), the maximal ones after post-processing, and timing.
  */
final case class MineOutcome(
    candidates: Seq[Array[Int]],
    maximal: Seq[Array[Int]],
    mineMillis: Double,
    postMillis: Double,
    timers: PhaseTimers,
    timedOut: Boolean = false) {
  def numResults: Int = candidates.size
  def numMaximal: Int = maximal.size
}

/** Serial drivers for Quick+ (and, via config, the original Quick).
  *
  * `mineSerial` is the single-threaded reference used by Table 15 and by
  * every correctness test: run the job prologue (`TaskSpawn.prologue`), mine
  * each per-vertex ego task with Algorithm 3 and post-process away
  * non-maximal outputs.
  */
object QuickPlus {

  def mineSerial(
      g: LocalGraph,
      gamma: Double,
      tauSize: Int,
      config: MinerConfig = MinerConfig.quickPlus,
      recode: Boolean = true,
      timers: PhaseTimers = new PhaseTimers,
      capMillis: Long = Long.MaxValue): MineOutcome = {
    val t0 = System.nanoTime
    val deadline = if (capMillis == Long.MaxValue) Long.MaxValue else t0 + capMillis * 1000000L
    val job = TaskSpawn.prologue(g, gamma, tauSize, recode)
    val ids = job.ids
    val out = ArrayBuffer.empty[Array[Int]]
    var timedOut = false
    var v = 0
    while (v < job.spawnUpper && !timedOut) {
      TaskSpawn.egoTask(job.graph, v, job.k) match {
        case Some((task, taskIds)) =>
          val miner = new Miner(task, gamma, tauSize,
            arr => out += QuasiClique.canon(arr.map(x => ids(taskIds(x)))),
            config, timers, deadline)
          try miner.recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until task.n))
          catch { case _: Miner.DeadlineExceeded => timedOut = true }
        case None => ()
      }
      v += 1
    }
    val t1 = System.nanoTime
    val maximal = Maximality.filterMaximal(out.toSeq)
    val t2 = System.nanoTime
    MineOutcome(out.toSeq, maximal, (t1 - t0) / 1e6, (t2 - t1) / 1e6, timers, timedOut)
  }
}

/** The original Quick baseline: one critical vertex per bounding round, no
  * boundary-case prunes, and the missing G(S) checks — so it can both run
  * slower and miss results (Table 15). It also lacks the degenerate
  * cover-vertex recoding.
  */
object Quick {
  def mineSerial(g: LocalGraph, gamma: Double, tauSize: Int,
                 timers: PhaseTimers = new PhaseTimers,
                 capMillis: Long = Long.MaxValue): MineOutcome =
    QuickPlus.mineSerial(g, gamma, tauSize, MinerConfig.quick, recode = false, timers, capMillis)
}
