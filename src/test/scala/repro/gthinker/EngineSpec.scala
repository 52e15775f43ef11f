package repro.gthinker

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.core.{QuickPlus, BruteForce, TaskSpawn}
import repro.graph.GraphGen

/** The engine must produce exactly the serial Quick+ maximal result set, for
  * every mode (A_base / A_split / A_time), engine variant (old/new), and
  * parallelism — decomposition and scheduling may never change the answer.
  */
class EngineSpec extends SparkSpec {

  private def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  private def serialTruth(g: repro.graph.LocalGraph, gamma: Double, tau: Int): Set[Vector[Int]] =
    canonSet(QuickPlus.mineSerial(g, gamma, tau).maximal)

  private val grid = for {
    (mode, tauSplit, label) <- Seq[(Mode, Int, String)](
      (ABase, 8, "A_base"), (ASplit, 8, "A_split(8)"), (ASplit, 2, "A_split(2)"),
      (ATime(0.0), 8, "A_time(0ms)"), (ATime(50.0), 8, "A_time(50ms)"))
    prioritize <- Seq(true, false)
    par        <- Seq(1, 4)
  } yield (mode, tauSplit, label, prioritize, par)

  for ((mode, tauSplit, label, prioritize, par) <- grid)
    test(s"engine == serial Quick+ [$label, prioritize=$prioritize, p=$par]") {
    for (seed <- Seq(11, 12)) {
      val g = GraphGen.erdosRenyi(40, 0.30, seed)
      val truth = serialTruth(g, 0.7, 5)
      val res = Engine.run(spark.sparkContext, g, 0.7, 5, mode,
        EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = tauSplit))
      assert(canonSet(res.maximal) == truth,
        s"seed=$seed missing=${(truth -- canonSet(res.maximal)).take(3)} extra=${(canonSet(res.maximal) -- truth).take(3)}")
    }
  }

  /** The ego tasks `Engine.run`'s spawn round builds: one per vertex below the
    * spawn bound whose k-core-pruned ego network survives.
    */
  private def egoTasks(g: repro.graph.LocalGraph, gamma: Double, tau: Int): Long = {
    val job = TaskSpawn.prologue(g, gamma, tau)
    (0 until job.spawnUpper).count(v => TaskSpawn.egoTask(job.graph, v, job.k).isDefined).toLong
  }

  // a subtask lost from, or mined twice out of, a local queue breaks the count
  for ((mode, tauSplit, label, prioritize, par) <- grid)
    test(s"tasks processed == ego tasks + subtasks spawned [$label, prioritize=$prioritize, p=$par]") {
    for (seed <- Seq(11, 12)) {
      val g = GraphGen.erdosRenyi(40, 0.30, seed)
      val res = Engine.run(spark.sparkContext, g, 0.7, 5, mode,
        EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = tauSplit))
      assert(res.tasksProcessed == egoTasks(g, 0.7, 5) + res.subtasksSpawned, s"seed=$seed")
    }
  }

  // With tau_split above every |ext| no subtask is big, and the old engine
  // keeps every subtask local whatever its size: all subtasks are mined from
  // local queues, inside the first mining round.
  for {
    (mode, tauSplit, prioritize, label) <- Seq[(Mode, Int, Boolean, String)](
      (ATime(0.0), 1000, true, "A_time(0ms), tau_split=1000"),
      (ATime(0.0), 1000, false, "A_time(0ms), tau_split=1000, old engine"),
      (ASplit, 2, false, "A_split(2), old engine"))
    par <- Seq(1, 4)
  } test(s"local queues only: engine == serial Quick+ in one round [$label, p=$par]") {
    for (seed <- Seq(11, 12)) {
      val g = GraphGen.erdosRenyi(40, 0.30, seed)
      val res = Engine.run(spark.sparkContext, g, 0.7, 5, mode,
        EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = tauSplit))
      assert(canonSet(res.maximal) == serialTruth(g, 0.7, 5), s"seed=$seed")
      assert(res.subtasksSpawned > 0, s"seed=$seed: nothing was decomposed")
      assert(res.rounds == 1, s"seed=$seed")
    }
  }

  private def hasShuffle(rdd: RDD[_]): Boolean = rdd.dependencies.exists {
    case _: ShuffleDependency[_, _, _] => true
    case d => hasShuffle(d.rdd)
  }

  // item x has size x / 10 and owner x % 10; big means size >= 4
  private val placeCases: Seq[(String, Array[Int], Map[(Boolean, Int), Seq[Seq[Int]]])] = Seq(
    ("seven items", Array(12, 55, 31, 40, 73, 26, 52), Map(
      (true, 1)  -> Seq(Seq(73, 55, 52, 40, 12, 31, 26)),
      (true, 3)  -> Seq(Seq(73, 40, 26), Seq(55, 12), Seq(52, 31)),
      (true, 4)  -> Seq(Seq(73, 12), Seq(55, 31), Seq(52, 26), Seq(40)),
      (false, 1) -> Seq(Seq(12, 55, 31, 40, 73, 26, 52)),
      (false, 3) -> Seq(Seq(40, 73, 26), Seq(31), Seq(12, 55, 52)),
      (false, 4) -> Seq(Seq(40), Seq(55, 31), Seq(12, 26, 52), Seq(73)))),
    ("fewer items than workers", Array(34, 60), Map(
      (true, 1)  -> Seq(Seq(60, 34)),
      (true, 3)  -> Seq(Seq(60), Seq(34), Nil),
      (true, 4)  -> Seq(Seq(60), Seq(34), Nil, Nil),
      (false, 1) -> Seq(Seq(34, 60)),
      (false, 3) -> Seq(Seq(60), Seq(34), Nil),
      (false, 4) -> Seq(Seq(34, 60), Nil, Nil, Nil))),
    ("no items", Array.empty[Int], Map(
      (true, 1)  -> Seq(Nil), (true, 3) -> Seq(Nil, Nil, Nil), (true, 4) -> Seq(Nil, Nil, Nil, Nil),
      (false, 1) -> Seq(Nil), (false, 3) -> Seq(Nil, Nil, Nil), (false, 4) -> Seq(Nil, Nil, Nil, Nil))))

  for ((label, items, expected) <- placeCases)
    test(s"Engine.place puts bucket i in partition i without a shuffle [$label]") {
    for (((prioritize, p), buckets) <- expected) {
      val placed = Engine.place(spark.sparkContext, items, p, prioritize, bigAt = 4)(_ / 10, _ % 10)
      assert(placed.glom().collect().map(_.toSeq).toSeq == buckets, s"prioritize=$prioritize p=$p")
      assert(!hasShuffle(placed), s"prioritize=$prioritize p=$p")
    }
  }

  test("engine matches brute force on a tiny graph") {
    val g = GraphGen.erdosRenyi(12, 0.6, 5)
    val truth = canonSet(BruteForce.allMaximal(g, 0.75, 4))
    for (mode <- Seq[Mode](ABase, ASplit, ATime(0.0))) {
      val res = Engine.run(spark.sparkContext, g, 0.75, 4, mode, EngineConfig(parallelism = 2, tauSplit = 3))
      assert(canonSet(res.maximal) == truth, s"mode=$mode")
    }
  }

  test("A_split and A_time actually decompose tasks (subtasks spawned)") {
    val g = GraphGen.erdosRenyi(50, 0.4, 3)
    val split = Engine.run(spark.sparkContext, g, 0.6, 5, ASplit, EngineConfig(2, tauSplit = 5))
    assert(split.subtasksSpawned > 0, "A_split with tiny tau_split must decompose")
    assert(split.rounds > 1)
    val time = Engine.run(spark.sparkContext, g, 0.6, 5, ATime(0.0), EngineConfig(2, tauSplit = 5))
    assert(time.subtasksSpawned > 0, "A_time with zero budget must decompose")
  }

  test("A_base never decomposes and finishes in one round") {
    val g = GraphGen.erdosRenyi(40, 0.3, 7)
    val res = Engine.run(spark.sparkContext, g, 0.7, 5, ABase, EngineConfig(4))
    assert(res.subtasksSpawned == 0)
    assert(res.rounds == 1)
  }

  test("metrics are sane: mining time positive, tasks processed >= spawned vertices surviving") {
    val g = GraphGen.erdosRenyi(40, 0.35, 9)
    val res = Engine.run(spark.sparkContext, g, 0.7, 5, ATime(1.0), EngineConfig(4))
    assert(res.tasksProcessed > 0)
    assert(res.miningMillis >= 0.0)
    assert(res.materializeMillis > 0.0)
    assert(res.maxTaskMillis <= res.miningMillis + 1e-6)
  }

  test("recordTaskStats yields one record per processed task with features") {
    val g = GraphGen.erdosRenyi(40, 0.35, 9)
    val res = Engine.run(spark.sparkContext, g, 0.7, 5, ABase, EngineConfig(4, recordTaskStats = true))
    assert(res.taskStats.nonEmpty)
    assert(res.taskStats.size == res.tasksProcessed)
    res.taskStats.foreach { s =>
      assert(s.nV >= 1); assert(s.mineNanos >= 0); assert(s.coreNum >= 0)
    }
  }

  test("empty after k-core: engine returns no results quickly") {
    val g = GraphGen.erdosRenyi(30, 0.05, 1) // sparse: 5-core empty
    val res = Engine.run(spark.sparkContext, g, 0.9, 8, ABase, EngineConfig(2))
    assert(res.maximal.isEmpty)
  }

  test("Engine.run rejects bad parameters on the driver") {
    val g = GraphGen.erdosRenyi(30, 0.3, 1)
    for ((gamma, tau) <- Seq((0.4, 5), (1.1, 5), (0.7, 0)))
      assertThrows[IllegalArgumentException] {
        Engine.run(spark.sparkContext, g, gamma, tau, ABase, EngineConfig(2))
      }
  }
}
