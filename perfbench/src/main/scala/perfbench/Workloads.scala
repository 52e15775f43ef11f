package perfbench

import repro.graph.{GraphGen, LocalGraph}
import repro.gthinker.{ATime, Mode}

/** What a workload runs per job: serial Quick+ on one thread, or the
  * G-thinker engine on Spark with the given mode and τ_split.
  */
sealed trait JobKind
case object SerialJob extends JobKind
final case class EngineJob(mode: Mode, tauSplit: Int) extends JobKind

/** A benchmark workload: the dataset it mines, the job it times, and how
  * many untimed warm-up jobs come first (JIT; first Spark job and broadcast).
  */
final case class Workload(name: String, dataset: String, kind: JobKind, warmupJobs: Int) {
  def usesSpark: Boolean = kind != SerialJob
}

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("serial-hyves", "hyves", SerialJob, warmupJobs = 4),
    Workload("engine-hyves-t100", "hyves", EngineJob(ATime(100), tauSplit = 50), warmupJobs = 4),
    Workload("engine-patent-t100", "patent", EngineJob(ATime(100), tauSplit = 50), warmupJobs = 3),
    Workload("engine-patent-t1", "patent", EngineJob(ATime(1), tauSplit = 50), warmupJobs = 3))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** The reference answer of a dataset: how many maximal sets, and the digest
  * of their canonical form (see [[AnswerCheck.digest]]).
  */
final case class Reference(count: Int, digest: String)

object Datasets {
  /** GraphGen's own default seeds. */
  val defaultSeed: Map[String, Long] = Map("hyves" -> 106L, "patent" -> 108L)

  /** Patent-like keeps its background, communities and default (γ, τ_size),
    * but has one near-threshold region of 72 vertices instead of four of 92.
    * The full dataset takes ~30 s per engine job on 4 cores, too long to
    * warm up and repeat inside one benchmark run; this one takes ~1.3 s and
    * still shows both the compute-bound (τ_time = 100 ms) and the
    * materialization-heavy (τ_time = 1 ms) regimes.
    */
  val patentHardRegions = 1
  val patentHardSize = 72

  def generate(name: String, seed: Long): GraphGen.Dataset = name match {
    case "hyves"  => GraphGen.hyvesLike(seed)
    case "patent" => GraphGen.patentLike(seed, nHard = patentHardRegions, hardSize = patentHardSize)
    case other    => throw new IllegalArgumentException(s"unknown dataset '$other'")
  }

  /** Reference answers pinned for the default seeds at their default
    * (γ, τ_size), computed with `QuickPlus.mineSerial`. Any other dataset
    * seed gets its reference from serial Quick+ during set-up.
    */
  val pinned: Map[(String, Long), Reference] = Map(
    ("hyves", 106L)  -> Reference(24, "6e814b15e5c045cb"),
    ("patent", 108L) -> Reference(26, "17f769ae2fee9fdf"))
}

/** A copy of a graph with its vertex ids permuted by a seeded shuffle.
  * Mining cost depends on id order (k-core order, the degree sort of the
  * cover recoding, ego-task ids), so each benchmark seed mines differently
  * labelled but isomorphic inputs; answers map back to the base ids, where
  * they are checked against the one reference of the dataset.
  */
final class Relabelled private (val graph: LocalGraph, toNew: Array[Int]) {
  private val toOld: Array[Int] = {
    val inv = new Array[Int](toNew.length)
    var v = 0
    while (v < toNew.length) { inv(toNew(v)) = v; v += 1 }
    inv
  }

  /** Vertex sets of `graph` as sorted sets of base-graph ids. */
  def toBase(sets: Seq[Array[Int]]): Seq[Array[Int]] =
    sets.map { s => val a = s.map(toOld); java.util.Arrays.sort(a); a }
}

object Relabelled {
  def apply(g: LocalGraph, seed: Long): Relabelled = {
    val n = g.n
    val perm = Array.range(0, n)
    val rnd = new java.util.Random(seed)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    val adj = new Array[Array[Int]](n)
    var v = 0
    while (v < n) {
      val a = g.adj(v).map(perm)
      java.util.Arrays.sort(a)
      adj(perm(v)) = a
      v += 1
    }
    new Relabelled(new LocalGraph(adj), perm)
  }
}
