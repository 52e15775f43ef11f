package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Properties of the miner's internal pruning machinery, validated against
  * exhaustive search on small instances.
  */
class MinerInternalsSpec extends AnyFunSuite {

  private def newMiner(g: LocalGraph, gamma: Double, tau: Int,
                       out: ArrayBuffer[Array[Int]] = ArrayBuffer.empty): Miner =
    new Miner(g, gamma, tau, arr => { out += arr; () })

  // ------------------------------------------------------ cover vertex P7

  for (seed <- 1 to 8) test(s"cover-vertex theorem holds empirically (seed=$seed)") {
    // Theorem (P7): for any γ-QC Q built from S plus ONLY vertices of
    // C_S(u), Q ∪ {u} is also a γ-QC — so Q is never maximal.
    val rnd = new Random(seed)
    val g = GraphGen.erdosRenyi(12, 0.6 + 0.2 * rnd.nextDouble(), seed * 13)
    val gamma = Seq(0.6, 0.75, 0.9)(rnd.nextInt(3))
    val perm = rnd.shuffle((0 until g.n).toList)
    val s = perm.take(1 + rnd.nextInt(3)).toArray
    val ext = perm.slice(s.length, s.length + 7).toArray
    val miner = newMiner(g, gamma, 2)
    val cover = miner.coverSetFor(ArrayBuffer.from(s), ArrayBuffer.from(ext))
    if (cover != null && cover.nonEmpty) {
      // u = the vertex whose cover set was returned: recover it by checking
      // each candidate; the property must hold for whichever u generated it,
      // so verify the weaker universal form — every QC from S ∪ C is
      // extendable by SOME ext vertex adjacent to all of C
      val coverSet = cover.toSet
      var mask = 1
      while (mask < (1 << cover.length)) {
        val z = cover.indices.filter(i => (mask & (1 << i)) != 0).map(cover)
        val q = (s ++ z).sorted
        if (QuasiClique.isQuasiClique(g, q, gamma)) {
          val extendable = ext.exists(u => !coverSet.contains(u) && !q.contains(u) &&
            QuasiClique.isQuasiClique(g, (q :+ u).sorted, gamma))
          assert(extendable, s"QC ${q.toSeq} from cover set is not extendable: cover=${cover.toSeq} s=${s.toSeq}")
        }
        mask += 1
      }
    }
  }

  // --------------------------------------------------- diameter shrink P1

  private def checkDiameterShrink(g: LocalGraph, pool: Seq[Int], seed: Int): Unit = {
    val rnd = new Random(seed)
    val perm = rnd.shuffle(pool.toList)
    val v = perm.head
    val ext = perm.tail.take(10)
    val miner = newMiner(g, 0.9, 2)
    val got = miner.diameterShrink(ArrayBuffer.from(ext), v).toSet
    val expect = ext.filter { u =>
      g.hasEdge(u, v) || g.adj(u).exists(w => g.hasEdge(w, v))
    }.toSet
    assert(got == expect)
  }

  for (seed <- 1 to 6) test(s"diameterShrink keeps exactly the 2-hop reachable ext vertices (seed=$seed)") {
    val g = GraphGen.erdosRenyi(20, 0.15, seed * 7)
    checkDiameterShrink(g, 0 until g.n, seed)
  }

  test("diameterShrink keeps exactly the 2-hop reachable ext vertices (ER(13) on 200 ids across word edges)") {
    val (big, place) = spreadOverWords(GraphGen.erdosRenyi(13, 0.25, 7), 200, 7)
    checkDiameterShrink(big, place.toSeq ++ Seq(0, 62, 65, 129, 190), 7)
  }

  // ------------------------------------------- bitset rows of 1 to 4 words

  /** `g` relabelled into the id space `0 until size`: its vertices take the
    * ids on both sides of each 64-bit word edge (63|64, 127|128, …) and the
    * last id first, then random others; the remaining ids are isolated
    * padding. Returns (embedded graph, place) with place(v) = v's new id.
    */
  private def spreadOverWords(g: LocalGraph, size: Int, seed: Int): (LocalGraph, Array[Int]) = {
    val rnd = new Random(seed)
    val edges = ((64 until size by 64).flatMap(b => Seq(b - 1, b)) :+ (size - 1)).distinct
    val ids = edges ++ rnd.shuffle((0 until size).filterNot(edges.contains).toList)
    val place = rnd.shuffle(ids.take(g.n).toList).toArray
    val pairs = for (u <- 0 until g.n; w <- g.adj(u) if u < w) yield (place(u), place(w))
    (LocalGraph.fromPairs(size, pairs), place)
  }

  for (size <- Seq(64, 65, 130, 200); seed <- 1 to 3)
    test(s"recursiveMine matches brute force with vertices across word edges (ids=$size seed=$seed)") {
      val g = GraphGen.erdosRenyi(10 + seed, 0.45 + 0.1 * seed, seed * 1000 + size)
      val (big, place) = spreadOverWords(g, size, seed)
      val back = Array.fill(size)(-1)
      place.indices.foreach(v => back(place(v)) = v)
      val tau = 2 + seed % 2
      for (gamma <- Seq(0.5, 0.75, 0.9, 1.0)) {
        val out = ArrayBuffer.empty[Array[Int]]
        newMiner(big, gamma, tau, out).recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until size))
        out.foreach(c => assert(QuasiClique.isQuasiClique(big, c, gamma), s"gamma=$gamma: ${c.toSeq} is no QC"))
        val got = Maximality.filterMaximal(out.toSeq.map(c => QuasiClique.canon(c.map(back))))
          .map(_.toVector).toSet
        val expected = BruteForce.allMaximal(g, gamma, tau).map(_.toVector).toSet
        assert(expected.nonEmpty)
        assert(got == expected, s"gamma=$gamma: missing=${expected -- got} extra=${got -- expected}")
      }
    }

  // --------------------------------- decomposition preserves completeness

  for (seed <- 1 to 6) test(s"decomposeOneLevel + child recursion == recursiveMine (seed=$seed)") {
    val g = GraphGen.erdosRenyi(14, 0.55, seed * 11)
    val gamma = 0.7; val tau = 4

    val full = ArrayBuffer.empty[Array[Int]]
    newMiner(g, gamma, tau, full).recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n))

    val split = ArrayBuffer.empty[Array[Int]]
    val pending = ArrayBuffer.empty[(Array[Int], Array[Int])]
    newMiner(g, gamma, tau, split).decomposeOneLevel(
      ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n),
      (s, e) => { pending += ((s, e)); () })
    // children are completed with the plain recursive miner
    while (pending.nonEmpty) {
      val (s, e) = pending.remove(pending.length - 1)
      newMiner(g, gamma, tau, split).recursiveMine(ArrayBuffer.from(s), ArrayBuffer.from(e))
    }

    val fullMax  = Maximality.filterMaximal(full.toSeq).map(_.toVector).toSet
    val splitMax = Maximality.filterMaximal(split.toSeq).map(_.toVector).toSet
    assert(fullMax == splitMax, s"missing=${(fullMax -- splitMax).take(3)} extra=${(splitMax -- fullMax).take(3)}")
  }

  for (seed <- 1 to 6) test(s"timeDelayed with immediate timeout + child recursion == recursiveMine (seed=$seed)") {
    val g = GraphGen.erdosRenyi(14, 0.55, seed * 19)
    val gamma = 0.75; val tau = 4

    val full = ArrayBuffer.empty[Array[Int]]
    newMiner(g, gamma, tau, full).recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n))

    val timed = ArrayBuffer.empty[Array[Int]]
    val pending = ArrayBuffer.empty[(Array[Int], Array[Int])]
    // start already timed out: every surviving branch is wrapped
    newMiner(g, gamma, tau, timed).timeDelayed(
      ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n),
      startNanos = System.nanoTime - 1000000000L, tauTimeNanos = 0L,
      (s, e) => { pending += ((s, e)); () })
    while (pending.nonEmpty) {
      val (s, e) = pending.remove(pending.length - 1)
      newMiner(g, gamma, tau, timed).recursiveMine(ArrayBuffer.from(s), ArrayBuffer.from(e))
    }

    val fullMax  = Maximality.filterMaximal(full.toSeq).map(_.toVector).toSet
    val timedMax = Maximality.filterMaximal(timed.toSeq).map(_.toVector).toSet
    assert(fullMax == timedMax)
  }

  for (seed <- 1 to 6; graphSeed <- Seq(seed * 11, seed * 19))
    test(s"timeDelayed with a budget that never expires emits recursiveMine's candidates in order (graph seed=$graphSeed)") {
      val g = GraphGen.erdosRenyi(14, 0.55, graphSeed)
      val gamma = 0.7; val tau = 4

      val full = ArrayBuffer.empty[Array[Int]]
      val fullFound = newMiner(g, gamma, tau, full)
        .recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n))

      val timed = ArrayBuffer.empty[Array[Int]]
      var spawned = 0
      val timedFound = newMiner(g, gamma, tau, timed).timeDelayed(
        ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n),
        startNanos = System.nanoTime, tauTimeNanos = Long.MaxValue,
        (_, _) => { spawned += 1; () })

      assert(spawned == 0)
      assert(timedFound == fullFound)
      assert(full.nonEmpty)
      assert(timed.map(_.toVector) == full.map(_.toVector))
    }

  // ---------------------------------------------------- iterativeBounding

  for (seed <- 1 to 8) test(s"iterativeBounding never prunes away a reachable valid quasi-clique (seed=$seed)") {
    val rnd = new Random(seed)
    val g = GraphGen.erdosRenyi(12, 0.65, seed * 23)
    val gamma = 0.7; val tau = 3
    val perm = rnd.shuffle((0 until g.n).toList)
    val s0 = perm.take(2).toArray.sorted
    val ext0 = perm.slice(2, 10).toArray
    // truth: all valid QCs Q with s0 ⊆ Q ⊆ s0 ∪ ext0, |Q| >= tau
    val truthAll = BruteForce.allValid(g, gamma, tau).map(_.toVector)
      .filter(q => s0.forall(q.contains) && q.forall(v => s0.contains(v) || ext0.contains(v)))
    val out = ArrayBuffer.empty[Array[Int]]
    val miner = newMiner(g, gamma, tau, out)
    val sB = ArrayBuffer.from(s0); val eB = ArrayBuffer.from(ext0)
    val pruned = miner.iterativeBounding(sB, eB)
    if (!pruned) {
      // everything reachable must still be reachable: S grew only by forced
      // (critical) vertices and ext lost only provably useless vertices
      val sSet = sB.toSet; val eSet = eB.toSet
      truthAll.foreach { q =>
        // any maximal-size valid target either contains the forced vertices
        // or was output already during bounding
        val stillReachable = sSet.subsetOf(q.toSet) && q.forall(v => sSet.contains(v) || eSet.contains(v))
        val alreadyOut = out.exists(_.toVector == q)
        val dominated = truthAll.exists(t => t.size > q.size && q.toSet.subsetOf(t.toSet))
        assert(stillReachable || alreadyOut || dominated,
          s"valid QC $q lost by bounding: S=${sB.toSeq} ext=${eB.toSeq}")
      }
    }
  }
}
