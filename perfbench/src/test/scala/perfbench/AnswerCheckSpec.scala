package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{QuasiClique, QuickPlus}
import repro.graph.{GraphGen, LocalGraph}

/** The answer check must reject wrong answers, and the benchmark's helpers
  * must not change answers. Run with `sbt test` in this directory.
  */
class AnswerCheckSpec extends AnyFunSuite {

  private val gamma = 0.75
  private val tauSize = 5
  private val clique = Array.range(0, 8)
  // a sparse background, one 8-clique and two dense blocks
  private val g: LocalGraph = {
    val n = 80
    val background = GraphGen.erdosRenyi(n, 0.04, 7L).packedEdges
    val blocks = Seq(
      GraphGen.denseBlock(clique, 1.0, 1L),
      GraphGen.denseBlock(Array.range(20, 30), 0.9, 2L),
      GraphGen.denseBlock(Array.range(40, 49), 0.9, 3L))
    LocalGraph.fromEdges(n, (background +: blocks).flatten.toArray)
  }
  private val answer = QuickPlus.mineSerial(g, gamma, tauSize).maximal
  private val ref = AnswerCheck.reference(answer)

  private def check(sets: Seq[Array[Int]]) = AnswerCheck.check(g, gamma, tauSize, sets, ref)

  test("the right answer passes") {
    assert(answer.size >= 2)
    assert(check(answer).isEmpty)
    assert(check(answer.reverse.map(_.reverse)).isEmpty, "order must not matter")
  }

  test("an answer with one set dropped is rejected") {
    assert(check(answer.tail).exists(_.contains("reference has")))
  }

  test("an answer with a subset of one of its sets added is rejected") {
    val big = answer.find(s => clique.forall(s.contains)).get
    val sub = clique.take(7)
    assert(QuasiClique.isQuasiClique(g, sub, gamma) && big.length > sub.length)
    assert(check(answer :+ sub).exists(_.contains("contained in")))
  }

  test("an answer with an invalid set added is rejected") {
    val bad = Array(0, 20, 40, 60, 70)
    assert(!QuasiClique.isQuasiClique(g, bad, gamma))
    assert(check(answer :+ bad).exists(_.contains("not a")))
  }

  test("a relabelled copy has the same answer in base ids") {
    val copy = Relabelled(g, 42L)
    val out = QuickPlus.mineSerial(copy.graph, gamma, tauSize).maximal
    assert(check(copy.toBase(out)).isEmpty)
  }

  test("the traced serial replay returns exactly QuickPlus.mineSerial's answer") {
    val r = SerialReplay.run(g, gamma, tauSize, new Tracer, 0, Long.MaxValue)
    assert(!r.timedOut)
    assert(r.maximal.map(_.toVector).toSet == answer.map(_.toVector).toSet)
    assert(r.layers("core.maximal") == answer.size.toDouble)
  }
}
