package perfbench

import repro.core.QuasiClique
import repro.graph.LocalGraph

/** Checks a job's answer — its set of maximal γ-quasi-cliques, in base-graph
  * ids — independently of the program's own post-processing:
  *  - every set is a valid γ-QC with at least τ_size vertices;
  *  - no set equals or contains another;
  *  - the digest of the whole answer equals the reference.
  */
object AnswerCheck {

  /** SHA-256 (first 16 hex digits) of the answer in canonical form: each set
    * sorted ascending, the sets ordered by their text, joined by ';'.
    */
  def digest(sets: Seq[Array[Int]]): String = {
    val text = sets.map(s => s.sorted.mkString(",")).sorted.mkString(";")
    val md = java.security.MessageDigest.getInstance("SHA-256")
    md.digest(text.getBytes("UTF-8")).take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  def reference(sets: Seq[Array[Int]]): Reference = Reference(sets.size, digest(sets))

  /** None when the answer is right, otherwise the first thing wrong with it. */
  def check(g: LocalGraph, gamma: Double, tauSize: Int, sets: Seq[Array[Int]],
            ref: Reference): Option[String] = {
    val sorted = sets.map(_.sorted)
    sorted.zipWithIndex.foreach { case (s, i) =>
      if (s.length < tauSize) return Some(s"set $i has ${s.length} < τ_size = $tauSize vertices")
      if (s.exists(v => v < 0 || v >= g.n)) return Some(s"set $i names a vertex outside the graph")
      if (s.distinct.length != s.length) return Some(s"set $i repeats a vertex")
      if (!QuasiClique.isQuasiClique(g, s, gamma)) return Some(s"set $i is not a $gamma-quasi-clique")
    }
    val members = sorted.map(_.toSet)
    for (i <- members.indices; j <- members.indices if i != j) {
      if (members(i).size <= members(j).size && members(i).subsetOf(members(j)))
        return Some(s"set $i is contained in set $j")
    }
    if (sets.size != ref.count) return Some(s"${sets.size} sets, reference has ${ref.count}")
    val d = digest(sorted)
    if (d != ref.digest) return Some(s"digest $d differs from reference ${ref.digest}")
    None
  }
}
