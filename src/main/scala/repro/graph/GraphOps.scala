package repro.graph

import scala.collection.mutable

/** Graph algorithms used by the miners and the task engine:
  * k-core peeling (pruning rule P2), core decomposition (task features),
  * induced subgraphs, 2-hop neighborhoods (diameter pruning P1), and the
  * vertex-ID recoding that enables the degenerate cover-vertex rule (P7).
  */
object GraphOps {

  /** Vertices surviving k-core peeling (Batagelj–Zaversnik style O(|E|)
    * repeated deletion of vertices with degree < k). Returns a mask.
    */
  def kCoreMask(g: LocalGraph, k: Int): Array[Boolean] = {
    val alive = Array.fill(g.n)(true)
    val deg   = Array.tabulate(g.n)(g.degree)
    val queue = new java.util.ArrayDeque[Int]()
    var v = 0
    while (v < g.n) { if (deg(v) < k) { alive(v) = false; queue.add(v) }; v += 1 }
    while (!queue.isEmpty) {
      val u = queue.poll()
      val a = g.adj(u); var i = 0
      while (i < a.length) {
        val w = a(i)
        if (alive(w)) { deg(w) -= 1; if (deg(w) < k) { alive(w) = false; queue.add(w) } }
        i += 1
      }
    }
    alive
  }

  /** k-core as an induced subgraph with its old-id mapping. */
  def kCoreSubgraph(g: LocalGraph, k: Int): (LocalGraph, Array[Int]) = {
    val mask = kCoreMask(g, k)
    val keep = (0 until g.n).filter(mask).toArray
    induced(g, keep)
  }

  /** Subgraph induced by `vs` (any order, no duplicates), recoded to
    * `0 until vs.length` in the order given. Returns (subgraph, oldIds)
    * where `oldIds(newId) = old id`.
    */
  def induced(g: LocalGraph, vs: Array[Int]): (LocalGraph, Array[Int]) = {
    // old id -> new id, -1 elsewhere; reset before returning
    var toNew = newIds.get
    if (toNew.length < g.n) { toNew = Array.fill(g.n)(-1); newIds.set(toNew) }
    val adj = new Array[Array[Int]](vs.length)
    var i = 0
    try {
      while (i < vs.length) { toNew(vs(i)) = i; i += 1 }
      i = 0
      while (i < vs.length) {
        val a = g.adj(vs(i))
        var d = 0; var j = 0
        while (j < a.length) { if (toNew(a(j)) >= 0) d += 1; j += 1 }
        val row = new Array[Int](d)
        d = 0; j = 0
        while (j < a.length) { val nw = toNew(a(j)); if (nw >= 0) { row(d) = nw; d += 1 }; j += 1 }
        java.util.Arrays.sort(row)
        adj(i) = row
        i += 1
      }
    } finally {
      i = 0
      while (i < vs.length) { toNew(vs(i)) = -1; i += 1 }
    }
    (new LocalGraph(adj), vs.clone())
  }

  /** Per-thread id map of `induced`, grown to the largest graph seen. */
  private val newIds = ThreadLocal.withInitial[Array[Int]](() => Array.emptyIntArray)

  /** Core number of every vertex (peeling with bucket queues); the maximum
    * is the graph's degeneracy — the "Core #" feature of Tables 1–2.
    */
  def coreNumbers(g: LocalGraph): Array[Int] = {
    val n = g.n
    if (n == 0) return Array.emptyIntArray
    val deg  = Array.tabulate(n)(g.degree)
    val maxD = g.maxDegree
    // bin sort by degree
    val bin = new Array[Int](maxD + 2)
    var v = 0
    while (v < n) { bin(deg(v)) += 1; v += 1 }
    var start = 0; var d = 0
    while (d <= maxD) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos  = new Array[Int](n)
    val vert = new Array[Int](n)
    v = 0
    while (v < n) { pos(v) = bin(deg(v)); vert(pos(v)) = v; bin(deg(v)) += 1; v += 1 }
    d = maxD
    while (d >= 1) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    val core = new Array[Int](n)
    var i = 0
    while (i < n) {
      val u = vert(i)
      core(u) = deg(u)
      val a = g.adj(u); var j = 0
      while (j < a.length) {
        val w = a(j)
        if (deg(w) > deg(u)) {
          val dw = deg(w); val pw = pos(w); val ps = bin(dw); val s = vert(ps)
          if (s != w) { vert(ps) = w; vert(pw) = s; pos(w) = ps; pos(s) = pw }
          bin(dw) += 1; deg(w) -= 1
        }
        j += 1
      }
      i += 1
    }
    core
  }

  /** Graph degeneracy = max core number (0 for empty). */
  def degeneracy(g: LocalGraph): Int = {
    val c = coreNumbers(g)
    if (c.isEmpty) 0 else c.max
  }

  /** Vertices within 2 hops of v (excluding v) whose id is > v — the
    * candidate pool B_{>v}(v) a spawned task pulls (Algorithms 4, 6, 7).
    * `minDegree` drops vertices pruned by Theorem 2 up front.
    */
  def twoHopAbove(g: LocalGraph, v: Int, minDegree: Int): Array[Int] = {
    val seen = new mutable.HashSet[Int]
    val a = g.adj(v); var i = 0
    while (i < a.length) {
      val u = a(i)
      if (u > v && g.degree(u) >= minDegree) seen += u
      val b = g.adj(u); var j = 0
      while (j < b.length) {
        val w = b(j)
        if (w > v && w != v && g.degree(w) >= minDegree) seen += w
        j += 1
      }
      i += 1
    }
    seen -= v
    val arr = seen.toArray
    java.util.Arrays.sort(arr)
    arr
  }

  /** Is the subgraph induced by `vs` connected? BFS restricted to `vs`. */
  def connectedInduced(g: LocalGraph, vs: Array[Int]): Boolean = {
    if (vs.length <= 1) return true
    val in = new mutable.HashSet[Int]
    vs.foreach(in += _)
    val seen  = new mutable.HashSet[Int]
    val queue = new java.util.ArrayDeque[Int]()
    queue.add(vs(0)); seen += vs(0)
    while (!queue.isEmpty) {
      val u = queue.poll()
      val a = g.adj(u); var i = 0
      while (i < a.length) {
        val w = a(i)
        if (in.contains(w) && seen.add(w)) queue.add(w)
        i += 1
      }
    }
    seen.size == vs.length
  }

  /** ID recoding for the degenerate cover-vertex rule (P7, T6): the highest-
    * degree vertex (after any k-core pruning) becomes id 0, its neighbors get
    * the largest ids (they are enumerated last and pruned by the cover rule),
    * and the remaining vertices are sorted ascending by degree so lookahead
    * succeeds more often. Returns (recoded graph, oldIds).
    */
  def recodeByCover(g: LocalGraph): (LocalGraph, Array[Int]) = {
    if (g.n == 0) return (g, Array.emptyIntArray)
    var vmax = 0; var v = 1
    while (v < g.n) { if (g.degree(v) > g.degree(vmax)) vmax = v; v += 1 }
    val isNbr = new Array[Boolean](g.n)
    g.adj(vmax).foreach(isNbr(_) = true)
    val others = (0 until g.n).filter(u => u != vmax && !isNbr(u)).toArray
      .sortBy(g.degree)
    val nbrs = g.adj(vmax).sortBy(g.degree)
    val order = Array.ofDim[Int](g.n)
    order(0) = vmax
    System.arraycopy(others, 0, order, 1, others.length)
    System.arraycopy(nbrs, 0, order, 1 + others.length, nbrs.length)
    induced(g, order)
  }

  /** Per-task subgraph features of Tables 1–2. */
  final case class SubgraphFeatures(nV: Int, nE: Long, maxDeg: Int, avgDeg: Double, coreNum: Int) {
    def toVector: Array[Double] = Array(nV.toDouble, nE.toDouble, maxDeg.toDouble, avgDeg, coreNum.toDouble)
  }

  def features(g: LocalGraph): SubgraphFeatures =
    SubgraphFeatures(g.n, g.numEdges, g.maxDegree, g.avgDegree, degeneracy(g))
}
