package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** Configuration separating Quick+ from the original Quick baseline.
  *
  * Quick+ (Section 6) improves Quick in three ways, each a flag here:
  *  - all critical vertices are moved per bounding iteration (Quick: one);
  *  - boundary cases of the U_S / L_S computation trigger Type-II pruning
  *    (Quick: falls back to a loose bound);
  *  - G(S) itself is examined where only S's *extensions* are pruned —
  *    before a critical-vertex move, on Theorem 4 Condition (i), and when
  *    ext(S') becomes empty after diameter shrinking (Quick misses these
  *    checks and thus can miss maximal results).
  */
final case class MinerConfig(
    allCriticalVertices: Boolean,
    boundaryPrunes: Boolean,
    checkBeforeCriticalMove: Boolean,
    checkOnTheorem4i: Boolean,
    checkOnEmptyDiameterShrink: Boolean)

object Miner {
  /** Thrown when a serial mining run exceeds its wall-clock cap (used by the
    * Table 15 bench to mirror the paper's "> 24 hr" rows).
    */
  final class DeadlineExceeded extends RuntimeException("miner deadline exceeded")
}

object MinerConfig {
  val quickPlus: MinerConfig = MinerConfig(
    allCriticalVertices = true, boundaryPrunes = true,
    checkBeforeCriticalMove = true, checkOnTheorem4i = true,
    checkOnEmptyDiameterShrink = true)
  val quick: MinerConfig = MinerConfig(
    allCriticalVertices = false, boundaryPrunes = false,
    checkBeforeCriticalMove = false, checkOnTheorem4i = false,
    checkOnEmptyDiameterShrink = false)
}

/** Wall-clock nanoseconds spent in each pruning phase (Table 16). */
final class PhaseTimers extends Serializable {
  var lookaheadNs: Long = 0L
  var coverNs: Long     = 0L
  var criticalNs: Long  = 0L
  var boundNs: Long     = 0L
  def add(o: PhaseTimers): Unit = {
    lookaheadNs += o.lookaheadNs; coverNs += o.coverNs
    criticalNs += o.criticalNs; boundNs += o.boundNs
  }
}

/** The recursive quasi-clique miner over one in-memory graph.
  *
  * Implements Algorithm 2 (`iterativeBounding`) and one set-enumeration
  * loop with three entry points: Algorithm 3 (`recursiveMine`), Algorithm
  * 8's decomposition step (`decomposeOneLevel`) and Algorithm 10
  * (`timeDelayed`). The instance is single-threaded: all scratch state is
  * reused across calls.
  *
  * The hot paths run on a bitset view of `g` built once per instance: a
  * row-major adjacency matrix of W = ⌈n/64⌉ words per vertex (n·W·8 bytes),
  * plus W-word bitsets for S, ext and the vertex set under a γ-QC check.
  * Degrees are popcounts of row ∧ set (T2), diameter pruning (P1) is a row
  * test plus a row ∧ row test, and the output and lookahead checks test
  * the popcount degrees and then connectivity by a bitset BFS. Task graphs
  * are small (≤ a few hundred vertices), so rows span one to a few words.
  *
  * Every candidate result is emitted through `sink` (vertex ids of `g`,
  * sorted); non-maximal ones are removed by `Maximality.filterMaximal`
  * afterwards, exactly like the paper's post-processing phase.
  *
  * Requires γ >= 0.5 (diameter-2 pruning, as in the paper's description).
  */
final class Miner(
    val g: LocalGraph,
    val gamma: Double,
    val tauSize: Int,
    sink: Array[Int] => Unit,
    config: MinerConfig = MinerConfig.quickPlus,
    timers: PhaseTimers = null,
    deadlineNanos: Long = Long.MaxValue) {

  require(gamma >= 0.5 && gamma <= 1.0, s"miner assumes diameter-2 pruning, needs gamma in [0.5,1], got $gamma")
  import QuasiClique.ceilGamma
  import java.lang.Long.{bitCount, lowestOneBit, numberOfTrailingZeros}

  private val n = g.n
  private val W = (n + 63) >>> 6
  require(n.toLong * W <= Int.MaxValue, s"task graph of $n vertices is too large for the bitset kernel")

  /** Row v = words [v·W, (v+1)·W); bit u of row v is set iff (u, v) ∈ E. */
  private val rows = {
    val m = new Array[Long](n * W)
    var v = 0
    while (v < n) {
      val a = g.adj(v); var j = 0
      while (j < a.length) { val u = a(j); m(v * W + (u >>> 6)) |= 1L << u; j += 1 }
      v += 1
    }
    m
  }
  private val sBits = new Array[Long](W) // S and ext as of the last computeDegrees
  private val eBits = new Array[Long](W)
  private val qBits = new Array[Long](W) // vertex set of a γ-QC check
  private val seen  = new Array[Long](W) // BFS scratch
  private val front = new Array[Long](W)
  private val lowS  = new Array[Long](W) // cover rule scratch
  private val cBits = new Array[Long](W)
  private val best  = new Array[Long](W)
  private val dS    = new Array[Int](n)
  private val dExt  = new Array[Int](n)
  private val tmp   = new Array[Int](n)      // moved vertices; cover-set partition
  private val keys  = new Array[Long](n)     // packed (d_S, d_ext, position) sort keys
  private val count = new Array[Int](n + 1)  // counting sort of d_S over ext

  private def has(bits: Array[Long], v: Int): Boolean = (bits(v >>> 6) & (1L << v)) != 0
  private def adjacent(v: Int, u: Int): Boolean = (rows(v * W + (u >>> 6)) & (1L << u)) != 0

  private def load(bits: Array[Long], vs: ArrayBuffer[Int]): Unit = {
    java.util.Arrays.fill(bits, 0L)
    add(bits, vs)
  }
  private def add(bits: Array[Long], vs: ArrayBuffer[Int]): Unit = {
    var i = 0
    while (i < vs.length) { val v = vs(i); bits(v >>> 6) |= 1L << v; i += 1 }
  }

  /** The members of `bits` (m of them) in ascending order. */
  private def members(bits: Array[Long], m: Int): Array[Int] = {
    val out = new Array[Int](m)
    var k = 0; var w = 0
    while (w < W) {
      var b = bits(w)
      while (b != 0) { out(k) = (w << 6) | numberOfTrailingZeros(b); k += 1; b &= b - 1 }
      w += 1
    }
    out
  }

  /** Load S and ext and compute d_S and d_ext of their vertices (T2). */
  private def computeDegrees(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Unit = {
    load(sBits, s); load(eBits, ext)
    def fill(x: Int): Unit = {
      val o = x * W; var ds = 0; var de = 0; var w = 0
      while (w < W) {
        val a = rows(o + w); val sw = sBits(w)
        ds += bitCount(a & sw); de += bitCount(a & eBits(w) & ~sw)
        w += 1
      }
      dS(x) = ds; dExt(x) = de
    }
    var i = 0
    while (i < s.length) { fill(s(i)); i += 1 }
    i = 0
    while (i < ext.length) { fill(ext(i)); i += 1 }
  }

  /** Is G(qBits), with m members, a γ-quasi-clique? The test of
    * `QuasiClique.isQuasiClique`: every degree ≥ ⌈γ(m−1)⌉, then connectivity.
    */
  private def qIsQuasiClique(m: Int): Boolean = {
    if (m == 0) return false
    if (m == 1) return true
    val need = ceilGamma(gamma, m - 1)
    var w = 0
    while (w < W) {
      var b = qBits(w)
      while (b != 0) {
        val o = ((w << 6) | numberOfTrailingZeros(b)) * W
        var d = 0; var k = 0
        while (k < W) { d += bitCount(rows(o + k) & qBits(k)); k += 1 }
        if (d < need) return false
        b &= b - 1
      }
      w += 1
    }
    qConnected(m)
  }

  /** BFS over G(qBits) from its lowest vertex: are all m members reached? */
  private def qConnected(m: Int): Boolean = {
    java.util.Arrays.fill(seen, 0L); java.util.Arrays.fill(front, 0L)
    var w = 0
    while (qBits(w) == 0) w += 1
    seen(w) = lowestOneBit(qBits(w)); front(w) = seen(w)
    var reached = 1
    // `front` is the queue; w is the lowest word that may hold a queued vertex
    w = 0
    while (w < W) {
      if (front(w) == 0) w += 1
      else {
        val v = (w << 6) | numberOfTrailingZeros(front(w))
        front(w) &= front(w) - 1
        val o = v * W; var k = 0
        while (k < W) {
          val nb = rows(o + k) & qBits(k) & ~seen(k)
          if (nb != 0) {
            seen(k) |= nb; front(k) |= nb; reached += bitCount(nb)
            if (k < w) w = k
          }
          k += 1
        }
      }
    }
    reached == m
  }

  /** Emit S if it is a large-enough γ-quasi-clique; returns true if emitted. */
  private def checkOutput(s: ArrayBuffer[Int]): Boolean = {
    if (s.length >= tauSize) {
      load(qBits, s)
      if (qIsQuasiClique(s.length)) { sink(members(qBits, s.length)); return true }
    }
    false
  }

  private def boundsOf(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Bounds.Verdict = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    var sumDS = 0; var dMinTotal = Int.MaxValue; var dMinS = Int.MaxValue
    var i = 0
    while (i < s.length) {
      val v = s(i)
      sumDS += dS(v)
      if (dS(v) + dExt(v) < dMinTotal) dMinTotal = dS(v) + dExt(v)
      if (dS(v) < dMinS) dMinS = dS(v)
      i += 1
    }
    // d_S(u) of ext, non-increasing: a counting pass, as d_S(u) ∈ [0, |S|]
    java.util.Arrays.fill(count, 0, s.length + 1, 0)
    i = 0
    while (i < ext.length) { count(dS(ext(i))) += 1; i += 1 }
    val dsExt = new Array[Int](ext.length)
    var d = s.length; var k = 0
    while (d >= 0) {
      var c = count(d)
      while (c > 0) { dsExt(k) = d; k += 1; c -= 1 }
      d -= 1
    }
    val v = Bounds.compute(s.length, sumDS, dMinTotal, dMinS, dsExt, gamma, quickCompat = !config.boundaryPrunes)
    if (timers ne null) timers.boundNs += System.nanoTime - t0
    v
  }

  // ------------------------------------------------------- Algorithm 2

  /** Iterative bound-based pruning. Returns true iff extending S (beyond S
    * itself) is pruned; S and ext are mutated in place (critical-vertex
    * moves grow S, Type-I pruning shrinks ext). Any mandated examination of
    * G(S) happens internally. S must be non-empty.
    */
  def iterativeBounding(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Boolean = {
    var looping = true
    while (looping && ext.nonEmpty) {
      computeDegrees(s, ext)
      boundsOf(s, ext) match {
        case Bounds.PruneExtensions =>
          if (config.boundaryPrunes || config.checkOnTheorem4i) checkOutput(s)
          return true
        case Bounds.PruneAll => return true
        case Bounds.Ok(us0, ls0) =>
          if (us0 < ls0) return true
          var us = us0; var ls = ls0
          // ---- critical-vertex pruning (P6), looped until none remain ----
          var critDone = false
          while (!critDone && ext.nonEmpty) {
            val t0 = if (timers ne null) System.nanoTime else 0L
            val need = ceilGamma(gamma, s.length + ls - 1)
            // the ext neighbours of each critical vertex, in S's order and
            // then ascending id, go to `tmp`; leaving eBits dedups them
            var moved = 0
            var i = 0
            val limitOne = !config.allCriticalVertices
            while (i < s.length && !(limitOne && moved > 0)) {
              val v = s(i)
              if (dExt(v) > 0 && dS(v) + dExt(v) == need) {
                val o = v * W; var w = 0
                while (w < W) {
                  var b = rows(o + w) & eBits(w)
                  eBits(w) &= ~b
                  while (b != 0) { tmp(moved) = (w << 6) | numberOfTrailingZeros(b); moved += 1; b &= b - 1 }
                  w += 1
                }
              }
              i += 1
            }
            if (timers ne null) timers.criticalNs += System.nanoTime - t0
            if (moved == 0) critDone = true
            else {
              // the paper examines G(S) before expanding it (missed by Quick)
              if (config.checkBeforeCriticalMove) checkOutput(s)
              i = 0
              while (i < moved) { s += tmp(i); i += 1 }
              ext.filterInPlace(u => has(eBits, u))
              if (ext.nonEmpty) {
                computeDegrees(s, ext)
                boundsOf(s, ext) match {
                  case Bounds.PruneExtensions =>
                    if (config.boundaryPrunes || config.checkOnTheorem4i) checkOutput(s)
                    return true
                  case Bounds.PruneAll => return true
                  case Bounds.Ok(u2, l2) =>
                    if (u2 < l2) return true
                    us = u2; ls = l2
                }
              }
            }
          }
          if (ext.isEmpty) { looping = false }
          else {
            // ---- Type-II pruning (Theorems 4, 6, 8) ----
            var thm4i = false
            val sLen = s.length
            var i = 0
            while (i < s.length) {
              val v = s(i); val ds = dS(v); val de = dExt(v)
              if (ds + de < ceilGamma(gamma, sLen - 1 + de)) return true   // Thm 4 (ii)
              if (ds + us < ceilGamma(gamma, sLen + us - 1)) return true   // Thm 6
              if (ds + de < ceilGamma(gamma, sLen + ls - 1)) return true   // Thm 8
              if (de == 0 && ds < ceilGamma(gamma, sLen)) thm4i = true     // Thm 4 (i)
              i += 1
            }
            if (thm4i) {
              // extensions pruned but G(S) itself survives (Quick prunes it)
              if (config.checkOnTheorem4i) checkOutput(s)
              return true
            }
            // ---- Type-I pruning (Theorems 3, 5, 7) ----
            val before = ext.length
            ext.filterInPlace { u =>
              val ds = dS(u); val de = dExt(u)
              !(ds + de < ceilGamma(gamma, sLen + de) ||          // Thm 3
                ds + us - 1 < ceilGamma(gamma, sLen + us - 1) ||  // Thm 5
                ds + de < ceilGamma(gamma, sLen + ls - 1))        // Thm 7
            }
            if (ext.length == before) looping = false // fixpoint (case C2)
          }
      }
    }
    if (ext.isEmpty) { checkOutput(s); true } else false
  }

  // ------------------------------------------------- cover vertex (P7)

  /** Puts C_S(u) of the best cover vertex u in ext (Eq 9) — the first in
    * ext's order of largest size — into `best` and returns its size, 0 when
    * the rule is inapplicable for every u. Requires fresh degrees for (s,ext).
    */
  private def coverBits(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Int = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    val cg = ceilGamma(gamma, s.length)
    // u qualifies only if every v ∈ S \ N(u) has d_S(v) >= ⌈γ|S|⌉, i.e. if
    // u is adjacent to every vertex of lowS
    java.util.Arrays.fill(lowS, 0L)
    var i = 0
    while (i < s.length) { val v = s(i); if (dS(v) < cg) lowS(v >>> 6) |= 1L << v; i += 1 }
    var bestLen = 0
    i = 0
    while (i < ext.length) {
      val u = ext(i); val o = u * W
      var ok = dS(u) >= cg
      var w = 0
      while (ok && w < W) { if ((lowS(w) & ~rows(o + w)) != 0) ok = false; w += 1 }
      if (ok) {
        // C = N_ext(u) ∩ N(v) for every v ∈ S \ N(u); early-skip once too small
        var len = 0
        w = 0
        while (w < W) { cBits(w) = rows(o + w) & eBits(w); len += bitCount(cBits(w)); w += 1 }
        var j = 0
        while (j < s.length && len > bestLen) {
          val v = s(j)
          if (!adjacent(u, v)) {
            val ov = v * W
            len = 0; w = 0
            while (w < W) { cBits(w) &= rows(ov + w); len += bitCount(cBits(w)); w += 1 }
          }
          j += 1
        }
        if (len > bestLen) { System.arraycopy(cBits, 0, best, 0, W); bestLen = len }
      }
      i += 1
    }
    if (timers ne null) timers.coverNs += System.nanoTime - t0
    bestLen
  }

  /** C_S(u) of the best cover vertex u in ext (Eq 9), ascending, or null if
    * the rule is inapplicable for every u. Requires fresh degrees for (s,ext).
    */
  private[core] def findCoverSet(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Array[Int] = {
    val len = coverBits(s, ext)
    if (len == 0) null else members(best, len)
  }

  /** Test hook: cover set with fresh degree state. */
  private[core] def coverSetFor(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Array[Int] = {
    computeDegrees(s, ext)
    findCoverSet(s, ext)
  }

  /** ext sorted ascending by (d_S, d_ext), ties in ext's order — Section
    * 6.2's lookahead-friendly order — with the cover set moved to the tail.
    * Returns (ordered ext, number of head vertices to examine).
    */
  private def orderExt(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): (ArrayBuffer[Int], Int) = {
    computeDegrees(s, ext)
    // n·W fits an Int, so n < 2^21 and each field fits its 21 bits
    val len = ext.length
    var i = 0
    while (i < len) {
      val u = ext(i)
      keys(i) = (dS(u).toLong << 42) | (dExt(u).toLong << 21) | i
      i += 1
    }
    java.util.Arrays.sort(keys, 0, len)
    val sorted = new ArrayBuffer[Int](len)
    i = 0
    while (i < len) { sorted += ext((keys(i) & 0x1fffff).toInt); i += 1 }
    val nCover = coverBits(s, sorted)
    if (nCover == 0) (sorted, len)
    else {
      // stable partition: the rest in sorted order, then the cover set
      var head = 0; var tail = 0
      i = 0
      while (i < len) {
        val u = sorted(i)
        if (has(best, u)) { tmp(tail) = u; tail += 1 } else { sorted(head) = u; head += 1 }
        i += 1
      }
      i = 0
      while (i < tail) { sorted(head + i) = tmp(i); i += 1 }
      (sorted, head)
    }
  }

  /** Does the lookahead rule fire? G(S ∪ ext) valid => output it. */
  private def lookahead(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Boolean = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    val m  = s.length + ext.length
    load(qBits, s); add(qBits, ext)
    val ok = qIsQuasiClique(m)
    if (ok) sink(members(qBits, m))
    if (timers ne null) timers.lookaheadNs += System.nanoTime - t0
    ok
  }

  /** ext filtered to vertices within 2 hops of v (diameter pruning, P1). */
  private[core] def diameterShrink(ext: ArrayBuffer[Int], v: Int): ArrayBuffer[Int] = {
    val ov = v * W
    val out = new ArrayBuffer[Int](ext.length)
    var i = 0
    while (i < ext.length) {
      val u = ext(i); val ou = u * W
      var w = 0
      while (w < W && (rows(ou + w) & rows(ov + w)) == 0) w += 1
      if (w < W || adjacent(v, u)) out += u
      i += 1
    }
    out
  }

  // ------------------------------------------- Algorithms 3, 8 and 10

  // Child policy of `mine`, fixed for one call of an entry point below: a
  // child ⟨S', ext(S')⟩ that survives bounding is recursed into until
  // `tauTimeNanos` have elapsed since `taskStart`, then handed to `spawn`
  // (Long.MaxValue never spawns: Algorithm 3). `splitAll` spawns every
  // child and examines G(S') before bounding it (Algorithm 8, line 15).
  private var spawn: (Array[Int], Array[Int]) => Unit = null
  private var taskStart    = 0L
  private var tauTimeNanos = Long.MaxValue
  private var splitAll     = false

  /** Mines all valid quasi-cliques extended from S (including G(S) when no
    * strict extension is found). Returns true iff some valid quasi-clique
    * strictly extending S was emitted.
    */
  def recursiveMine(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int]): Boolean = {
    spawn = null; tauTimeNanos = Long.MaxValue; splitAll = false
    mine(s0, ext0)
  }

  /** One level of divide-and-conquer (Algorithm 8): instead of recursing,
    * each surviving child ⟨S', ext(S')⟩ is handed to `spawn` (G(S') is
    * examined eagerly since the parent cannot see the child's findings).
    */
  def decomposeOneLevel(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int],
                        spawn: (Array[Int], Array[Int]) => Unit): Unit = {
    this.spawn = spawn; splitAll = true
    mine(s0, ext0)
  }

  /** Timeout-based divide and conquer (Algorithm 10): depth-first mining
    * that, once `tauTimeNanos` have elapsed since `startNanos`, wraps every
    * surviving branch as a subtask via `spawn` while backtracking (Figure 9).
    */
  def timeDelayed(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int],
                  startNanos: Long, tauTimeNanos: Long,
                  spawn: (Array[Int], Array[Int]) => Unit): Boolean = {
    this.spawn = spawn; taskStart = startNanos; this.tauTimeNanos = tauTimeNanos; splitAll = false
    mine(s0, ext0)
  }

  /** The set-enumeration loop shared by the entry points above; what happens
    * to a surviving child is the only part the policy fields vary.
    */
  private def mine(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int]): Boolean = {
    var qFound = false
    val (ext, nHead) = orderExt(s0, ext0)
    var examined = 0
    while (examined < nHead) {
      if (System.nanoTime > deadlineNanos) throw new Miner.DeadlineExceeded
      if (s0.length + ext.length < tauSize) return qFound
      if (lookahead(s0, ext)) return true
      val v = ext.remove(0)
      val ext1 = diameterShrink(ext, v)
      val s1 = s0.clone() += v
      if (splitAll) checkOutput(s1) // Alg 8 line 15: examine G(t'.S) right away
      if (ext1.isEmpty) {
        // boundary case missed by the original Quick (may lose results)
        if (!splitAll && config.checkOnEmptyDiameterShrink && checkOutput(s1)) qFound = true
      } else if (!iterativeBounding(s1, ext1) && s1.length + ext1.length >= tauSize) {
        if (splitAll || System.nanoTime - taskStart > tauTimeNanos) {
          spawn(s1.toArray, ext1.toArray)
          if (!splitAll) checkOutput(s1) // cannot see the subtask's findings (Alg 10 L23)
        } else if (mine(s1, ext1) || checkOutput(s1)) qFound = true
      }
      examined += 1
    }
    qFound
  }
}
