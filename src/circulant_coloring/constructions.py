"""Theorem builders: one constructive routine per published result.

Every builder assembles a candidate coloring exactly as its proof
prescribes, hands it to the independent verifiers, and only then returns
a BuildReport.  A rejected candidate raises VerificationFailed; it is
never silently repaired.

The workhorse is one folded tiling: element (u, v) takes the canonical
K_q row at (u mod h + v mod h) mod q.  With h = q odd dividing n it is the
Latin-square tiling, which totally colors C_n^{(q-1)/2} in q colors;
thm32 folds K_{n/2} mod n/2, and h = q = m is the canonical K_m matrix,
which is also thm34's subset part on Z_2m.  Distances beyond the tiling
reach are finished by 1-factorization (even n) or a Vizing edge coloring
(odd n) on fresh colors.  Theorems 2.2 and 3.4 share one tail: the base
is verified equitable, then the NSD step recolors the two alternating
matchings of a unit distance's Hamiltonian cycle, the even and the odd
slots of that distance's column.  Whether those matchings were rainbow
is noted, not required: the NSD verifier decides.
"""

from __future__ import annotations

import math

from .coloring import BuildReport, TotalColoring
from .errors import (
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from .factorization import (
    DEFAULT_SEARCH_BUDGET,
    _factorize_pool,
    edge_color_delta_plus_one,
    one_factorize,
)
from .graphs import (
    CirculantGraph,
    build_circulant,
    classify_sum_free_half,
    generates_group,
    power_of_cycle,
)
from .latin import half
from .oracle import _total_search
from .verifiers import verify_nsd, verify_total_coloring


# -- tiling helpers ----------------------------------------------------------

def _tiling(n: int, h: int, q: int, distances) -> TotalColoring:
    """Vertex and edge colors from the canonical K_q row folded mod h.

    Requires h | n.  Element (u, v) takes row[(u mod h + v mod h) mod q],
    row = canonical_first_row(q), so each column is one period of h
    colors repeated, cut to n/2 entries at an involution.  With h = q odd
    this is the order-q Latin square half(i + j - 2, q) tiled mod q,
    proper as long as the distances hit pairwise distinct nonzero residue
    classes +-d mod q; with h = q = m it is the canonical K_m matrix.
    """
    row = canonical_first_row(q)
    reps = n // h
    columns = {}
    for d in distances:
        col = [row[(r + (r + d) % h) % q] for r in range(h)] * reps
        columns[d] = col[:n // 2] if 2 * d == n else col
    return TotalColoring(
        tuple(row[2 * r % q] for r in range(h)) * reps, columns)


def _choose_tiling_split(n: int, k: int, q: int):
    """Distances tiled by the order-q square vs. left to the finisher.

    Default tiles 1..m with m = (q-1)/2.  When the leftover is the single
    distance k and its orbits are odd cycles (which a two-color
    alternation cannot handle), distance k is tiled in place of m: k and
    m occupy complementary residue classes mod q = 2m+1 exactly when
    q = 2k-1, and the displaced m always has even orbits there.
    """
    m = (q - 1) // 2
    tiled = list(range(1, m + 1))
    residual = list(range(m + 1, k + 1))
    if residual == [k] and (n // math.gcd(n, k)) % 2 == 1:
        tiled = list(range(1, m)) + [k]
        residual = [m]
    return tiled, residual


def _verified(g: CirculantGraph, tc: TotalColoring, bound: int,
              notes: str = "") -> BuildReport:
    report = verify_total_coloring(g, tc)
    if not report.proper:
        raise VerificationFailed(
            "construction rejected: %d violations, first %s"
            % (len(report.violations), report.violations[0].witness))
    used = report.colors_used
    if used > bound:
        raise VerificationFailed(
            "used %d colors, claimed bound %d" % (used, bound))
    return BuildReport(tc, used, bound, notes=notes, verification=report)


def _one_factorized(tc: TotalColoring, sub: CirculantGraph, first: int,
                    budget: int) -> TotalColoring:
    """tc with sub's distances 1-factorized onto sub.degree colors from
    first up."""
    fac = one_factorize(sub, first, budget)
    return TotalColoring(tc.vertex_colors, {**tc.columns, **fac.columns})


# -- powers of cycles --------------------------------------------------------

def _check_power_pre(n: int, k: int, i: int, parity: int):
    """Hypotheses of Theorem 2.1 for C_n^k with n % 2 == parity."""
    if n % 2 != parity:
        raise PreconditionFailed("n must be %s, got %d"
                                 % ("odd" if parity else "even", n))
    if not 1 <= k < n / 2:
        raise PreconditionFailed("need 1 <= k < n/2, got k=%d n=%d" % (k, n))
    if not 1 <= i <= k + 1:
        raise PreconditionFailed("need 1 <= i <= k+1, got i=%d" % i)
    if (k + i) % 2 == 0:
        raise PreconditionFailed("k+i = %d must be odd" % (k + i))
    if n % (k + i):
        raise PreconditionFailed("k+i = %d must divide n = %d" % (k + i, n))


def color_power_cycle_even(n: int, k: int, i: int,
                           budget: int = DEFAULT_SEARCH_BUDGET) -> BuildReport:
    """Type-I total coloring of C_n^k, n even, (k+i) | n, k+i odd.

    Exactly 2k+1 colors: the order-(k+i) square tiles the inner distances;
    the leftover distances are 1-factorized onto fresh colors.  When that
    runs out of budget, the fallback is the pooled search over every
    residual distance, on the same fresh colors.  Each search gets
    ``budget`` nodes.
    """
    _check_power_pre(n, k, i, 0)
    g = power_of_cycle(n, k)
    q = k + i
    tiled, residual = _choose_tiling_split(n, k, q)
    tc = _tiling(n, q, q, tiled)
    notes = "tiled distances %r with order-%d square" % (tiled, q)
    fallback = False
    if residual:
        sub = build_circulant(n, residual)
        try:
            tc = _one_factorized(tc, sub, q + 1, budget)
            notes += "; residual %r one-factorized" % (residual,)
        except SearchBudgetExceeded:
            # the residual holds two consecutive distances, so it is
            # connected and the pool is all of it; the notes keep the
            # wording of the recorded outputs
            tc = TotalColoring(tc.vertex_colors, {
                **tc.columns, **_factorize_pool(n, residual, q + 1, budget)})
            fallback = True
            notes += "; residual %r completed by constrained search" % (residual,)
    report = _verified(g, tc, 2 * k + 1, notes)
    report.fallback_used = fallback
    return report


def color_power_cycle_odd(n: int, k: int, i: int) -> BuildReport:
    """Total coloring of C_n^k, n odd, with at most 2k+2 colors.

    The tiling gives a (k+i)-color partial total coloring of the inner
    sub-power; the remaining distances take a Vizing edge coloring on at
    most k-i+2 fresh colors.
    """
    _check_power_pre(n, k, i, 1)
    g = power_of_cycle(n, k)
    q = k + i
    m = (q - 1) // 2
    tc = _tiling(n, q, q, range(1, m + 1))
    residual = list(range(m + 1, k + 1))
    notes = "tiled distances 1..%d with order-%d square" % (m, q)
    if residual:
        sub = build_circulant(n, residual)
        ec = edge_color_delta_plus_one(sub, q + 1)
        tc = tc.with_edge_colors(ec.colors)
        notes += "; residual %r edge-colored (Vizing)" % (residual,)
    return _verified(g, tc, 2 * k + 2, notes=notes)


# -- equitable and NSD for powers of cycles ----------------------------------

def _recolor_unit_cycle(tc: TotalColoring, d: int, a: int):
    """The NSD step: the Hamiltonian cycle 0, d, 2d, ... of a unit
    distance d (n even) split into its two alternating perfect matchings,
    recolored a and a + 1, and whether each was rainbow under tc.

    The cycle position of slot x of column d has the parity of x, so the
    matchings are the even and the odd slots of that column.
    """
    half_n = tc.n // 2
    col = tc.columns[d]
    flags = tuple(len(set(col[r::2])) == half_n for r in (0, 1))
    return TotalColoring(tc.vertex_colors,
                         {**tc.columns, d: [a, a + 1] * half_n}), flags


def _equitable_nsd(g: CirculantGraph, tc: TotalColoring, d: int,
                   notes: str) -> tuple[BuildReport, BuildReport]:
    """Theorems 2.2 and 3.4's tail: tc verified equitable on degree + 1
    colors, then the NSD step on unit distance d with colors degree + 2
    and degree + 3; rainbow matchings are noted, verify_nsd decides."""
    equitable = _verified(g, tc, g.degree + 1, notes)
    if not equitable.verification.equitable:
        raise VerificationFailed("coloring is not equitable")
    a = g.degree + 2
    recolored, flags = _recolor_unit_cycle(tc, d, a)
    report = verify_nsd(g, recolored)
    if not report.nsd:
        raise VerificationFailed(
            "recoloring failed the NSD check" if all(flags) else
            "matchings not rainbow under the base coloring and the "
            "recoloring is not sum-distinguishing")
    notes = "distance-%d cycle matchings recolored with %d and %d" % (
        d, a, a + 1)
    if not all(flags):  # thm22 at n > 2(2k+1)
        notes += "; matchings were not rainbow (n > 2(2k+1)) but the sums distinguish"
    return equitable, BuildReport(recolored, report.colors_used, a + 1,
                                  notes=notes)


def equitable_nsd_power_cycle(n: int, k: int) -> tuple[BuildReport, BuildReport]:
    """(2k+1)-color equitable total coloring of C_n^k plus an NSD total
    coloring on at most 2k+3 colors, for even n divisible by 2k+1.

    The base is the full order-(2k+1) tiling; the NSD coloring recolors
    the two alternating matchings of the distance-1 cycle.
    """
    if n % 2:
        raise PreconditionFailed("n must be even, got %d" % n)
    if n % (2 * k + 1):
        raise PreconditionFailed("2k+1 = %d must divide n = %d" % (2 * k + 1, n))
    g = power_of_cycle(n, k)
    return _equitable_nsd(g, _tiling(n, 2 * k + 1, 2 * k + 1, g.gens), 1,
                          "full tiling; verified equitable")


# -- canonical complete-graph pattern ----------------------------------------

def canonical_first_row(m: int) -> list[int]:
    """First row of the canonical K_m color matrix: ``half(s, m)`` at
    distance s, so position 0 holds the vertex color 1, an even s maps to
    s/2 + 1 and an odd s to ceil(m/2) + ceil(s/2), reduced into 1..m.  For
    odd m this row is a permutation of 1..m satisfying
    row[m - s] = row[s] - s (mod m).
    """
    if m < 2:
        raise PreconditionFailed("need m >= 2, got %d" % m)
    return [half(s, m) for s in range(m)]


def canonical_complete_coloring(m: int) -> BuildReport:
    """The canonical K_m color matrix: cell (u, v) = first_row[(u+v) mod m].

    A proper m-color total coloring when m is odd; for even m the matrix
    is still returned, improper, and its ``verification`` carries the
    verdict.  The bound claimed is m.
    """
    g = build_circulant(m, range(1, m // 2 + 1))  # first: m >= 3
    tc = _tiling(m, m, m, g.gens)
    report = verify_total_coloring(g, tc)
    return BuildReport(tc, report.colors_used, m, verification=report)


# -- circulant graph theorems ------------------------------------------------

def _require(cond: bool, msg: str):
    if not cond:
        raise PreconditionFailed(msg)


def _complement(g: CirculantGraph, sub: CirculantGraph,
                name: str) -> CirculantGraph:
    """The circulant on g's distances outside sub, once they are some and
    generate Z_n."""
    complement = tuple(d for d in g.gens if d not in sub.gens)
    _require(bool(complement), "the complement of %s is empty" % name)
    rest = CirculantGraph(g.n, complement)
    _require(generates_group(rest),
             "the complement of %s must generate the whole group" % name)
    return rest


def _constrained_total_search(power: CirculantGraph, full: CirculantGraph,
                              num_colors: int, budget: int) -> TotalColoring:
    """Exact total coloring of the power subgraph whose vertex colors are
    additionally proper for the full graph.

    The oracle's kernel with its first-fewest pick: the first element,
    vertices then edges, with the fewest free colors; new colors only
    enter in increasing order.  Raises SearchBudgetExceeded on an
    exhausted node budget and VerificationFailed when no coloring exists
    within the palette.
    """
    n = power.n
    colors, _, _ = _total_search(
        n, power.edges, [full.neighbors(u) for u in range(n)], num_colors,
        budget, "power-part", dsatur=False)
    if colors is None:
        raise VerificationFailed(
            "no total coloring of the power part within %d colors"
            % num_colors)
    return TotalColoring.from_pairs(colors[:n],
                                    dict(zip(power.edges, colors[n:])))


def color_thm31(g: CirculantGraph,
                budget: int = DEFAULT_SEARCH_BUDGET) -> BuildReport:
    """TCC witness for dense even circulants: S1, the spanning
    subcirculant on the distances 1..n/4, is the power-of-cycle part,
    colored on at most n/2 + 2 colors; the generating complement is
    1-factorized.  Each search gets ``budget`` nodes."""
    n = g.n
    _require(n % 2 == 0, "n must be even")
    _require(n % 4 == 0, "the inner power of cycle needs 4 | n")
    _require(g.degree >= n // 2, "need degree >= n/2")
    _require(n // 2 not in g.gens, "the involution n/2 must be absent")
    s1 = power_of_cycle(n, n // 4)
    _require(s1.issubset(g), "inner subset must lie inside S")
    rest = _complement(g, s1, "the inner subset")

    # searched: no odd tiling order q = n/4 + i divides n
    tc = _constrained_total_search(s1, g, n // 2 + 2, budget)
    notes = "power part: exact bounded search within %d colors" % (n // 2 + 2)
    tc = _one_factorized(tc, rest, tc.palette_size + 1, budget)
    notes += "; complement %r one-factorized on %d colors" % (
        rest.gens, rest.degree)
    report = _verified(g, tc, g.degree + 2, notes)
    report.fallback_used = True
    return report


def color_thm32(g: CirculantGraph) -> BuildReport:
    """Near-complete even circulants (degree n/2 - 2, sum-free distances):
    both halves and the cross edges reuse the complete-graph pattern of
    order n/2, for at most n/2 + 1 = degree + 3 colors.

    Element (u, v) takes the pattern cell at (u mod n/2, v mod n/2), so
    each distance's column repeats with period n/2; the sum-free
    condition guarantees at most one neighbor per residue class, so the
    pattern row at each vertex is never reused.
    """
    n = g.n
    _require(n % 2 == 0, "n must be even")
    h = n // 2
    _require(g.degree == h - 2, "degree must equal n/2 - 2")
    _require(h not in g.gens, "the involution n/2 must be absent")
    _require(classify_sum_free_half(g),
             "distances must be sum-free with respect to n/2")
    # even h borrows the K_{h+1} row: dropping one vertex of an odd
    # complete graph keeps its coloring proper
    tc = _tiling(n, h, h | 1, g.gens)
    return _verified(g, tc, h + 1,
                     notes="complete-graph pattern of order %d folded mod %d"
                     % (h, h))


def color_thm33(g: CirculantGraph, m_set: CirculantGraph,
                budget: int = DEFAULT_SEARCH_BUDGET) -> BuildReport:
    """Degree + 3 total coloring: m_set, a sum-free spanning subcirculant
    of degree n/2 - 2, is colored by thm32's folded complete-graph
    pattern, the generating complement 1-factorized with a
    ``budget``-node search."""
    n = g.n
    _require(n % 2 == 0, "n must be even")
    _require(n // 2 not in g.gens, "the involution n/2 must be absent")
    _require(m_set.issubset(g), "M must lie inside S")
    _require(m_set.degree == n // 2 - 2, "M must induce degree n/2 - 2")
    _require(classify_sum_free_half(m_set),
             "M must be sum-free with respect to n/2")
    rest = _complement(g, m_set, "M in S")

    inner = color_thm32(m_set)
    tc = _one_factorized(inner.coloring, rest, inner.colors_used + 1, budget)
    notes = inner.notes + "; complement %r one-factorized on %d colors" % (
        rest.gens, rest.degree)
    return _verified(g, tc, g.degree + 3, notes=notes)


def color_thm34(g: CirculantGraph, s1: CirculantGraph,
                budget: int = DEFAULT_SEARCH_BUDGET,
                ) -> tuple[BuildReport, BuildReport]:
    """Equitable degree+1 coloring and NSD degree+3 coloring for n = 2m,
    m odd, from a spanning subcirculant s1 whose distances are pairwise
    distinct mod m.

    The subset part is the canonical K_m matrix folded twice around the
    cycle (h = q = m), the complement is 1-factorized within ``budget``
    nodes, and the NSD step recolors the two matchings of a unit
    generator's cycle, rainbow since its column has odd period m.
    """
    n = g.n
    m = n // 2
    _require(n % 2 == 0 and m % 2 == 1, "need n = 2m with m odd")
    _require(g.degree > m, "need degree > n/2")
    _require(s1.issubset(g), "subset must lie inside S")
    s1_full = s1.full
    _require(len(s1_full) == m - 1, "subset must have m - 1 symmetric distances")
    # vertices u and u + n/2 share a vertex color
    _require(m not in g.gens, "the involution n/2 = %d must be absent" % m)
    residues = [s % m for s in s1_full]
    _require(len(set(residues)) == len(residues) and 0 not in residues,
             "subset distances must be pairwise distinct and nonzero mod n/2")
    units = [s for s in s1_full if math.gcd(s, n) == 1]
    _require(bool(units), "subset must contain a group generator")
    rest = _complement(g, s1, "the subset")

    tc = _one_factorized(_tiling(n, m, m, s1.gens), rest, m + 1, budget)
    return _equitable_nsd(
        g, tc, min(units), "subset subdiagonals from canonical row; "
        "complement %r one-factorized" % (rest.gens,))
