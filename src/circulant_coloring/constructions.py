"""Theorem builders: one constructive routine per published result.

Every builder assembles a candidate coloring exactly as its proof
prescribes, hands it to the independent verifiers, and only then returns
a BuildReport.  A rejected candidate raises VerificationFailed with the
offending coloring attached; it is never silently repaired.

The workhorse is the Latin-square tiling: for an odd q dividing n, coloring
element (u, v) with the closed-form square entry at (u mod q, v mod q)
totally colors C_n^{(q-1)/2} in q colors.  Distances beyond the tiling
reach are finished by 1-factorization (even n) or a Vizing edge coloring
(odd n) on fresh colors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import BuildReport, TotalColoring
from .errors import (
    FactorizationImpossible,
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from .factorization import (
    DEFAULT_SEARCH_BUDGET,
    _exact_edge_coloring,
    edge_color_delta_plus_one,
    hamiltonian_cycle,
    one_factorize,
    split_rainbow_matchings,
)
from .graphs import (
    CirculantGraph,
    GeneratorSet,
    build_circulant,
    classify_sum_free_half,
    generates_group,
    power_of_cycle,
)
from .latin import closed_form_entry, half
from .oracle import _total_search
from .verifiers import verify_equitable, verify_nsd, verify_total_coloring


# -- tiling helpers ----------------------------------------------------------

def _tiling(n: int, q: int, distances) -> TotalColoring:
    """Vertex and edge colors from the order-q closed-form square.

    Requires q | n.  Proper as long as the distances hit pairwise
    distinct nonzero residue classes +-d mod q.  Element (u, v) takes the
    square's entry at (u mod q + 1, v mod q + 1), which depends on the
    residue sum u mod q + v mod q only: the square is tabulated once per
    sum, and each distance's column is one period of q colors repeated.
    """
    by_sum = [closed_form_entry(q, 1, r + 1) for r in range(2 * q - 1)]
    return TotalColoring(tuple(by_sum[0:2 * q:2] * (n // q)), {
        d: [by_sum[r + (r + d) % q] for r in range(q)] * (n // q)
        for d in distances})


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
            % (len(report.violations), report.violations[0].witness),
            coloring=tc, report=report,
        )
    used = report.colors_used
    if used > bound:
        raise VerificationFailed(
            "used %d colors, claimed bound %d" % (used, bound),
            coloring=tc, report=report,
        )
    return BuildReport(tc, used, bound, notes=notes, verification=report)


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
    fails, an exact search completes them within the 2k+1 colors.  Each
    search gets ``budget`` nodes.
    """
    _check_power_pre(n, k, i, 0)
    g = power_of_cycle(n, k)
    q = k + i
    tiled, residual = _choose_tiling_split(n, k, q)
    tc = _tiling(n, q, tiled)
    notes = "tiled distances %r with order-%d square" % (tiled, q)
    fallback = False
    if residual:
        sub = build_circulant(n, residual)
        try:
            fac = one_factorize(sub, q + 1, budget)
            tc = TotalColoring(tc.vertex_colors, {**tc.columns, **fac.columns})
            notes += "; residual %r one-factorized" % (residual,)
        except (FactorizationImpossible, SearchBudgetExceeded):
            done = _exact_edge_coloring(sub.edges, 2 * k + 1, budget, start=tc)
            if done is None:
                raise VerificationFailed(
                    "no completion of the residual distances within %d "
                    "colors" % (2 * k + 1), coloring=tc)
            tc = tc.with_edge_colors(done)
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
    tc = _tiling(n, q, range(1, m + 1))
    residual = list(range(m + 1, k + 1))
    notes = "tiled distances 1..%d with order-%d square" % (m, q)
    if residual:
        sub = build_circulant(n, residual)
        ec = edge_color_delta_plus_one(sub.edges)
        tc = tc.with_edge_colors({e: c + q for e, c in ec.colors.items()})
        notes += "; residual %r edge-colored (Vizing)" % (residual,)
    return _verified(g, tc, 2 * k + 2, notes=notes)


# -- equitable and NSD for powers of cycles ----------------------------------

def equitable_nsd_power_cycle(n: int, k: int) -> tuple[BuildReport, BuildReport]:
    """(2k+1)-color equitable total coloring of C_n^k plus an NSD total
    coloring on at most 2k+3 colors, for even n divisible by 2k+1.

    The NSD coloring recolors the two alternating perfect matchings of the
    distance-1 Hamiltonian cycle with two fresh colors.
    """
    if n % 2:
        raise PreconditionFailed("n must be even, got %d" % n)
    if n % (2 * k + 1):
        raise PreconditionFailed("2k+1 = %d must divide n = %d" % (2 * k + 1, n))
    g = power_of_cycle(n, k)
    base = color_power_cycle_even(n, k, k + 1)
    eq_report = base.verification  # proper, or _verified would have raised
    if not eq_report.equitable:
        raise VerificationFailed("base coloring is not equitable",
                                 coloring=base.coloring, report=eq_report)
    equitable = BuildReport(base.coloring, base.colors_used, 2 * k + 1,
                            notes="full tiling; verified equitable")

    cycle = hamiltonian_cycle(g, 1)
    m1, m2, flags = split_rainbow_matchings(cycle, base.coloring)
    recolored = base.coloring.with_edge_colors(
        {**{e: 2 * k + 2 for e in m1}, **{e: 2 * k + 3 for e in m2}}
    )
    nsd_report = verify_nsd(g, recolored)
    if not nsd_report.nsd:
        if not all(flags):
            raise VerificationFailed(
                "matchings not rainbow under the base coloring and the "
                "recoloring is not sum-distinguishing"
            )
        raise VerificationFailed("recoloring failed the NSD check",
                                 coloring=recolored, report=nsd_report)
    notes = "distance-1 cycle matchings recolored with %d and %d" % (
        2 * k + 2, 2 * k + 3)
    if not all(flags):
        notes += "; matchings were not rainbow (n > 2(2k+1)) but the sums distinguish"
    nsd = BuildReport(recolored, nsd_report.colors_used, 2 * k + 3, notes=notes)
    return equitable, nsd


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


@dataclass
class CanonicalResult:
    coloring: TotalColoring
    report: object  # VerificationReport; improper for even m by design


def canonical_complete_coloring(m: int) -> CanonicalResult:
    """The canonical K_m color matrix: cell (u, v) = first_row[(u+v) mod m].

    A proper m-color total coloring when m is odd; for even m the matrix
    is still emitted and the attached report carries the verdict.
    """
    row = canonical_first_row(m)
    vertex_colors = tuple(row[(2 * u) % m] for u in range(m))
    # pair {u, u + d mod m} takes row[(2u + d) mod m]
    tc = TotalColoring(vertex_colors, {
        d: [row[(2 * u + d) % m] for u in range(m // 2 if 2 * d == m else m)]
        for d in range(1, m // 2 + 1)})
    g = build_circulant(m, range(1, m // 2 + 1))
    report = verify_total_coloring(g, tc)
    return CanonicalResult(tc, report)


# -- circulant graph theorems ------------------------------------------------

def _require(cond: bool, msg: str):
    if not cond:
        raise PreconditionFailed(msg)


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


def color_thm31(g: CirculantGraph, s1: GeneratorSet,
                budget: int = DEFAULT_SEARCH_BUDGET) -> BuildReport:
    """TCC witness for dense even circulants: the power-of-cycle part on
    at most n/2 + 2 colors, the generating complement 1-factorized.  Each
    search gets ``budget`` nodes."""
    n = g.n
    _require(n % 2 == 0, "n must be even")
    _require(n % 4 == 0, "the inner power of cycle needs 4 | n")
    _require(g.degree >= n // 2, "need degree >= n/2")
    _require(n // 2 not in g.gens, "the involution n/2 must be absent")
    kk = n // 4
    _require(tuple(s1.gens) == tuple(range(1, kk + 1)),
             "the inner subset must be the distances 1..n/4")
    _require(s1.issubset(g.generators), "inner subset must lie inside S")
    complement = tuple(d for d in g.gens if d not in set(s1.gens))
    _require(bool(complement), "the complement of the inner subset is empty")
    _require(generates_group(GeneratorSet(n, complement)),
             "the complement must generate the whole group")

    # searched: no odd tiling order q = kk + i divides n = 4kk
    tc = _constrained_total_search(power_of_cycle(n, kk), g, n // 2 + 2,
                                   budget)
    notes = "power part: exact bounded search within %d colors" % (n // 2 + 2)
    fac = one_factorize(build_circulant(n, list(complement)),
                        tc.palette_size + 1, budget)
    tc = TotalColoring(tc.vertex_colors, {**tc.columns, **fac.columns})
    notes += "; complement %r one-factorized on %d colors" % (
        complement, len(fac.factors))
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
    _require(classify_sum_free_half(g.generators),
             "distances must be sum-free with respect to n/2")
    # even h borrows the K_{h+1} row: dropping one vertex of an odd
    # complete graph keeps its coloring proper
    row = canonical_first_row(h | 1)
    q = len(row)
    vertex_colors = tuple(row[2 * (u % h) % q] for u in range(n))
    tc = TotalColoring(vertex_colors, {
        d: [row[(r + (r + d) % h) % q] for r in range(h)] * 2 for d in g.gens})
    return _verified(g, tc, h + 1,
                     notes="complete-graph pattern of order %d folded mod %d"
                     % (h, h))


def color_thm33(g: CirculantGraph, m_set: GeneratorSet,
                budget: int = DEFAULT_SEARCH_BUDGET) -> BuildReport:
    """Degree + 3 total coloring: the sum-free near-complete part via the
    folded complete-graph pattern, the generating complement 1-factorized
    with a ``budget``-node search."""
    n = g.n
    _require(n % 2 == 0, "n must be even")
    _require(n // 2 not in g.gens, "the involution n/2 must be absent")
    _require(m_set.issubset(g.generators), "M must lie inside S")
    sub = CirculantGraph(n, m_set)
    _require(sub.degree == n // 2 - 2, "M must induce degree n/2 - 2")
    _require(classify_sum_free_half(m_set),
             "M must be sum-free with respect to n/2")
    complement = tuple(d for d in g.gens if d not in set(m_set.gens))
    _require(bool(complement), "the complement of M in S is empty")
    _require(generates_group(GeneratorSet(n, complement)),
             "the complement of M must generate the whole group")

    inner = color_thm32(sub)
    fac = one_factorize(build_circulant(n, list(complement)),
                        inner.colors_used + 1, budget)
    tc = TotalColoring(inner.coloring.vertex_colors,
                       {**inner.coloring.columns, **fac.columns})
    notes = inner.notes + "; complement %r one-factorized on %d colors" % (
        complement, len(fac.factors))
    return _verified(g, tc, g.degree + 3, notes=notes)


def color_thm34(g: CirculantGraph, s1: GeneratorSet,
                budget: int = DEFAULT_SEARCH_BUDGET,
                ) -> tuple[BuildReport, BuildReport]:
    """Equitable degree+1 coloring and NSD degree+3 coloring for n = 2m,
    m odd, from a subset whose distances are pairwise distinct mod m.

    The subset part repeats the vertex colors 1..m twice around the cycle
    and runs each distance's subdiagonal through the same cyclic pattern,
    started at the canonical complete-graph row entry for that distance's
    residue; the complement is 1-factorized; the NSD step recolors the two
    matchings of a unit generator's Hamiltonian cycle.  The complement's
    1-factorization searches at most ``budget`` nodes.
    """
    n = g.n
    m = n // 2
    _require(n % 2 == 0 and m % 2 == 1, "need n = 2m with m odd")
    _require(g.degree > m, "need degree > n/2")
    _require(s1.issubset(g.generators), "subset must lie inside S")
    s1_full = s1.full
    _require(len(s1_full) == m - 1, "subset must have m - 1 symmetric distances")
    # vertices u and u + n/2 share a vertex color
    _require(m not in g.gens, "the involution n/2 = %d must be absent" % m)
    residues = [s % m for s in s1_full]
    _require(len(set(residues)) == len(residues) and 0 not in residues,
             "subset distances must be pairwise distinct and nonzero mod n/2")
    units = [s for s in s1_full if math.gcd(s, n) == 1]
    _require(bool(units), "subset must contain a group generator")
    complement = tuple(d for d in g.gens if d not in set(s1.gens))
    _require(bool(complement), "the complement of the subset is empty")
    _require(generates_group(GeneratorSet(n, complement)),
             "the complement must generate the whole group")

    row = canonical_first_row(m)
    vertex_colors = tuple(u % m + 1 for u in range(n))
    # pair (u, v) takes (row[(v - u) mod n mod m] - 1 + u) mod m + 1, so
    # pair {u, u + d} takes (row[d] - 1 + u) mod m + 1 (when u + d wraps,
    # row[m - d] = row[d] - d mod m): period m
    tc = TotalColoring(vertex_colors, {
        d: [(row[d] - 1 + r) % m + 1 for r in range(m)] * 2 for d in s1.gens})

    fac = one_factorize(build_circulant(n, list(complement)), m + 1, budget)
    tc = TotalColoring(tc.vertex_colors, {**tc.columns, **fac.columns})
    eq_report = verify_equitable(g, tc)
    if not eq_report.equitable:
        raise VerificationFailed("coloring is not equitable",
                                 coloring=tc, report=eq_report)
    if eq_report.colors_used != g.degree + 1:
        raise VerificationFailed(
            "expected exactly %d colors, used %d"
            % (g.degree + 1, eq_report.colors_used), coloring=tc, report=eq_report)
    equitable = BuildReport(
        tc, eq_report.colors_used, g.degree + 1,
        notes="subset subdiagonals from canonical row; complement %r "
              "one-factorized" % (complement,))

    u0 = min(units)
    cycle = hamiltonian_cycle(g, u0)
    m1, m2, flags = split_rainbow_matchings(cycle, tc)
    if not all(flags):
        raise VerificationFailed(
            "matchings of the distance-%d cycle are not rainbow" % u0)
    recolored = tc.with_edge_colors(
        {**{e: g.degree + 2 for e in m1},
         **{e: g.degree + 3 for e in m2}})
    nsd_report = verify_nsd(g, recolored)
    if not nsd_report.nsd:
        raise VerificationFailed("recoloring failed the NSD check",
                                 coloring=recolored, report=nsd_report)
    nsd = BuildReport(
        recolored, nsd_report.colors_used, g.degree + 3,
        notes="distance-%d cycle matchings recolored with %d and %d"
              % (u0, g.degree + 2, g.degree + 3))
    return equitable, nsd
