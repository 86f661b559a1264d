"""Exact solvers for tiny instances.

These are the independent ground truth the rest of the toolkit is checked
against: exact total chromatic number, exact chromatic index, and
feasibility of equitable / neighborhood-sum-distinguishing total
colorings at a given palette size.

The chromatic index is Delta when the 1-factorization's exact search
finds Delta edge colors, which it does unless every component has odd
order (Stong, JCTB 39, 1985), and Delta+1 by Misra-Gries otherwise.
The total quantities run one backtracking kernel (thm31's power part
too, with its own pick): the next element has the fewest free colors,
then the most uncolored conflicting elements (DSATUR, Brelaz 1979); new
colors enter only in increasing order.  Sound rules decide a palette
before the search or cut it:

- Constructions.  One closed-form coloring may settle palette k with no
  search: the Latin tiling mod k (k odd dividing n, the residues +-d mod
  k of the distances distinct and nonzero; Type I at k = Delta+1), the
  canonical K_{n+1} row folded mod n for an even complete graph at
  k = n + 1, or for a bipartite circulant at k >= Delta+2 a
  1-factorization on Delta colors with the two sides on Delta+1 and
  Delta+2 (Yap, Total Colourings of Graphs, LNM 1623, 1996).  It counts
  only if the verifier accepts it on at most k colors, equitable or NSD
  when asked, so no value changes: a palette is tried only once every
  smaller one is refuted.
- Partition.  A closed star needs Delta+1 colors.  With Delta+1, each
  star of the Delta-regular g holds every color, so all vertex sums are
  equal (no NSD), and each color's vertex class V_c is independent, its
  edges a perfect matching of g - V_c: |V_c| = n (mod 2), and the
  equitable classes' sizes (n + |V_c|)/2 differ by at most 1.  Unless an
  exact cover of V by Delta+1 such classes (empty ones too) exists, the
  palette is refuted with no search.
- Closed stars.  When the palette equals the closed-star size, Delta+1,
  every star holds every color.  A color missing from a star that none
  of its uncolored elements can take ends the branch; when one has fewer
  candidate elements (counts kept as colors are placed and undone) than
  the DSATUR element has colors, the search branches on where that color
  goes instead.
- Equitable classes are closed as soon as they reach the size a
  balanced coloring allows them.
- NSD at closed-star completion.  A vertex's sum is compared with its
  finished neighbors' as soon as its last element is colored, not only
  once the whole coloring is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .coloring import TotalColoring
from .errors import PreconditionFailed, SearchBudgetExceeded, VerificationFailed
from .factorization import (
    _exact_edge_coloring,
    edge_color_delta_plus_one,
    one_factorize,
)
from .graphs import CirculantGraph
from .verifiers import verify_nsd, verify_total_coloring

DEFAULT_SIZE_LIMIT = 12
DEFAULT_NODE_BUDGET = 20_000_000


class Quantity(Enum):
    TOTAL_CHROMATIC = "TotalChromatic"
    CHROMATIC_INDEX = "ChromaticIndex"
    EQUITABLE_TOTAL_FEASIBLE = "EquitableTotalFeasible"
    NSD_TOTAL_FEASIBLE = "NsdTotalFeasible"


class Mode(Enum):
    EQUITABLE = "Equitable"
    NSD = "Nsd"


@dataclass
class OracleResult:
    quantity: Quantity
    value: int | bool
    nodes_explored: int
    witness: TotalColoring | None = None


def _total_search(n: int, edges, vertex_nbrs, num_colors: int, budget: int,
                  what: str, dsatur: bool = True, mode: Mode | None = None,
                  nodes: int = 0):
    """Backtracking total coloring with colors 1..num_colors on an explicit
    stack of [choices, next choice, max_used] frames; a choice is an
    (element, color bit) pair, and each color placed is one node.

    The elements are the vertices 0..n-1, then ``edges``; vertex_nbrs[u]
    lists the vertices whose colors must differ from u's (so the kernel
    colors total colorings only).  No color above max_used + 1 is tried.
    The pick is the first element with the fewest free colors, stopping
    at one, or with ``dsatur`` the DSATUR element and the closed-star
    rule of the module docstring, its counts kept by ``count``.  ``mode``
    adds the equitable class limits or the NSD sum check.  The node count
    starts at ``nodes``, those spent before.  Returns (colors, order,
    nodes), colors None when the palette is exhausted; raises
    SearchBudgetExceeded past ``budget`` nodes.
    """
    k = num_colors
    total = n + len(edges)
    # Element x is free of the colors in mask[pa[x]] | mask[pb[x]]: a
    # vertex u reads its closed star's colors (slot u, all distinct) and
    # its neighbors' vertex colors (slot n + u, counted in vcount), an edge
    # the stars of its ends.  live[a] + live[b] - 2 are x's uncolored
    # conflicting elements.
    pa = list(range(n)) + [u for u, _ in edges]
    pb = [n + u for u in range(n)] + [v for _, v in edges]
    stars = [[u] for u in range(n)]
    for x, (u, v) in enumerate(edges, n):
        stars[u].append(x)
        stars[v].append(x)
    mask = [0] * (2 * n)
    live = [len(s) for s in stars] + [len(a) + 1 for a in vertex_nbrs]
    vcount = [[0] * (k + 1) for _ in range(n)]
    color = [0] * total  # element -> bit of its color, 0 if none
    free = [0] * total
    full = (2 << k) - 2  # bit c stands for color c
    star_rule = dsatur and all(len(s) == k for s in stars)
    equitable, nsd = mode is Mode.EQUITABLE, mode is Mode.NSD
    # equitable: classes end with lo or lo + 1 elements, ``extra`` of them
    # with lo + 1
    lo, extra = divmod(total, k)
    counts = [0] * (k + 1)
    sums = [0] * n

    # Star rule: cand[u][c] counts the uncolored elements of star u free of
    # c, plus k + 1 while c is in the star (where its count cannot change).
    # own[x] are the stars holding x; ring[u] pairs each edge of star u with
    # its other end; taken[x] lists the counts x's place took one from, and
    # ``dead`` says one hit zero (each place follows a pick that found none).
    own = [(u,) for u in range(n)] + list(edges) if star_rule else ()
    ring = [[(x, u ^ pa[x] ^ pb[x]) for x in s[1:]]
            for u, s in enumerate(stars) if star_rule]
    cand = [[len(s)] * (k + 1) for s in stars if star_rule]
    taken = [()] * total
    dead = False

    def toggle(x, bit, c, d):
        """Place (d = 1) or undo (d = -1) color c on element x."""
        color[x] = bit if d > 0 else 0
        a, b = pa[x], pb[x]
        mask[a] ^= bit
        live[a] -= d
        sums[a] += d * c
        counts[c] += d
        if x >= n:
            mask[b] ^= bit
            live[b] -= d
            sums[b] += d * c
            return
        for w in vertex_nbrs[a]:
            cw = vcount[w]
            cw[c] += d
            if cw[c] == (d > 0):  # the count went 0 -> 1 or 1 -> 0
                mask[n + w] ^= bit
            live[n + w] -= d

    def count(x, bit, c, d):
        """``toggle``, keeping the star rule's counts: placing c on x takes
        it from the other star of each uncolored element that now sees it,
        and takes x's other free colors from x's stars."""
        nonlocal dead
        dead = False
        if d < 0:
            for cs, j in taken[x]:
                cs[j] += 1
        else:
            color[x] = bit  # so that x counts as colored below
            f = full & ~(mask[pa[x]] | mask[pb[x]] | bit)  # x's other colors
            hit = [(cand[w], c) for s in own[x] for y, w in ring[s]
                   if not (color[y] or mask[w] & bit)]
            hit += [(cand[w], c) for w in (vertex_nbrs[x] if x < n else ())
                    if not (vcount[w][c] or color[w] or mask[w] & bit)]
            hit += [(cand[s], j) for j in range(1, f.bit_length())
                    if f >> j & 1 for s in own[x]]
            for cs, j in hit:
                cs[j] -= 1
                dead = dead or not cs[j]
            taken[x] = hit
        for s in own[x]:
            cand[s][c] += d * (k + 1)
        toggle(x, bit, c, d)

    def clash(x):
        """A star x completed has a complete neighbor of the same sum."""
        return any(not live[u] and any(not live[w] and sums[w] == sums[u]
                                       for w in vertex_nbrs[u])
                   for u in ({pa[x], pb[x]} if x >= n else (x,)))

    def pick(max_used):
        """The choices to branch on: None when every element is colored,
        empty at a dead end."""
        top = (2 << min(k, max_used + 1)) - 2
        allowed = full if dsatur else top
        if equitable:
            # a class closes at lo + 1, or at lo once ``extra`` classes
            # have lo + 1: then every complete coloring is balanced
            limit = lo + (sum(s > lo for s in counts) < extra)
            allowed &= ~sum(1 << c for c in range(1, k + 1)
                            if counts[c] >= limit)
        best, least, most = -1, k + 1, -1
        for x in range(total):
            if color[x]:
                continue
            a, b = pa[x], pb[x]
            f = free[x] = allowed & ~(mask[a] | mask[b])
            c = f.bit_count()
            if c < least or dsatur and c == least and live[a] + live[b] > most:
                if not c:
                    return ()
                best, least, most = x, c, live[a] + live[b]
                if c == 1 and not dsatur:
                    break
        if best < 0:
            return None
        if star_rule:
            # the colors missing from a star, up to max_used + 1 (which
            # stands for every unused color), and where each can still go.
            # A zero count is such a color with nowhere to go (an unused
            # color is free throughout a live star, a full star has all);
            # with none, a star can only beat a least above one.
            closed = top & ~allowed  # equitable classes already full
            if dead or closed and any(closed & ~mask[u]
                                       for u in range(n) if live[u]):
                return ()
            fewest, hub, end = least, -1, min(k, max_used + 1) + 1
            for u in range(n if least > 1 else 0):
                if live[u]:
                    cu = cand[u]
                    j = min(cu[1:end])
                    if j < fewest:
                        fewest, hub, want = j, u, 1 << cu.index(j, 1)
            if hub >= 0:
                return [(x, want) for x in stars[hub]
                        if not color[x] and free[x] & want]
        f = free[best] & top
        return [(best, 1 << c) for c in range(1, k + 1) if f >> c & 1]

    step = count if star_rule else toggle
    stack = []
    max_used = 0
    while True:
        choices = pick(max_used)
        if choices is None:
            order = [ch[i - 1][0] for ch, i, _ in stack]
            return [bit.bit_length() - 1 for bit in color], order, nodes
        stack.append([choices, 0, max_used])
        while True:
            frame = stack[-1]
            choices, i, used = frame
            if i:
                x, bit = choices[i - 1]
                step(x, bit, bit.bit_length() - 1, -1)
            if i == len(choices):
                stack.pop()
                if not stack:
                    return None, [], nodes
                continue
            x, bit = choices[i]
            frame[1] = i + 1
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "%s search exceeded %d nodes" % (what, budget))
            c = bit.bit_length() - 1
            step(x, bit, c, 1)
            if not (nsd and clash(x)):
                max_used = max(used, c)
                break


def _refutes(g: CirculantGraph, k: int, mode: Mode | None) -> bool:
    """True when the module docstring's partition rule refutes palette k
    of g in ``mode``; False proves nothing."""
    n, delta = g.n, g.degree
    if k != delta + 1 or mode is Mode.NSD:
        return k <= delta + 1
    nbrs = [sum(1 << w for w in g.neighbors(u)) for u in range(n)]
    full = (1 << n) - 1
    # the sizes a vertex class may have: = n (mod 2), and for an equitable
    # coloring (n + |V_c|)/2 in [lo, lo + 1]
    lo = n * (delta + 2) // 2 // k
    sizes = (range(n % 2, n + 1, 2) if mode is None
             else range(2 * lo - n, 2 * lo - n + 3, 2))

    @cache
    def matchable(rest):
        """Whether g has a perfect matching of the vertex bitmask rest."""
        u = (rest & -rest).bit_length() - 1
        return not rest or any(matchable(rest & ~(1 << u | 1 << w))
                               for w in g.neighbors(u) if rest >> w & 1)

    def classes(s, cand):
        """The vertex classes holding s and lying within s | cand."""
        size = s.bit_count()
        if size in sizes and matchable(full & ~s):
            yield s
        while cand and size < sizes[-1]:
            low = cand & -cand
            cand ^= low
            yield from classes(s | low, cand & ~nbrs[low.bit_length() - 1])

    def cover(rest, left):
        """Whether ``left`` classes, empty ones too, split the vertex
        bitmask rest; the class of its lowest vertex is placed first."""
        if not rest:
            return not left or 0 in sizes and matchable(full)
        low = rest & -rest
        cand = rest & ~low & ~nbrs[low.bit_length() - 1]
        return left > 0 and any(cover(rest & ~s, left - 1)
                                for s in classes(low, cand))

    return not cover(full, k)


def _in_range(g: CirculantGraph) -> None:
    if g.n > DEFAULT_SIZE_LIMIT:
        raise PreconditionFailed("n = %d exceeds the oracle limit %d"
                                 % (g.n, DEFAULT_SIZE_LIMIT))


def _construction(g: CirculantGraph, k: int) -> TotalColoring | None:
    """At most one closed-form total coloring of g on colors 1..k, not yet
    verified: the Latin tiling mod k when k is odd, divides n, and the
    residues +-d mod k of the distances are distinct and nonzero; for an
    even complete graph and k = n + 1, the canonical K_{n+1} row folded
    mod n; for a bipartite circulant (n even, every distance odd) and
    k >= Delta + 2, a 1-factorization on colors 1..Delta (every distance
    peels, so there is no search) with vertex u colored Delta + 1 +
    (u mod 2).  None when no rule applies."""
    # a call-time import: constructions imports the kernel from here
    from .constructions import _tiling
    n, gens, delta = g.n, g.gens, g.degree
    if k % 2 and n % k == 0:
        residues = [r % k for d in gens for r in (d, -d)]
        if 0 not in residues and len(set(residues)) == len(residues):
            return _tiling(n, k, k, gens)
    if n % 2 == 0 and delta == n - 1 and k == n + 1:
        return _tiling(n, n, n + 1, gens)
    if n % 2 == 0 and all(d % 2 for d in gens) and k >= delta + 2:
        return TotalColoring(tuple(delta + 1 + u % 2 for u in range(n)),
                             one_factorize(g).columns)
    return None


def _accepts(g: CirculantGraph, tc: TotalColoring, k: int,
             mode: Mode | None) -> bool:
    """Whether the verifier finds tc a total coloring of g on colors
    1..k, equitable over all k classes (an unused color's is empty) or
    NSD when ``mode`` asks."""
    report = (verify_nsd if mode is Mode.NSD else verify_total_coloring)(g, tc)
    sizes = report.class_sizes
    counts = [*sizes.values()] + [0] * (k - len(sizes))
    return (report.proper and max(sizes) <= k
            and (mode is not Mode.EQUITABLE or max(counts) - min(counts) <= 1)
            and (mode is not Mode.NSD or report.nsd))


def _decide(g: CirculantGraph, mode: Mode | None, palettes,
            budget: int) -> OracleResult:
    """The first k of ``palettes`` with a total coloring of g; with
    ``mode``, True if it has an equitable or NSD one (False if none has).
    Each palette first tries the one construction ``_construction``
    offers, which counts only if ``_accepts`` it; then the partition
    rule, then the search, whose witness must pass ``_accepts`` too (a
    check that raises, so it holds under python -O).  The node count runs
    on across palettes, so running out names the whole budget, and a
    construction's palette reports the nodes of the palettes before it."""
    _in_range(g)
    if palettes[0] < 1:
        raise PreconditionFailed(
            "palette size must be positive, got %d" % palettes[0])
    quantity = {None: Quantity.TOTAL_CHROMATIC,
                Mode.EQUITABLE: Quantity.EQUITABLE_TOTAL_FEASIBLE,
                Mode.NSD: Quantity.NSD_TOTAL_FEASIBLE}[mode]
    nbrs = [g.neighbors(u) for u in range(g.n)]
    nodes = 0
    for k in palettes:
        witness = _construction(g, k)
        if witness is None or not _accepts(g, witness, k, mode):
            if _refutes(g, k, mode):
                continue
            colors, _, nodes = _total_search(g.n, g.edges, nbrs, k, budget,
                                             "oracle", mode=mode, nodes=nodes)
            if colors is None:
                continue
            witness = TotalColoring.from_pairs(
                colors[:g.n], dict(zip(g.edges, colors[g.n:])))
            if not _accepts(g, witness, k, mode):
                raise VerificationFailed("search witness rejected")
        return OracleResult(quantity, k if mode is None else True, nodes,
                            witness)
    if mode is not None:
        return OracleResult(quantity, False, nodes)
    raise SearchBudgetExceeded("no total coloring found up to %d colors"
                               % palettes[-1])


def exact_total_chromatic(g: CirculantGraph,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact total chromatic number with a verified witness coloring,
    trying Delta + 1 up to Delta + 3 colors, each by its construction if
    one applies and is accepted, else by the partition rule and search;
    ``nodes_explored`` counts the search nodes only, 0 when the first
    palette's construction decides."""
    return _decide(g, None, range(g.degree + 1, g.degree + 4), budget)


def exact_chromatic_index(g: CirculantGraph,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact chromatic index with a witness edge coloring, verified with
    vertex colors above its palette: Delta colors by the exact search that
    ``budget`` bounds and ``nodes_explored`` counts, else Delta + 1."""
    _in_range(g)
    colors, nodes = _exact_edge_coloring(g, budget)
    k = g.degree + (colors is None)
    witness = TotalColoring.from_pairs(
        (0,) * g.n, colors or edge_color_delta_plus_one(g).colors)
    check = TotalColoring(tuple(range(k + 1, k + 1 + g.n)), witness.columns)
    if not _accepts(g, check, k + g.n, None):
        raise VerificationFailed("search witness rejected")
    return OracleResult(Quantity.CHROMATIC_INDEX, k, nodes, witness)


def exact_feasible(g: CirculantGraph, k: int, mode: Mode,
                   budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Feasibility of a proper total k-coloring with the extra constraint:
    True with 0 nodes when the construction for k meets it, False with 0
    nodes when the partition rule refutes k, else by search."""
    return _decide(g, mode, (k,), budget)
