"""Exact solvers for tiny instances.

These are the independent ground truth the rest of the toolkit is checked
against: exact total chromatic number, exact chromatic index, and
feasibility of equitable / neighborhood-sum-distinguishing total
colorings at a given palette size.

All of them run one iterative backtracking kernel (thm31's power-part
search too, with its own pick).  The next element is the one with the
fewest free colors, then the most uncolored conflicting elements (DSATUR,
Brelaz 1979); new colors enter only in increasing order.  Sound rules
cut the search:

- Counting.  A total coloring of a Delta-regular graph with Delta+1
  colors puts every color at every vertex, so the vertices outside a
  color's vertex class are perfectly matched by its edges: each class
  has |V_c| = n (mod 2) and |V_c| <= alpha(g).  When the largest such
  size times Delta+1 is below n, that palette is refuted with no search.
- Closed stars.  When the palette equals the closed-star size (Delta+1
  total colors, Delta edge colors), every star holds every color.  A
  color missing from a star that none of its uncolored elements can take
  ends the branch; when one has fewer candidate elements (counts kept as
  colors are placed and undone) than the DSATUR element has colors, the
  search branches on where that color goes instead.
- Equitable classes are closed as soon as they reach the size a
  balanced coloring allows them.
- NSD at closed-star completion.  A vertex's sum is compared with its
  finished neighbors' as soon as its last element is colored, not only
  once the whole coloring is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .coloring import TotalColoring
from .errors import PreconditionFailed, SearchBudgetExceeded, VerificationFailed
from .graphs import CirculantGraph
from .verifiers import verify_total_coloring

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

    The elements are the vertices 0..n-1 (none when ``vertex_nbrs`` is
    None: an edge coloring), then ``edges``; ``vertex_nbrs[u]`` lists the
    vertices whose colors must differ from u's.  No color above
    max_used + 1 is tried.  The pick is the first element with the fewest
    free colors, stopping at one, or with ``dsatur`` the DSATUR element
    and the closed-star rule of the module docstring, its counts kept by
    ``count``.  ``mode`` adds the equitable class limits or the NSD sum
    check.  The node count starts at ``nodes``, those spent before.
    Returns (colors, order, nodes), colors None when the palette is
    exhausted; raises SearchBudgetExceeded past ``budget`` nodes.
    """
    k = num_colors
    nv = 0 if vertex_nbrs is None else n
    total = nv + len(edges)
    # Element x is free of the colors in mask[pa[x]] | mask[pb[x]]: a
    # vertex u reads its closed star's colors (slot u, all distinct) and
    # its neighbors' vertex colors (slot n + u, counted in vcount), an edge
    # the stars of its ends.  live[a] + live[b] - 2 are x's uncolored
    # conflicting elements.
    pa = list(range(nv)) + [u for u, _ in edges]
    pb = [n + u for u in range(nv)] + [v for _, v in edges]
    stars = [[u] if nv else [] for u in range(n)]
    for x, (u, v) in enumerate(edges, nv):
        stars[u].append(x)
        stars[v].append(x)
    vadj = vertex_nbrs or [()] * n
    mask = [0] * (2 * n)
    live = [len(s) for s in stars] + [len(a) + 1 for a in vadj]
    vcount = [[0] * (k + 1) for _ in range(nv)]
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
    own = [(u,) for u in range(nv)] + list(edges) if star_rule else ()
    ring = [[(x, u ^ pa[x] ^ pb[x]) for x in s[nv > 0:]]
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
        if x >= nv:
            mask[b] ^= bit
            live[b] -= d
            sums[b] += d * c
            return
        for w in vadj[a]:
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
            hit += [(cand[w], c) for w in (vadj[x] if x < nv else ())
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
                                       for w in vadj[u])
                   for u in ({pa[x], pb[x]} if x >= nv else (x,)))

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


def _independence_number(g: CirculantGraph) -> int:
    """alpha(g) by branch and bound over vertex bitmasks: branch on the
    lowest candidate vertex (take it, or drop it), prune when the set so
    far plus every candidate left cannot beat the best."""
    nbrs = [sum(1 << w for w in g.neighbors(u)) for u in range(g.n)]
    best = 0
    stack = [((1 << g.n) - 1, 0)]  # (candidate vertices, size so far)
    while stack:
        cand, size = stack.pop()
        if not cand:
            best = max(best, size)
            continue
        if size + bin(cand).count("1") <= best:
            continue
        low = cand & -cand
        u = low.bit_length() - 1
        stack.append((cand ^ low, size))
        stack.append((cand & ~nbrs[u] & ~low, size + 1))
    return best


def _counting_refutes(g: CirculantGraph, k: int) -> bool:
    """True when the counting rule proves there is no total coloring of
    the regular graph g with k = Delta+1 colors: no vertex class can
    exceed the largest size s <= alpha(g) with s = n (mod 2), and k such
    classes must cover all n vertices."""
    if k != g.degree + 1:
        return False
    alpha = _independence_number(g)
    largest = alpha - (alpha - g.n) % 2
    return largest * k < g.n


def _decide(g: CirculantGraph, quantity: Quantity, palettes,
            budget: int) -> OracleResult:
    """Try ``palettes`` in turn: the first with a total coloring of g (an
    edge coloring for CHROMATIC_INDEX; equitable or NSD for a feasibility
    quantity) gives the value k, or True for a feasibility quantity,
    which is False when none has one.  The node count runs on across
    palettes, so running out names the whole budget.  Every witness is
    verified by a check that raises, so it holds under python -O as well;
    an edge coloring is checked with vertex colors above the palette."""
    if g.n > DEFAULT_SIZE_LIMIT:
        raise PreconditionFailed("n = %d exceeds the oracle limit %d"
                                 % (g.n, DEFAULT_SIZE_LIMIT))
    if palettes[0] < 1:
        raise PreconditionFailed(
            "palette size must be positive, got %d" % palettes[0])
    mode = {Quantity.EQUITABLE_TOTAL_FEASIBLE: Mode.EQUITABLE,
            Quantity.NSD_TOTAL_FEASIBLE: Mode.NSD}.get(quantity)
    vertices = quantity is not Quantity.CHROMATIC_INDEX
    nbrs = [g.neighbors(u) for u in range(g.n)] if vertices else None
    nv = g.n if vertices else 0
    nodes = 0
    for k in palettes:
        if vertices and _counting_refutes(g, k):
            continue
        colors, _, nodes = _total_search(g.n, g.edges, nbrs, k, budget,
                                         "oracle", mode=mode, nodes=nodes)
        if colors is None:
            continue
        witness = TotalColoring.from_pairs(colors[:nv] or (0,) * g.n,
                                           dict(zip(g.edges, colors[nv:])))
        check = witness if vertices else TotalColoring(
            tuple(range(k + 1, k + 1 + g.n)), witness.columns)
        if not verify_total_coloring(g, check).proper:
            raise VerificationFailed("improper search witness")
        return OracleResult(quantity, k if mode is None else True, nodes,
                            witness)
    if mode is not None:
        return OracleResult(quantity, False, nodes)
    raise SearchBudgetExceeded("no %s coloring found up to %d colors"
                               % ("total" if vertices else "edge",
                                  palettes[-1]))


def exact_total_chromatic(g: CirculantGraph,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact total chromatic number with a witness coloring, trying
    Delta + 1 up to Delta + 3 colors."""
    return _decide(g, Quantity.TOTAL_CHROMATIC,
                   range(g.degree + 1, g.degree + 4), budget)


def exact_chromatic_index(g: CirculantGraph,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact chromatic index with a witness edge coloring (Delta or
    Delta + 1 colors, by Vizing's theorem)."""
    return _decide(g, Quantity.CHROMATIC_INDEX, (g.degree, g.degree + 1),
                   budget)


def exact_feasible(g: CirculantGraph, k: int, mode: Mode,
                   budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Feasibility of a proper total k-coloring with the extra constraint."""
    quantity = (Quantity.EQUITABLE_TOTAL_FEASIBLE if mode is Mode.EQUITABLE
                else Quantity.NSD_TOTAL_FEASIBLE)
    return _decide(g, quantity, (k,), budget)
