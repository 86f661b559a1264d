"""Exact brute-force solvers for tiny instances.

These are the independent ground truth the rest of the toolkit is checked
against: exact total chromatic number, exact chromatic index, and
feasibility of equitable / neighborhood-sum-distinguishing total
colorings at a given palette size.

Search order is deliberately simple and deterministic: vertices in index
order, then edges sorted by endpoints.  Symmetry is broken by fixing the
first element's color and only introducing new colors in increasing
order.  Two sound rules cut the search:

- Counting.  A total coloring of a Delta-regular graph with Delta+1
  colors puts every color at every vertex, so the vertices outside a
  color's vertex class are perfectly matched by its edges: each class
  has |V_c| = n (mod 2) and |V_c| <= alpha(g).  When the largest such
  size times Delta+1 is below n, that palette is refuted with no search.
- NSD at closed-star completion.  A vertex's sum is compared with its
  finished neighbors' as soon as its last element is colored, not only
  once the whole coloring is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .coloring import TotalColoring
from .errors import PreconditionFailed, SearchBudgetExceeded
from .graphs import CirculantGraph, Edge
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


def _check_size(g: CirculantGraph, limit: int):
    if g.n > limit:
        raise PreconditionFailed(
            "n = %d exceeds the oracle limit %d" % (g.n, limit))


def _total_elements(g: CirculantGraph):
    return [("v", u) for u in range(g.n)] + [("e", e) for e in sorted(g.edges)]


def _conflict_lists(elements):
    """For each element, the indices of earlier conflicting elements."""
    idx = {el: i for i, el in enumerate(elements)}
    out = [[] for _ in elements]

    def link(a, b):
        ia, ib = idx[a], idx[b]
        if ia < ib:
            out[ib].append(ia)
        else:
            out[ia].append(ib)

    edges = [el[1] for el in elements if el[0] == "e"]
    has_vertices = any(el[0] == "v" for el in elements)
    if has_vertices:
        for e in edges:
            link(("v", e.u), ("e", e))
            link(("v", e.v), ("e", e))
            link(("v", e.u), ("v", e.v))
    at_vertex = {}
    for e in edges:
        for end in (e.u, e.v):
            for other in at_vertex.get(end, ()):
                link(("e", other), ("e", e))
            at_vertex.setdefault(end, []).append(e)
    return [sorted(set(c)) for c in out]


class _Searcher:
    def __init__(self, g: CirculantGraph, elements, num_colors: int, budget: int):
        self.g = g
        self.elements = elements
        self.num_colors = num_colors
        self.budget = budget
        self.conflicts = _conflict_lists(elements)
        self.assignment = [0] * len(elements)
        self.nodes = 0

    def run(self):
        return self._dfs(0, 0)

    def _dfs(self, pos: int, max_used: int) -> bool:
        if pos == len(self.elements):
            return True
        forbidden = {self.assignment[j] for j in self.conflicts[pos]}
        top = min(self.num_colors, max_used + 1)
        for c in range(1, top + 1):
            if c in forbidden:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(
                    "oracle search exceeded %d nodes" % self.budget)
            self.assignment[pos] = c
            if self._dfs(pos + 1, max(max_used, c)):
                return True
            self.assignment[pos] = 0
        return False


class _EquitableSearcher(_Searcher):
    def __init__(self, g, elements, num_colors, budget):
        super().__init__(g, elements, num_colors, budget)
        total = len(elements)
        self.cap = -(-total // num_colors)  # ceil: no class may exceed this
        self.counts = [0] * (num_colors + 1)

    def _dfs(self, pos, max_used):
        if pos == len(self.elements):
            sizes = self.counts[1:]
            return max(sizes) - min(sizes) <= 1
        forbidden = {self.assignment[j] for j in self.conflicts[pos]}
        top = min(self.num_colors, max_used + 1)
        for c in range(1, top + 1):
            if c in forbidden or self.counts[c] >= self.cap:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(
                    "oracle search exceeded %d nodes" % self.budget)
            self.assignment[pos] = c
            self.counts[c] += 1
            if self._dfs(pos + 1, max(max_used, c)):
                return True
            self.counts[c] -= 1
            self.assignment[pos] = 0
        return False


class _NsdSearcher(_Searcher):
    """Rejects the color just placed when it completes the closed star of
    a vertex whose sum equals that of a neighbor finished earlier."""

    def __init__(self, g, elements, num_colors, budget):
        super().__init__(g, elements, num_colors, budget)
        star = [[u] for u in range(g.n)]  # vertex -> positions of its star
        for pos, (kind, e) in enumerate(elements):
            if kind == "e":
                star[e[0]].append(pos)
                star[e[1]].append(pos)
        last = [max(s) for s in star]
        # position -> [(vertex, its star, neighbors finished before it)]
        self.closing = [[] for _ in elements]
        for u in range(g.n):
            earlier = [w for w in g.neighbors(u)
                       if (last[w], w) < (last[u], u)]
            self.closing[last[u]].append((u, star[u], earlier))
        self.sums = [0] * g.n

    def _dfs(self, pos, max_used):
        if pos:
            sums, assignment = self.sums, self.assignment
            for u, star, earlier in self.closing[pos - 1]:
                s = sums[u] = sum(assignment[p] for p in star)
                for w in earlier:
                    if sums[w] == s:
                        return False
        return super()._dfs(pos, max_used)


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


def _to_coloring(g: CirculantGraph, elements, assignment) -> TotalColoring:
    vertex_colors = [0] * g.n
    edge_colors = {}
    for el, c in zip(elements, assignment):
        if el[0] == "v":
            vertex_colors[el[1]] = c
        else:
            edge_colors[el[1]] = c
    return TotalColoring(tuple(vertex_colors), edge_colors)


def exact_total_chromatic(g: CirculantGraph, max_colors: int | None = None,
                          size_limit: int = DEFAULT_SIZE_LIMIT,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact total chromatic number with a witness coloring."""
    _check_size(g, size_limit)
    lo = g.degree + 1
    if max_colors is None:
        max_colors = g.degree + 3
    if max_colors < lo:
        raise ValueError("max_colors below the trivial lower bound %d" % lo)
    elements = _total_elements(g)
    nodes = 0
    for k in range(lo, max_colors + 1):
        if _counting_refutes(g, k):
            continue
        searcher = _Searcher(g, elements, k, budget - nodes)
        if searcher.run():
            nodes += searcher.nodes
            witness = _to_coloring(g, elements, searcher.assignment)
            assert verify_total_coloring(g, witness).proper
            assert k >= g.degree + 1
            return OracleResult(Quantity.TOTAL_CHROMATIC, k, nodes, witness)
        nodes += searcher.nodes
    raise SearchBudgetExceeded(
        "no total coloring found up to %d colors" % max_colors)


def exact_chromatic_index(g: CirculantGraph, max_colors: int | None = None,
                          size_limit: int = DEFAULT_SIZE_LIMIT,
                          budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact chromatic index with a witness edge coloring."""
    _check_size(g, size_limit)
    lo = g.degree
    if max_colors is None:
        max_colors = g.degree + 1
    elements = [("e", e) for e in sorted(g.edges)]
    nodes = 0
    for k in range(lo, max_colors + 1):
        searcher = _Searcher(g, elements, k, budget - nodes)
        if searcher.run():
            nodes += searcher.nodes
            witness = _to_coloring(g, elements, searcher.assignment)
            assert k in (g.degree, g.degree + 1)  # Vizing's bound
            return OracleResult(Quantity.CHROMATIC_INDEX, k, nodes, witness)
        nodes += searcher.nodes
    raise SearchBudgetExceeded(
        "no edge coloring found up to %d colors" % max_colors)


def exact_feasible(g: CirculantGraph, k: int, mode: Mode,
                   size_limit: int = DEFAULT_SIZE_LIMIT,
                   budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Feasibility of a proper total k-coloring with the extra constraint."""
    _check_size(g, size_limit)
    if k < 1:
        raise PreconditionFailed("palette size must be positive, got %d" % k)
    if mode is Mode.EQUITABLE:
        quantity, kind = Quantity.EQUITABLE_TOTAL_FEASIBLE, _EquitableSearcher
    else:
        quantity, kind = Quantity.NSD_TOTAL_FEASIBLE, _NsdSearcher
    if _counting_refutes(g, k):
        return OracleResult(quantity, False, 0)
    elements = _total_elements(g)
    searcher = kind(g, elements, k, budget)
    ok = searcher.run()
    witness = _to_coloring(g, elements, searcher.assignment) if ok else None
    if witness is not None:
        assert verify_total_coloring(g, witness).proper
    return OracleResult(quantity, ok, searcher.nodes, witness)
