import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring import oracle
from circulant_coloring.errors import (
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from circulant_coloring.graphs import build_circulant, power_of_cycle
from circulant_coloring.coloring import TotalColoring
from circulant_coloring.oracle import (
    Mode,
    Quantity,
    _refutes,
    _total_search,
    exact_chromatic_index,
    exact_feasible,
    exact_total_chromatic,
)
from circulant_coloring.verifiers import (
    TypeLabel,
    verify_nsd,
    verify_total_coloring,
)

# -- the static-order searchers the kernel replaced, kept as its reference --


def _total_elements(g):
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
            link(("v", e[0]), ("e", e))
            link(("v", e[1]), ("e", e))
            link(("v", e[0]), ("v", e[1]))
    at_vertex = {}
    for e in edges:
        for end in e:
            for other in at_vertex.get(end, ()):
                link(("e", other), ("e", e))
            at_vertex.setdefault(end, []).append(e)
    return [sorted(set(c)) for c in out]


class _Searcher:
    """Elements in a fixed order (vertices, then sorted edges), colors in
    ascending order, new colors only as max_used + 1."""

    def __init__(self, g, elements, num_colors, budget):
        self.g = g
        self.elements = elements
        self.num_colors = num_colors
        self.budget = budget
        self.conflicts = _conflict_lists(elements)
        self.assignment = [0] * len(elements)
        self.nodes = 0

    def run(self):
        return self._dfs(0, 0)

    def _dfs(self, pos, max_used):
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
        self.cap = -(-len(elements) // num_colors)
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
        star = [[u] for u in range(g.n)]
        for pos, (kind, e) in enumerate(elements):
            if kind == "e":
                star[e[0]].append(pos)
                star[e[1]].append(pos)
        last = [max(s) for s in star]
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


def _to_coloring(g, elements, assignment):
    vertex_colors = [0] * g.n
    edge_colors = {}
    for el, c in zip(elements, assignment):
        if el[0] == "v":
            vertex_colors[el[1]] = c
        else:
            edge_colors[el[1]] = c
    return TotalColoring.from_pairs(tuple(vertex_colors), edge_colors)


def _vertex_sums(tc):
    """Each vertex's color plus the colors of its incident edges."""
    sums = list(tc.vertex_colors)
    for (u, v), c in tc.edge_items():
        sums[u] += c
        sums[v] += c
    return sums


def _independence_number(g):
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


def _counting_refutes(g, k):
    """The counting rule the partition rule replaced: True when no total
    coloring of the regular graph g has k = Delta+1 colors, because no
    vertex class can exceed the largest size s <= alpha(g) with
    s = n (mod 2), and k such classes must cover all n vertices."""
    if k != g.degree + 1:
        return False
    alpha = _independence_number(g)
    largest = alpha - (alpha - g.n) % 2
    return largest * k < g.n


def reference_total_chromatic(g, budget):
    """The oracle before the kernel: counting rule, then the static
    search per palette; None when a palette runs out of budget."""
    for k in range(g.degree + 1, g.degree + 4):
        if _counting_refutes(g, k):
            continue
        try:
            if _Searcher(g, _total_elements(g), k, budget).run():
                return k
        except SearchBudgetExceeded:
            return None
    return None


def reference_value(g, quantity, k, budget):
    """One palette of the static search: True/False, None out of budget."""
    if quantity == "index":
        elements = [("e", e) for e in sorted(g.edges)]
        kind = _Searcher
    else:
        elements = _total_elements(g)
        kind = {"equitable": _EquitableSearcher, "nsd": _NsdSearcher}[quantity]
        if _counting_refutes(g, k):
            return False
    try:
        return kind(g, elements, k, budget).run()
    except SearchBudgetExceeded:
        return None


# -- the rescanning kernel, kept as the reference for the kernel's picks --


def reference_total_search(n, edges, vertex_nbrs, num_colors, budget, what,
                           dsatur=True, mode=None, nodes=0):
    """The kernel before its closed-star counts were kept incrementally:
    every pick rescans each live star's uncolored elements into level
    masks.  Same arguments and results as ``_total_search``.

    Backtracking total coloring with colors 1..num_colors on an explicit
    stack of [choices, next choice, max_used] frames; a choice is an
    (element, color bit) pair, and each color placed is one node.

    The elements are the vertices 0..n-1 (none when ``vertex_nbrs`` is
    None: an edge coloring), then ``edges``; ``vertex_nbrs[u]`` lists the
    vertices whose colors must differ from u's.  No color above
    max_used + 1 is tried.  The pick is the first element with the fewest
    free colors, stopping at one, or with ``dsatur`` the DSATUR element
    and the closed-star rule of the oracle module docstring.  ``mode``
    adds the equitable class limits or the NSD sum check.  The node
    count starts at ``nodes``, those spent before.  Returns (colors,
    order, nodes), colors None when the palette is exhausted; raises
    SearchBudgetExceeded past ``budget`` nodes.
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
            if not dsatur:
                if c < least:
                    best, least = x, c
                    if c <= 1:
                        break
            elif c < least or c == least and live[a] + live[b] > most:
                if not c:
                    return ()
                best, least, most = x, c, live[a] + live[b]
        if best < 0:
            return None
        if star_rule:
            # the colors missing from a star, up to max_used + 1 (which
            # stands for every unused color), and where each can still go
            fewest, hub, want = least, -1, 0
            for u in range(n):
                if not live[u]:
                    continue
                level = [0] * least  # level[j]: free at more than j elements
                for x in stars[u]:
                    if not color[x]:
                        f = free[x]
                        for j in range(least - 1, 0, -1):
                            level[j] |= level[j - 1] & f
                        level[0] |= f
                missing = top & ~mask[u]
                if missing & ~level[0]:
                    return ()
                for j in range(1, fewest):
                    few = missing & ~level[j]
                    if few:
                        fewest, hub, want = j, u, few & -few
                        break
            if hub >= 0:
                return [(x, want) for x in stars[hub]
                        if not color[x] and free[x] & want]
        f = free[best] & top
        return [(best, 1 << c) for c in range(1, k + 1) if f >> c & 1]

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
                toggle(x, bit, bit.bit_length() - 1, -1)
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
            toggle(x, bit, c, 1)
            if not (nsd and clash(x)):
                max_used = max(used, c)
                break


@st.composite
def kernel_queries(draw):
    """(graph, quantity, palette, budget) on a random circulant, n <= 10,
    the palette from the closed-star size (where the star rule runs) up
    by two."""
    n = draw(st.integers(3, 10))
    gens = draw(st.lists(st.integers(1, n // 2), min_size=1,
                         max_size=n // 2, unique=True))
    quantity = draw(st.sampled_from(["total", "equitable", "nsd"]))
    g = build_circulant(n, gens)
    lo = g.degree + 1
    return (g, quantity, draw(st.integers(lo, lo + 2)),
            draw(st.integers(1, 3000)))


def run_kernel(search, g, quantity, k, budget, nodes=0):
    """(colors, order, nodes) of one kernel call, counting on from
    ``nodes``, or its budget error."""
    nbrs = [g.neighbors(u) for u in range(g.n)]
    mode = {"equitable": Mode.EQUITABLE, "nsd": Mode.NSD}.get(quantity)
    try:
        return search(g.n, g.edges, nbrs, k, budget, "oracle", mode=mode,
                      nodes=nodes)
    except SearchBudgetExceeded as exc:
        return str(exc)


class TestKernelAgainstReference:
    """The kept counts pick exactly what the rescanning kernel picked:
    same colors, same element order, same node count."""

    @given(query=kernel_queries())
    @settings(max_examples=80, deadline=None)
    def test_same_search(self, query):
        g, quantity, k, budget = query
        assert (run_kernel(_total_search, g, quantity, k, budget)
                == run_kernel(reference_total_search, g, quantity, k, budget))

    @given(query=kernel_queries(), spent=st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_same_search_from_spent_nodes(self, query, spent):
        # a later palette counts on from the nodes of the earlier ones
        g, quantity, k, budget = query
        args = (g, quantity, k, budget + spent, spent)
        assert (run_kernel(_total_search, *args)
                == run_kernel(reference_total_search, *args))

    @pytest.mark.parametrize("quantity", ["total", "equitable", "nsd"])
    def test_powers_of_cycles(self, quantity):
        # every C_n^k with n <= 12 at the closed-star palette Delta + 1
        for n in range(3, 13):
            for kk in range(1, (n + 1) // 2):
                g = power_of_cycle(n, kk)
                args = (g, quantity, g.degree + 1, 5000)
                assert (run_kernel(_total_search, *args)
                        == run_kernel(reference_total_search, *args)), (n, kk)

    def test_full_equitable_class_missing_from_a_star(self):
        # C_12(1, 5) with 5 colors reaches a live star missing a color
        # whose class is already full: a dead end no count shows
        args = (build_circulant(12, [1, 5]), "equitable", 5, 5000)
        got = run_kernel(_total_search, *args)
        assert got == run_kernel(reference_total_search, *args)
        assert got[2] == 44

    def test_nsd_complete_graph_refutation(self):
        # K_7 = C_7^3 has no NSD total coloring with 7 = Delta+1 colors:
        # every closed star holds all 7, so all vertex sums are equal.  The
        # partition rule says so before the search (which took 38,016
        # nodes)
        result = exact_feasible(power_of_cycle(7, 3), 7, Mode.NSD)
        assert result.value is False and result.nodes_explored == 0


class TestTotalChromatic:
    @pytest.mark.parametrize(
        "n,ds,value",
        [
            (6, [1], 3),
            (5, [1], 4),
            (7, [1], 4),
            (9, [1], 3),
            (4, [1, 2], 5),
            (5, [1, 2], 5),
            (6, [1, 2, 3], 7),
        ],
    )
    def test_known_values(self, n, ds, value):
        g = build_circulant(n, ds)
        result = exact_total_chromatic(g)
        assert result.quantity is Quantity.TOTAL_CHROMATIC
        assert result.value == value

    def test_witness_is_verified(self):
        g = power_of_cycle(9, 2)
        result = exact_total_chromatic(g)
        report = verify_total_coloring(g, result.witness)
        assert report.proper
        assert report.colors_used == result.value

    def test_lower_bound_holds(self):
        for n, ds in [(6, [1]), (8, [1, 2]), (10, [1, 5])]:
            g = build_circulant(n, ds)
            assert exact_total_chromatic(g).value >= g.degree + 1

    def test_size_limit(self):
        with pytest.raises(PreconditionFailed,
                           match="n = 13 exceeds the oracle limit 12"):
            exact_total_chromatic(build_circulant(13, [1]))

    def test_budget(self):
        # no construction applies to C_10(1, 2, 3), which takes 42 nodes
        g = build_circulant(10, [1, 2, 3])
        with pytest.raises(SearchBudgetExceeded,
                           match="oracle search exceeded"):
            exact_total_chromatic(g, budget=20)


class TestConstructions:
    """A palette one verified closed-form coloring settles costs no
    search: the Latin tiling, the even complete graph's folded row, and
    the bipartite circulant's 1-factorization."""

    @pytest.mark.parametrize("n,ds,value,nodes", [
        (8, [1, 2, 3, 4], 9, 0), (10, [1, 2, 3, 4, 5], 11, 0),
        (12, [1, 2, 3, 4, 5, 6], 13, 0),
        # K_{6,6}: the partition rule refutes Delta + 1 = 7 colors (the
        # search took 326 nodes)
        (12, [1, 3, 5], 8, 0)],
        ids=["K8", "K10", "K12", "K6,6"])
    def test_type2_decided(self, n, ds, value, nodes):
        g = build_circulant(n, ds)
        start = time.perf_counter()
        result = exact_total_chromatic(g)
        assert time.perf_counter() - start < 1.0
        assert (result.value, result.nodes_explored) == (value, nodes)
        report = verify_total_coloring(g, result.witness)
        assert report.proper and report.colors_used == value

    @pytest.mark.parametrize("n,ds,mode,value", [
        (6, [1], None, 3), (8, [1, 3], None, 6),
        (10, [1, 2], Mode.EQUITABLE, True)],
        ids=["tiling", "bipartite", "equitable-tiling"])
    def test_rejected_construction_is_never_returned(self, n, ds, mode,
                                                     value, monkeypatch):
        # each construction with vertex 0 recolored like its neighbor 1:
        # the verifier rejects it, and the search decides the same value
        g = build_circulant(n, ds)

        def query():
            return (exact_total_chromatic(g) if mode is None
                    else exact_feasible(g, 5, mode))

        real, offered = oracle._construction, []

        def broken(g, k):
            tc = real(g, k)
            if tc is not None:
                offered.append(k)
                tc = TotalColoring(
                    tc.vertex_colors[1:2] + tc.vertex_colors[1:], tc.columns)
            return tc

        built = query()
        monkeypatch.setattr(oracle, "_construction", broken)
        searched = query()
        assert offered[-1] == (5 if mode else value)
        assert searched.value == built.value == value
        assert searched.nodes_explored > built.nodes_explored
        assert verify_total_coloring(g, searched.witness).proper


class TestCountingRule:
    """The partition rule, which replaced the counting rule: no total
    coloring has fewer than Delta+1 colors, and one with Delta+1 puts
    every color at every vertex, so it is not NSD and its vertex classes
    split V into Delta+1 independent sets V_c, each with
    |V_c| = n (mod 2) and a perfect matching of g - V_c."""

    @pytest.mark.parametrize("n,k,value", [(9, 3, 8), (11, 3, 8), (11, 4, 10)])
    def test_type2_powers_decided(self, n, k, value):
        g = power_of_cycle(n, k)
        assert _refutes(g, g.degree + 1, None)
        result = exact_total_chromatic(g, budget=10_000)
        assert result.value == value
        report = verify_total_coloring(g, result.witness)
        assert report.proper and report.colors_used == value

    def test_refuted_palette_costs_no_nodes(self):
        g = power_of_cycle(9, 3)
        for mode in Mode:
            result = exact_feasible(g, g.degree + 1, mode)
            assert result.value is False and result.nodes_explored == 0
            assert result.witness is None

    def test_only_the_delta_plus_one_palette(self):
        # Delta+1 is the one palette the rule searches: it proves nothing
        # above it, and refutes everything below it
        g = power_of_cycle(9, 3)
        for mode in (None, *Mode):
            assert not _refutes(g, g.degree + 2, mode)
            assert _refutes(g, g.degree, mode)

    def test_palettes_below_delta_plus_one(self):
        # a closed star has Delta+1 elements; C_12^4 at 8 colors ran out
        # of 2,000,000 nodes in the search before the rule
        for n in range(3, 13):
            for kk in range(1, (n + 1) // 2):
                g = power_of_cycle(n, kk)
                for k, mode in itertools.product(range(1, g.degree + 1),
                                                 Mode):
                    result = exact_feasible(g, k, mode)
                    assert (result.value, result.nodes_explored,
                            result.witness) == (False, 0, None), (n, kk, k)

    def test_no_nsd_coloring_on_delta_plus_one(self):
        # every closed star holds all Delta+1 colors, so every vertex sum
        # is the same
        for n, ds in ALL_GRAPHS:
            g = build_circulant(n, ds)
            result = exact_feasible(g, g.degree + 1, Mode.NSD)
            assert (result.value, result.nodes_explored) == (False, 0), (n, ds)

    def test_refutes_what_counting_refutes(self):
        refuted = 0
        for n, ds in ALL_GRAPHS:
            g = build_circulant(n, ds)
            for k in range(g.degree, g.degree + 3):
                if _counting_refutes(g, k):
                    refuted += 1
                    assert _refutes(g, k, None), (n, ds)
                    assert _refutes(g, k, Mode.EQUITABLE), (n, ds)
        assert refuted == 26  # of the partition rule's 64

    def test_independence_number(self):
        rng = random.Random(3)
        graphs = [power_of_cycle(n, k) for n in range(3, 13)
                  for k in range(1, (n + 1) // 2)]
        graphs += [build_circulant(n, rng.sample(range(1, n // 2 + 1),
                                                 rng.randint(1, n // 2)))
                   for n in rng.choices(range(3, 13), k=30)]
        for g in graphs:
            brute = max(len(s) for r in range(1, g.n + 1)
                        for s in itertools.combinations(range(g.n), r)
                        if all(w not in s for u in s for w in g.neighbors(u)))
            assert _independence_number(g) == brute, (g.n, g.gens)

    def test_never_refutes_a_colorable_palette(self):
        # the plain search, with no rule, on every C_n^k and random
        # circulants with n <= 9: whatever it colors with Delta+1 colors
        # the rule must leave alone (TestRange checks n <= 12 against
        # the values the oracle found before the rule)
        rng = random.Random(11)
        graphs = [power_of_cycle(n, k) for n in range(3, 10)
                  for k in range(1, (n + 1) // 2)]
        graphs += [build_circulant(n, rng.sample(range(1, n // 2 + 1),
                                                 rng.randint(1, n // 2)))
                   for n in rng.choices(range(3, 10), k=40)]
        colored = 0
        for g in graphs:
            k = g.degree + 1
            try:
                found = _Searcher(g, _total_elements(g), k, 20_000).run()
            except SearchBudgetExceeded:
                continue
            if found:
                colored += 1
                assert not _refutes(g, k, None), (g.n, g.gens)
        assert colored >= 20


class TestChromaticIndex:
    @pytest.mark.parametrize(
        "n,ds,value",
        [(6, [1], 2), (5, [1], 3), (4, [1, 2], 3), (5, [1, 2], 5), (9, [1], 3),
         (9, [1, 2, 3, 4], 9), (11, [1, 2, 3, 4, 5], 11)],
    )
    def test_known_values(self, n, ds, value):
        result = exact_chromatic_index(build_circulant(n, ds))
        assert result.quantity is Quantity.CHROMATIC_INDEX
        assert result.value == value

    def test_vizing_window(self):
        for n, ds in [(6, [1, 2]), (8, [1, 3]), (10, [2, 5]), (12, [1, 2, 3])]:
            g = build_circulant(n, ds)
            assert exact_chromatic_index(g).value in (g.degree, g.degree + 1)

    def test_witness_is_proper_edge_coloring(self):
        g = build_circulant(8, [1, 2])
        result = exact_chromatic_index(g)
        at = {}
        for e, c in result.witness.edge_items():
            for end in e:
                assert (end, c) not in at
                at[(end, c)] = e
        assert {e for e, _ in result.witness.edge_items()} == set(g.edges)

    def test_every_circulant_in_range(self):
        # every generator set of every 3 <= n <= 12: chi' is Delta exactly
        # when every component has even order (Stong 1985), else Delta + 1.
        # The rescanning kernel's edge-only mode decides each Delta palette
        # within 1,000 nodes (finding Delta + 1 colors for K_11 takes it
        # past 20M), so it checks the search's verdict too
        graphs = [build_circulant(n, ds) for n, ds in ALL_GRAPHS]
        assert len(graphs) == 176
        for g in graphs:
            result = exact_chromatic_index(g)
            even = (g.n // math.gcd(g.n, *g.gens)) % 2 == 0
            value = g.degree if even else g.degree + 1
            assert result.value == value, (g.n, g.gens)
            colors = dict(result.witness.edge_items())
            assert sorted(colors) == sorted(g.edges)
            at = {(u, c) for e, c in colors.items() for u in e}
            assert len(at) == 2 * len(colors)
            assert set(colors.values()) == set(range(1, value + 1))
            found, _, _ = reference_total_search(
                g.n, g.edges, None, g.degree, 1000, "reference")
            assert (found is not None) is even, (g.n, g.gens)


class TestEquitableFeasible:
    @pytest.mark.parametrize(
        "n,k,feasible",
        [(6, 3, True), (6, 4, True), (4, 3, False), (4, 4, True),
         (5, 3, False), (5, 4, True), (3, 3, True)],
    )
    def test_cycles(self, n, k, feasible):
        g = build_circulant(n, [1])
        result = exact_feasible(g, k, Mode.EQUITABLE)
        assert result.quantity is Quantity.EQUITABLE_TOTAL_FEASIBLE
        assert result.value is feasible

    def test_witness_balanced(self):
        g = build_circulant(6, [1])
        result = exact_feasible(g, 3, Mode.EQUITABLE)
        report = verify_total_coloring(g, result.witness)
        assert report.proper and report.equitable

    def test_infeasible_has_no_witness(self):
        g = build_circulant(4, [1])
        assert exact_feasible(g, 3, Mode.EQUITABLE).witness is None


class TestNsdFeasible:
    @pytest.mark.parametrize(
        "n,k,feasible",
        [(3, 3, False), (3, 4, False), (3, 5, True),
         (4, 4, True), (5, 4, True), (6, 4, True)],
    )
    def test_cycles(self, n, k, feasible):
        g = build_circulant(n, [1])
        result = exact_feasible(g, k, Mode.NSD)
        assert result.quantity is Quantity.NSD_TOTAL_FEASIBLE
        assert result.value is feasible

    def test_witness_distinguishes_sums(self):
        g = build_circulant(6, [1])
        result = exact_feasible(g, 4, Mode.NSD)
        assert verify_nsd(g, result.witness).nsd is True

    @pytest.mark.parametrize("n,nodes", [(10, 45), (12, 38)])
    def test_square_of_cycle_with_seven_colors(self, n, nodes):
        # sums are checked as each closed star completes, so a clash is
        # cut off where it arises, not after the last edge (in the static
        # order of the reference)
        g = power_of_cycle(n, 2)
        ref = _NsdSearcher(g, _total_elements(g), 7, 1000)
        assert ref.run() is True and ref.nodes == nodes
        witness = _to_coloring(g, ref.elements, ref.assignment)
        assert verify_nsd(g, witness).nsd is True

    @pytest.mark.parametrize("n,nodes", [(10, 39), (12, 48)])
    def test_square_of_cycle_with_seven_colors_kernel(self, n, nodes):
        g = power_of_cycle(n, 2)
        result = exact_feasible(g, 7, Mode.NSD, budget=1000)
        assert result.value is True and result.nodes_explored == nodes
        assert verify_nsd(g, result.witness).nsd is True

    def test_same_first_coloring_as_a_leaf_check(self):
        # a prefix that fixes two equal neighbor sums has no NSD leaf
        # below it, so the pruned search finds the first NSD coloring of
        # the plain search that only checks complete colorings
        class LeafChecked(_Searcher):
            def _dfs(self, pos, max_used):
                if pos == len(self.elements):
                    sums = _vertex_sums(_to_coloring(self.g, self.elements,
                                                     self.assignment))
                    return all(sums[u] != sums[v] for u, v in self.g.edges)
                return super()._dfs(pos, max_used)

        checked = 0
        for n in range(3, 9):
            for ds in itertools.chain.from_iterable(
                    itertools.combinations(range(1, n // 2 + 1), r)
                    for r in (1, 2)):
                g = build_circulant(n, list(ds))
                for k in range(g.degree + 1, g.degree + 4):
                    els = _total_elements(g)
                    plain = LeafChecked(g, els, k, 30_000)
                    try:
                        found = plain.run()
                    except SearchBudgetExceeded:
                        continue
                    pruned = _NsdSearcher(g, els, k, 30_000)
                    assert pruned.run() is found, (n, ds, k)
                    assert pruned.assignment == plain.assignment
                    assert pruned.nodes <= plain.nodes
                    checked += 1
        assert checked >= 30

    def test_monotone_in_palette(self):
        g = build_circulant(5, [1])
        got = [exact_feasible(g, k, Mode.NSD).value for k in range(4, 8)]
        assert got == sorted(got)  # once feasible, stays feasible


# Every generator set with 3 <= n <= 12: 176 circulants.
ALL_GRAPHS = [(n, ds) for n in range(3, 13) for r in range(1, n // 2 + 1)
              for ds in itertools.combinations(range(1, n // 2 + 1), r)]
# chi'' - Delta of each, one digit per set in the order of ALL_GRAPHS
# (1: Type I, 2: Type II), as the oracle decided them by the counting
# rule and search, before the partition rule.
EXCESS = "".join([
    "1", "222", "221", "1121212", "2222221", "222212212211112",
    "111111111121221", "2222211121121221111211111121212",
    "2222211111111112112121221222221",
    "112112121121112122112111112111111112111111111111111111111121112"])

# chi'' and Type of every C_n^k with 3 <= n <= 12 (k < n/2; larger k
# give K_n).  The Delta+1 palettes of C_9^3, C_11^3 and C_11^4 fall to the
# partition rule; C_10^3, C_12^3 and C_12^4 were out of the static
# search's reach.
RANGE = [
    (3, 1, 3, "I"), (4, 1, 4, "II"), (5, 1, 4, "II"), (5, 2, 5, "I"),
    (6, 1, 3, "I"), (6, 2, 5, "I"), (7, 1, 4, "II"), (7, 2, 6, "II"),
    (7, 3, 7, "I"), (8, 1, 4, "II"), (8, 2, 5, "I"), (8, 3, 7, "I"),
    (9, 1, 3, "I"), (9, 2, 5, "I"), (9, 3, 8, "II"), (9, 4, 9, "I"),
    (10, 1, 4, "II"), (10, 2, 5, "I"), (10, 3, 7, "I"), (10, 4, 9, "I"),
    (11, 1, 4, "II"), (11, 2, 5, "I"), (11, 3, 8, "II"), (11, 4, 10, "II"),
    (11, 5, 11, "I"), (12, 1, 3, "I"), (12, 2, 5, "I"), (12, 3, 7, "I"),
    (12, 4, 9, "I"), (12, 5, 11, "I"),
]
TYPES = {"I": TypeLabel.TYPE_I, "II": TypeLabel.TYPE_II_BOUND}


class TestRange:
    """The oracle decides every C_n^k of its advertised range n <= 12."""

    def test_table_covers_the_range(self):
        assert [(n, k) for n, k, _, _ in RANGE] == [
            (n, k) for n in range(3, 13) for k in range(1, (n + 1) // 2)]

    @pytest.mark.parametrize("n,k,value,kind", RANGE)
    def test_value_type_and_witness(self, n, k, value, kind):
        g = power_of_cycle(n, k)
        result = exact_total_chromatic(g, budget=1000)
        assert result.value == value
        report = verify_total_coloring(g, result.witness)
        assert report.proper and report.colors_used == value
        assert report.type_label is TYPES[kind]
        ref = reference_total_chromatic(g, 20_000)
        assert ref in (None, value)

    def test_every_generator_set(self):
        # the partition rule refutes Delta+1 on 64 of the 66 Type II
        # graphs and on no Type I one; the search decides the rest within
        # 5,000 nodes (C_12(1, 2, 3, 5, 6) took 907,265 before the rule)
        refuted = 0
        for (n, ds), excess in zip(ALL_GRAPHS, EXCESS, strict=True):
            g = build_circulant(n, ds)
            result = exact_total_chromatic(g, budget=5000)
            report = verify_total_coloring(g, result.witness)
            assert report.proper, (n, ds)
            assert (result.value == report.colors_used
                    == g.degree + int(excess)), (n, ds)
            refuted += _refutes(g, g.degree + 1, None)
        assert EXCESS.count("2") == 66 and refuted == 64

    @pytest.mark.parametrize("n,k,nodes", [(10, 3, 42), (12, 3, 515),
                                           (12, 4, 71)])
    def test_formerly_undecided(self, n, k, nodes):
        g = power_of_cycle(n, k)
        assert reference_total_chromatic(g, 20_000) is None
        assert exact_total_chromatic(g).nodes_explored == nodes


class TestAgainstReference:
    """Every quantity the static search decides within its budget, the
    kernel decides with the same value and a verified witness."""

    GRAPHS = [(n, ds) for n in range(3, 9)
              for r in (1, 2) for ds in itertools.combinations(
                  range(1, n // 2 + 1), r)]
    # (n, distances, palette) that a construction decides: the tiling's
    # K_9 at 9, C_6(1) at 3 and C_10(1, 2) at 5, and the bipartite
    # 1-factorization's C_8(1, 3) at 6
    CONSTRUCTED = [(9, (1, 2, 3, 4), 9), (6, (1,), 3), (10, (1, 2), 5),
                   (8, (1, 3), 6)]

    @staticmethod
    def kernel_value(g, quantity, k):
        """Feasibility of palette k by the oracle, its witness checked."""
        if quantity == "index":
            result = exact_chromatic_index(g)
            witness = result.witness
            assert {e for e, _ in witness.edge_items()} == set(g.edges)
            at = {(u, c) for e, c in witness.edge_items() for u in e}
            assert len(at) == 2 * len(g.edges)
            assert max(c for _, c in witness.edge_items()) == result.value
            return result.value <= k
        mode = Mode.EQUITABLE if quantity == "equitable" else Mode.NSD
        result = exact_feasible(g, k, mode, budget=100_000)
        if result.value:
            report = verify_nsd(g, result.witness)  # raises if improper
            assert report.colors_used <= k
            assert report.nsd if mode is Mode.NSD else report.equitable
        return result.value

    @pytest.mark.parametrize("quantity", ["index", "equitable", "nsd"])
    def test_values(self, quantity):
        queries = []
        for n, ds in self.GRAPHS:
            g = build_circulant(n, list(ds))
            lo = g.degree if quantity == "index" else g.degree + 1
            queries += [(g, k, 5000) for k in range(lo, lo + 3)]
        # C_10(1, 2)'s reference needs 20,000 nodes at 5 equitable colors
        queries += [(build_circulant(n, ds), k, 50_000)
                    for n, ds, k in self.CONSTRUCTED]
        decided = 0
        for g, k, budget in queries:
            want = reference_value(g, quantity, k, budget)
            if want is not None:
                decided += 1
                assert self.kernel_value(g, quantity, k) is want, (
                    g.n, g.gens, k)
        assert decided >= 80


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = build_circulant(9, [1, 2])
        a = exact_total_chromatic(g)
        b = exact_total_chromatic(g)
        assert a.value == b.value
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness


class TestWitnessCheck:
    """A witness the search returns passes the check a construction's
    passes, for its palette and its mode, and one that fails raises, so
    the check holds under python -O as well."""

    @pytest.mark.parametrize("query", [
        lambda g: exact_total_chromatic(g),
        lambda g: exact_feasible(g, 4, Mode.EQUITABLE),
        lambda g: exact_feasible(g, 6, Mode.NSD),
        lambda g: exact_chromatic_index(g)])
    def test_improper_witness_raises(self, query, monkeypatch):
        # the total-coloring kernel returns every vertex coloured 1, every
        # edge 2; the edge-coloring search every edge coloured 1
        g = build_circulant(5, [1])
        monkeypatch.setattr(oracle, "_total_search",
                            lambda *args, **kwargs: ([1] * 5 + [2] * 5, [], 1))
        monkeypatch.setattr(oracle, "_exact_edge_coloring",
                            lambda g, budget: (dict.fromkeys(g.edges, 1), 1))
        with pytest.raises(VerificationFailed, match="search witness rejected"):
            query(g)

    @pytest.mark.parametrize("colors,query", [
        # proper on colors 1..4, but its classes have 3, 3, 3 and 1
        # elements
        ((1, 2, 1, 2, 3, 3, 2, 4, 3, 1),
         lambda g: exact_feasible(g, 4, Mode.EQUITABLE)),
        # the same coloring: vertices 3, 4 and 0 all have sum 6
        ((1, 2, 1, 2, 3, 3, 2, 4, 3, 1),
         lambda g: exact_feasible(g, 6, Mode.NSD)),
        # proper on four colors, but one of them is 5: the rule refutes
        # 3 colors, so the kernel is asked for 4
        ((1, 2, 1, 2, 3, 3, 2, 5, 3, 5), exact_total_chromatic)],
        ids=["not-equitable", "not-nsd", "color-above-k"])
    def test_proper_witness_missing_its_property_raises(self, colors, query,
                                                        monkeypatch):
        g = build_circulant(5, [1])
        assert verify_total_coloring(g, TotalColoring.from_pairs(
            colors[:5], dict(zip(g.edges, colors[5:])))).proper
        monkeypatch.setattr(oracle, "_total_search",
                            lambda *args, **kwargs: (list(colors), [], 1))
        with pytest.raises(VerificationFailed, match="search witness rejected"):
            query(g)
