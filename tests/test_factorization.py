import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring import constructions, factorization
from circulant_coloring.errors import PreconditionFailed, SearchBudgetExceeded
from circulant_coloring.factorization import (
    EdgeColoring,
    _exact_edge_coloring,
    _factorize_pool,
    edge_color_delta_plus_one,
    one_factorize,
)
from circulant_coloring.graphs import build_circulant, generates_group
from circulant_coloring.coloring import TotalColoring


def is_perfect(matching, n):
    return len({x for e in matching for x in e}) == n


def color_classes(n, fac):
    """color -> set of the pairs (u, v), u < v, that fac.columns give it."""
    classes = {}
    for d, col in fac.columns.items():
        for u, c in enumerate(col):
            v = (u + d) % n
            classes.setdefault(c, set()).add((u, v) if u < v else (v, u))
    return classes


def check_factorization(g, fac):
    """Delta color classes, each a perfect matching, pairwise disjoint,
    whose union is g's edge set."""
    assert len(fac.factors) == g.degree
    classes = color_classes(g.n, fac)
    assert sorted(classes) == list(fac.factors)
    seen = set()
    for f in classes.values():
        assert is_perfect(f, g.n) and len(f) == g.n // 2
        assert not f & seen
        seen |= f
    assert seen == set(g.edges)


class TestOneFactorize:
    def test_even_cycle(self):
        g = build_circulant(6, [1])
        check_factorization(g, one_factorize(g))

    def test_k4(self):
        g = build_circulant(4, [1, 2])
        check_factorization(g, one_factorize(g))

    def test_unit_generator_z20(self):
        g = build_circulant(20, [7])
        fac = one_factorize(g)
        assert len(fac.factors) == 2
        check_factorization(g, fac)

    def test_involution_single_factor(self):
        g = build_circulant(8, [4])
        fac = one_factorize(g)
        assert len(fac.factors) == 1
        check_factorization(g, fac)

    def test_pooled_odd_orbit_pair(self):
        # distance 4 on Z_20 has odd orbits; it must pool with distance 3
        g = build_circulant(20, [3, 4])
        check_factorization(g, one_factorize(g))

    def test_z20_complement_pair(self):
        g = build_circulant(20, [7, 8])
        check_factorization(g, one_factorize(g))

    def test_z18_complement_pair(self):
        g = build_circulant(18, [7, 8])
        check_factorization(g, one_factorize(g))

    def test_odd_order_rejected(self):
        with pytest.raises(PreconditionFailed, match="needs even order"):
            one_factorize(build_circulant(9, [1]))

    def test_disconnected_odd_components(self):
        # Z_10 with distance 2: two disjoint 5-cycles, no perfect matching
        with pytest.raises(PreconditionFailed,
                           match="components of odd order"):
            one_factorize(build_circulant(10, [2]))

    def test_deterministic(self):
        g = build_circulant(20, [3, 4, 7])
        assert one_factorize(g) == one_factorize(g)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_vertex_sees_each_color_once(self, data):
        # one scan of the columns, O(n Delta), at any even n <= 3000
        n = data.draw(st.integers(2, 1500)) * 2
        half = n // 2
        orders = [m for m in range(4, 17, 2) if n % m == 0]
        if orders and data.draw(st.booleans()):
            # multiples of n/m only: components of order m <= 16, so a
            # pool is small and its columns are stretched n/m times
            m = data.draw(st.sampled_from(orders))
            js = data.draw(st.sets(st.integers(1, m // 2), min_size=1))
            ds = {n // m * j for j in js}
        else:
            # peeled distances (the odd part of a distance has even
            # orbits) and the involution
            ds = {d if (n // math.gcd(n, d)) % 2 == 0
                  else d // (d & -d)
                  for d in data.draw(st.sets(st.integers(1, half),
                                             min_size=1, max_size=6))}
        g = build_circulant(n, sorted(ds))
        try:
            fac = one_factorize(g, 3)
        except PreconditionFailed as e:
            assert "components of odd order" in str(e)
            assert not generates_group(g)
            return
        assert sorted(fac.columns) == list(g.gens)
        seen = [[] for _ in range(n)]
        for d, col in fac.columns.items():
            assert len(col) == (half if 2 * d == n else n)
            for u, c in enumerate(col):
                seen[u].append(c)
                seen[(u + d) % n].append(c)
        want = list(fac.factors)
        assert want == list(range(3, 3 + g.degree))
        assert all(sorted(cs) == want for cs in seen)

    def test_all_generating_subsets_n_le_8(self):
        # the exhaustive n <= 12 sweep lives in the acceptance suite
        for n in range(4, 9, 2):
            half = n // 2
            for mask in range(1, 2 ** half):
                ds = [d for d in range(1, half + 1) if mask >> (d - 1) & 1]
                g = build_circulant(n, ds)
                try:
                    fac = one_factorize(g)
                except PreconditionFailed as e:
                    # only disconnected graphs with odd components may fail
                    assert "components of odd order" in str(e)
                    assert not generates_group(g)
                    continue
                check_factorization(g, fac)

    def test_one_donor_matches_growth_loop(self, monkeypatch):
        # every generator subset of each even n <= 30: the pool handed to
        # the search, or the error, is the growth loop's
        pools = []
        monkeypatch.setattr(factorization, "_factorize_pool",
                            lambda n, pool, c, budget: pools.append(pool) or {})
        for n in range(4, 31, 2):
            half = n // 2
            for mask in range(1, 2 ** half):
                g = build_circulant(
                    n, [d for d in range(1, half + 1) if mask >> (d - 1) & 1])
                pools.clear()
                try:
                    want = reference_pool(n, g.gens)
                except PreconditionFailed as e:
                    with pytest.raises(PreconditionFailed,
                                       match="components of odd order") as got:
                        one_factorize(g)
                    assert str(got.value) == str(e)
                    continue
                one_factorize(g)
                assert pools == ([want] if want else [])


def reference_pool(n, gens):
    """The pool growth loop that one_factorize's one-donor rule replaced,
    kept as its reference: the sorted pool ([] if nothing is pooled), or
    PreconditionFailed on components of odd order."""
    involution, peelable, pooled = None, [], []
    for d in gens:
        if 2 * d == n:
            involution = d
        elif (n // math.gcd(n, d)) % 2 == 0:
            peelable.append(d)
        else:
            pooled.append(d)
    if pooled:
        # grow the pool until its components have even order; the
        # involution is a last-resort donor
        peelable.sort()
        while (n // math.gcd(n, *pooled)) % 2:
            movable = [
                d for d in peelable
                if (n // math.gcd(n, d, *pooled)) % 2 == 0
            ]
            if movable:
                pooled.append(movable[0])
                peelable.remove(movable[0])
            elif involution is not None and (
                    n // math.gcd(n, involution, *pooled)) % 2 == 0:
                pooled.append(involution)
                involution = None
            else:
                raise PreconditionFailed(
                    "distances %r span components of odd order %d"
                    % (sorted(pooled), n // math.gcd(n, *pooled))
                )
    return sorted(pooled)


def reference_edge_coloring(edges, num_colors, budget, start=None):
    """The recursive search the iterative kernel replaced, kept as its
    reference: ((u, v) -> color in the order colored, or None; nodes).

    With a partial total coloring ``start``, its edges are skipped and
    every other edge also avoids the colors at its endpoints: the
    completion of a tiling that thm21-even's fallback once searched."""
    used = {}  # vertex -> bitmask of its colors, bit c for color c
    if start is not None:
        used = {u: 1 << c for u, c in enumerate(start.vertex_colors)}
        for (u, v), c in start.edge_items():
            used[u] |= 1 << c
            used[v] |= 1 << c
        edges = [e for e in edges if start.edge_color(*e) is None]
    edges = sorted(edges)
    for u, v in edges:
        used.setdefault(u, 0)
        used.setdefault(v, 0)
    assignment = {}
    palette = (1 << (num_colors + 1)) - 2
    nodes = 0

    def available(e):
        u, v = e
        return palette & ~(used[u] | used[v])

    def pick():
        best, best_n = None, num_colors + 1
        for e in edges:
            if e in assignment:
                continue
            a = available(e).bit_count()
            if a < best_n:
                best, best_n = e, a
                if a == 0:
                    break
        return best

    def solve():
        nonlocal nodes
        e = pick()
        if e is None:
            return True
        u, v = e
        free = available(e)
        while free:  # colors in ascending order
            bit = free & -free
            free ^= bit
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "edge-coloring search exceeded %d nodes" % budget)
            assignment[e] = bit.bit_length() - 1
            used[u] |= bit
            used[v] |= bit
            if solve():
                return True
            del assignment[e]
            used[u] ^= bit
            used[v] ^= bit
        return False

    return (assignment if solve() else None), nodes


def searches_of(build):
    """The (graph, budget) of every exact edge-coloring search that
    ``build()`` runs, the pooled 1-factorization and the fallback's pooled
    search over every residual distance alike."""
    calls = []

    def record(g, budget):
        calls.append((g, budget))
        return _exact_edge_coloring(g, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_exact_edge_coloring", record)
        build()
    return calls


def kernel_nodes(g, most):
    """The fewest nodes with which the kernel finishes, found by bisecting
    its budget over 0..most (most if it needs more)."""
    lo, hi = 0, most
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _exact_edge_coloring(g, mid)
            hi = mid
        except SearchBudgetExceeded:
            lo = mid + 1
    return lo


def assert_same_search(g, budget):
    """The kernel colors g like the reference with g.degree colors, in
    the same order, with at most the reference's nodes; it finishes at
    exactly its own node count and raises one node below it.  Where the
    reference runs out of ``budget``, its answer under a large budget is
    the one to match.  Returns the kernel's node count, or None when it
    ran out of ``budget``."""
    try:
        want, most = reference_edge_coloring(g.edges, g.degree, budget)
    except SearchBudgetExceeded:
        want, most = reference_edge_coloring(g.edges, g.degree, 10**6)
    nodes = kernel_nodes(g, most)
    got = _exact_edge_coloring(g, nodes)
    assert got == want
    if got is not None:
        assert list(got.items()) == list(want.items())
    if nodes:
        with pytest.raises(SearchBudgetExceeded,
                           match="exceeded %d nodes" % (nodes - 1)):
            _exact_edge_coloring(g, nodes - 1)
    if nodes > budget:
        with pytest.raises(SearchBudgetExceeded,
                           match="exceeded %d nodes" % budget):
            _exact_edge_coloring(g, budget)
        return None
    return nodes


class TestExactEdgeColoring:
    """The iterative kernel against the recursive reference: same
    colorings in the same order, never more nodes, and a budget error
    exactly one node short of the kernel's own count."""

    @pytest.mark.parametrize("n,k,i,budget,nodes", [
        # reference: 2412, 13097, 4513, 236 and 236 nodes
        (66, 10, 1, None, [1023]), (42, 13, 8, None, [8369]),
        (76, 17, 2, None, [1539]), (28, 5, 2, None, [162]),
        (28, 6, 1, None, [162]),
        # the pooled search finishes within 150 nodes (the reference's
        # ran out), so no fallback runs
        (22, 10, 1, 150, [91]),
        # the pooled 1-factorization runs out at 150 nodes (it needs 428,
        # the reference 1096); the fallback, the pooled search over every
        # residual distance, finishes in 120
        (30, 11, 4, 150, [None, 120])])
    def test_builder_searches(self, n, k, i, budget, nodes):
        kw = {} if budget is None else {"budget": budget}
        calls = searches_of(
            lambda: constructions.color_power_cycle_even(n, k, i, **kw))
        assert [assert_same_search(*call) for call in calls] == nodes

    def test_fallback_is_the_completion_of_the_tiling(self):
        # the pooled search over every residual distance, on the colors
        # q+1..2k+1, colors as the completion of the q-color tiling within
        # 2k+1 colors, or both run out
        for n in range(4, 61, 2):
            for k in range(1, n // 2):
                for i in range(1, k + 2):
                    q = k + i
                    if q % 2 == 0 or n % q:
                        continue
                    tiled, residual = constructions._choose_tiling_split(
                        n, k, q)
                    if len(residual) < 2:
                        continue
                    tc = constructions._tiling(n, q, q, tiled)
                    edges = build_circulant(n, residual).edges
                    for budget in (50, 500):
                        try:
                            cols = _factorize_pool(n, residual, q + 1, budget)
                        except SearchBudgetExceeded:
                            with pytest.raises(SearchBudgetExceeded):
                                reference_edge_coloring(
                                    edges, 2 * k + 1, budget, start=tc)
                            continue
                        # the kernel prunes, so where the reference runs
                        # out its answer under a larger budget is the one
                        # to match (it needs at most 2,946 nodes here)
                        want, _ = reference_edge_coloring(
                            edges, 2 * k + 1, 10**4, start=tc)
                        got = TotalColoring(tc.vertex_colors, cols)
                        assert sorted(want) == list(edges)
                        assert {e: got.edge_color(*e) for e in want} == want

    def test_random_circulant_subgraphs(self):
        # Delta colors, so the dead-end rules prune at every vertex.  Even
        # orders up to 12 keep the reference's search short (odd ones such
        # as K_7 take it over 300,000 nodes); components of odd order
        # still make some of them infeasible.
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randrange(4, 13, 2)
            half = n // 2
            ds = rng.sample(range(1, half + 1), rng.randint(1, half))
            assert_same_search(build_circulant(n, ds), 20_000)

    @pytest.mark.parametrize("m,ds,degree,nodes", [
        # the pooled components of thm21-even (330, 10, 1) and
        # (1100, 10, 1): 1,320 and 1,100 edges, more than the recursive
        # reference can search, so the kernel's own node counts are pinned
        (330, [6, 7, 8, 10], 8, 5902), (550, [3, 4], 4, 1121)])
    def test_pools_beyond_the_reference(self, m, ds, degree, nodes):
        g = build_circulant(m, ds)
        assert g.degree == degree
        got = _exact_edge_coloring(g, nodes)
        check_proper_edge_coloring(g.edges, EdgeColoring(got), degree)
        with pytest.raises(SearchBudgetExceeded,
                           match="exceeded %d nodes" % (nodes - 1)):
            _exact_edge_coloring(g, nodes - 1)

    def test_palette_wider_than_a_byte(self, monkeypatch):
        # counts from the byte limit up take the list path of the pick;
        # C_12(1, 2, 3) keeps counts up to Delta + 1 = 7, so a limit of 7
        # sends it there, and both paths search alike
        g = build_circulant(12, [1, 2, 3])
        nodes = assert_same_search(g, 10_000)
        assert nodes is not None
        monkeypatch.setattr(factorization, "_BYTE_LIMIT", 7)
        assert assert_same_search(g, 10_000) == nodes

    def test_infeasible_exhausts(self):
        g = build_circulant(5, [1])  # an odd cycle needs 3 colors
        assert_same_search(g, 1000)
        assert _exact_edge_coloring(g, 1000) is None


class TestMatching:
    def test_perfect(self):
        m = frozenset({(0, 1), (2, 3)})
        assert is_perfect(m, 4)
        assert not is_perfect(m, 6)


def check_proper_edge_coloring(edges, coloring, max_colors):
    at = {}
    for e, c in coloring.colors.items():
        assert 1 <= c <= max_colors
        for end in e:
            assert (end, c) not in at, (end, c)
            at[(end, c)] = e
    assert set(coloring.colors) == set(edges)


def reference_edge_color(edges):
    """The Misra-Gries kernel on dicts that the array-and-bitmask version
    replaced, kept as its reference: (u, v) -> color in sorted edge
    order."""
    pairs = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    if not pairs:
        return {}
    nbrs = {}
    for u, v in pairs:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    for ws in nbrs.values():
        ws.sort()
    palette = range(1, max(len(ws) for ws in nbrs.values()) + 2)
    color = {x: {} for x in nbrs}  # vertex -> neighbor -> color
    used = {x: {} for x in nbrs}  # vertex -> color -> neighbor

    def paint(a, b, c):
        color[a][b] = color[b][a] = c
        used[a][c] = b
        used[b][c] = a

    def wipe(a, b):
        c = color[a].pop(b)
        del color[b][a], used[a][c], used[b][c]

    def free_color(x):
        at = used[x]
        for c in palette:
            if c not in at:
                return c

    for u, v in pairs:
        at_u = color[u]
        # maximal fan: each next neighbor's edge color is free at the last
        fan, in_fan = [v], {v}
        while True:
            at_last = used[fan[-1]]
            for w in nbrs[u]:
                cw = at_u.get(w)
                if cw is not None and cw not in at_last and w not in in_fan:
                    fan.append(w)
                    in_fan.add(w)
                    break
            else:
                break
        c = free_color(u)
        d = free_color(fan[-1])
        if c != d:
            # c is free at u, so the d/c path from u is a path, not a cycle
            path, x, cur = [], u, d
            while cur in used[x]:
                y = used[x][cur]
                path.append((x, y))
                x, cur = y, c + d - cur
            for a, b in path:
                wipe(a, b)
            for t, (a, b) in enumerate(path):
                paint(a, b, d if t % 2 else c)
        # d is now free at u; the longest prefix that is still a fan and
        # ends where d is free exists and rotates properly (Misra-Gries)
        j = None
        for t, w in enumerate(fan):
            if t and at_u[w] in used[fan[t - 1]]:
                break
            if d not in used[w]:
                j = t
        shifted = [at_u[w] for w in fan[1:j + 1]]
        for w in fan[1:j + 1]:
            wipe(u, w)
        for w, cw in zip(fan, shifted):
            paint(u, w, cw)
        paint(u, fan[j], d)

    return {e: color[e[0]][e[1]] for e in pairs}


@st.composite
def circulants(draw):
    """Circulants C_n(ds), and about one in sixteen with Delta above 64,
    whose color masks take more than one 64-bit word; those have over
    2,000 edges, so they keep to the least such orders."""
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 1 / 16:
        n = rng.randint(66, 70)
        return build_circulant(n, rng.sample(range(1, n // 2 + 1), 33))
    n = draw(st.integers(3, 60))
    ds = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=8))
    return build_circulant(n, sorted(ds))


class TestVizing:
    def test_triangle(self):
        g = build_circulant(3, [1])
        ec = edge_color_delta_plus_one(g)
        check_proper_edge_coloring(g.edges, ec, 3)
        assert max(ec.colors.values()) == 3

    def test_residual_of_z21(self):
        g = build_circulant(21, [4, 5, 6])
        ec = edge_color_delta_plus_one(g)
        check_proper_edge_coloring(g.edges, ec, 7)

    def test_random_circulant_subgraphs(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randrange(4, 31)
            half = n // 2
            size = rng.randrange(1, half + 1)
            ds = rng.sample(range(1, half + 1), size)
            g = build_circulant(n, ds)
            ec = edge_color_delta_plus_one(g)
            check_proper_edge_coloring(g.edges, ec, g.degree + 1)

    # sha256 of repr(sorted((u, v, color))): any change of fan, prefix or
    # free-color rule that moves one color fails here.  The first four are
    # the Vizing residuals of the thm21-odd benchmark ops.
    PINNED = {
        (385, (6, 7, 8, 9, 10)):
            "d8c0b14566ce8a7e88b1ba4d020a73fada43b88e8397a52536e1dadb4c0c3d85",
        (495, (6, 7, 8, 9, 10)):
            "ce788e7388cb3b135ec65405e48da3961b07b3b4d3f6979653f338404a8cf8e6",
        (385, (4, 5, 6)):
            "8a01920c7e0c666973f9b061f124240e7584368977893226aea66a99ef8437e0",
        (715, (6, 7, 8)):
            "f8a97a6b015953a269daf3b860dd93401ce9ae205201a394722aaf379ed1a9ef",
        (21, (4, 5, 6)):
            "16a579f504636062018690214d6caee23e9c98f1534bfe1e854fa116e0b01925",
        # the residuals of the thm21-odd instances the benchmark leaves out
        # for length: (1001,10,1), (1155,10,1), (1001,6,1), (2431,8,3)
        (1001, (6, 7, 8, 9, 10)):
            "ef5f972267db8bab139b8a9af6edd05d207dec4871eb98788c9785f4bf76298b",
        (1155, (6, 7, 8, 9, 10)):
            "4a1ff4362c6962468c0538d1b6bc422af84e6d09f82f88bec4783d44412e6783",
        (1001, (4, 5, 6)):
            "9799fcaa1f403b34bf4d0b915c79801722b5d1c2df2de4b276b2d32bd5e75caf",
        (2431, (6, 7, 8)):
            "f988b4291b55af00588cc0806e0660733d7f7b40ea99657e661bdcfa65deb960",
        # the residual of thm21-odd (195, 64, 1): Delta = 64, so the color
        # masks take more than one 64-bit word
        (195, tuple(range(33, 65))):
            "13fdd4b4e882971c3e377a51022f2550a6632d26cff2f85b0955fd40319438d1",
    }
    # sha256 over the 50 per-graph digests of test_random_circulant_subgraphs'
    # first 50 graphs, in order
    PINNED_RANDOM_50 = (
        "91cc945f5a43e53c6dad8c58833d48d8a897a48a9797d69c85e44fde81c4163b")

    @staticmethod
    def _digest(ec):
        triples = sorted((u, v, c) for (u, v), c in ec.colors.items())
        return hashlib.sha256(repr(triples).encode()).hexdigest()

    @pytest.mark.parametrize("n,ds", [
        pytest.param(n, ds, id="C_%d(%s)" % (n, ",".join(map(str, ds))))
        for n, ds in sorted(PINNED)])
    def test_pinned_colors(self, n, ds):
        ec = edge_color_delta_plus_one(build_circulant(n, ds))
        assert self._digest(ec) == self.PINNED[(n, ds)]

    def test_pinned_colors_random(self):
        rng = random.Random(0)
        h = hashlib.sha256()
        for _ in range(50):
            n = rng.randrange(4, 31)
            half = n // 2
            size = rng.randrange(1, half + 1)
            ds = rng.sample(range(1, half + 1), size)
            ec = edge_color_delta_plus_one(build_circulant(n, ds))
            h.update(self._digest(ec).encode())
        assert h.hexdigest() == self.PINNED_RANDOM_50

    def test_deterministic(self):
        g = build_circulant(15, [2, 4])
        assert (edge_color_delta_plus_one(g).colors
                == edge_color_delta_plus_one(g).colors)

    @given(g=circulants())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, g):
        got = edge_color_delta_plus_one(g).colors
        want = reference_edge_color(g.edges)
        assert got == want
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("first", [0, 1, 2, 12])
    def test_first_color_shifts(self, first):
        g = build_circulant(385, [6, 7, 8, 9, 10])
        base = edge_color_delta_plus_one(g).colors
        shifted = edge_color_delta_plus_one(g, first).colors
        assert shifted == {e: c + first - 1 for e, c in base.items()}
        assert list(shifted) == list(base)
        assert min(shifted.values()) == first


# -- the NSD step ------------------------------------------------------------
# constructions._recolor_unit_cycle recolors the two alternating matchings
# of a unit distance's Hamiltonian cycle as one column; the cycle and the
# pair-level split it replaced are kept here as its reference.

def hamiltonian_cycle(g, gen):
    """The cycle 0, gen, 2*gen, ... for a unit distance gen."""
    n = g.n
    if math.gcd(gen % n, n) != 1:
        raise PreconditionFailed("gcd(%d, %d) != 1" % (gen, n))
    if min(gen % n, n - gen % n) not in g.gens:
        raise PreconditionFailed("%d is not a distance of the graph" % gen)
    return [(gen * t) % n for t in range(n)]


def split_rainbow_matchings(cycle, tc):
    """Alternate cycle edges into two matchings; each flag reports whether
    that matching is rainbow (pairwise distinct edge colors) under tc."""
    if len(cycle) % 2:
        raise PreconditionFailed("cycle length %d is odd" % len(cycle))
    pairs = [(u, v) if u < v else (v, u)
             for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    first, second = frozenset(pairs[0::2]), frozenset(pairs[1::2])

    def rainbow(edges):
        cols = [tc.edge_color(u, v) for u, v in edges]
        return len(cols) == len(set(cols))

    return first, second, (rainbow(first), rainbow(second))


def reference_recolor(tc, d, a):
    """The pair-level NSD step: the matchings of the distance-d cycle
    recolored a and a + 1 through with_edge_colors."""
    cycle = hamiltonian_cycle(build_circulant(tc.n, [d]), d)
    m1, m2, flags = split_rainbow_matchings(cycle, tc)
    return tc.with_edge_colors(
        {**{e: a for e in m1}, **{e: a + 1 for e in m2}}), flags


def cycle_colors(tc, cycle):
    """The colors of the cycle's pairs, in cycle order."""
    return [tc.edge_color(*sorted(e))
            for e in zip(cycle, cycle[1:] + cycle[:1])]


class TestHamiltonianCycle:
    """The recolored column follows the cycle 0, d, 2d, ...: its pairs
    alternate a, a + 1 in cycle order."""

    def test_unit_distance_one(self):
        g = build_circulant(18, [1, 2, 3, 4])
        assert hamiltonian_cycle(g, 1) == list(range(18))
        tc = TotalColoring((1,) * 18, {d: list(range(18)) for d in g.gens})
        recolored, flags = constructions._recolor_unit_cycle(tc, 1, 9)
        assert flags == (True, True)
        assert recolored.columns[1] == [9, 10] * 9
        assert {d: recolored.columns[d] for d in (2, 3, 4)} == {
            d: tc.columns[d] for d in (2, 3, 4)}
        assert list(recolored.columns) == [1, 2, 3, 4]

    def test_unit_seven_on_z20(self):
        g = build_circulant(20, [7])
        cycle = hamiltonian_cycle(g, 7)
        assert cycle[:5] == [0, 7, 14, 1, 8]
        assert sorted(cycle) == list(range(20))
        tc = TotalColoring((1,) * 20, {7: [3] * 20})
        recolored, flags = constructions._recolor_unit_cycle(tc, 7, 5)
        assert flags == (False, False)
        assert cycle_colors(recolored, cycle) == [5, 6] * 10


class TestRainbowSplit:
    def test_c6_rainbow(self):
        cycle = list(range(6))
        colors = {tuple(sorted((i, (i + 1) % 6))): [1, 2, 3, 1, 2, 3][i]
                  for i in range(6)}
        tc = TotalColoring.from_pairs((0,) * 6, colors)
        recolored, flags = constructions._recolor_unit_cycle(tc, 1, 4)
        assert flags == (True, True)
        assert cycle_colors(recolored, cycle) == [4, 5] * 3
        assert dict(recolored.edge_items()).keys() == colors.keys()

    def test_two_colored_square_not_rainbow(self):
        colors = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        tc = TotalColoring.from_pairs((0,) * 4, colors)
        _, flags = constructions._recolor_unit_cycle(tc, 1, 3)
        assert flags == (False, False)

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_level_split(self, half_n, data):
        n = 2 * half_n
        d = data.draw(st.sampled_from(
            [x for x in range(1, half_n + 1) if math.gcd(x, n) == 1]))
        rng = data.draw(st.randoms(use_true_random=True))
        col = rng.sample(range(1, n + 1), n)  # both matchings rainbow
        kind = data.draw(st.sampled_from(["perm", "clash", "few"]))
        if kind == "clash":
            x = rng.randrange(n)
            col[x] = col[(x + 2 * rng.randrange(1, half_n)) % n]
        elif kind == "few":
            col = [rng.randrange(1, 4) for _ in range(n)]
        other = [x for x in range(1, half_n) if x != d][:1]
        tc = TotalColoring(tuple(rng.randrange(1, 9) for _ in range(n)),
                           {**{x: [7] * n for x in other}, d: col})
        a = data.draw(st.integers(1, 2 * n))
        got, flags = constructions._recolor_unit_cycle(tc, d, a)
        want, want_flags = reference_recolor(tc, d, a)
        assert flags == want_flags
        assert (got.vertex_colors, list(got.columns.items())) == (
            want.vertex_colors, list(want.columns.items()))
