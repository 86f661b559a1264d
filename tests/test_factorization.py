import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.errors import (
    FactorizationImpossible,
    PreconditionFailed,
)
from circulant_coloring.factorization import (
    Matching,
    edge_color_delta_plus_one,
    hamiltonian_cycle,
    one_factorize,
    split_rainbow_matchings,
)
from circulant_coloring.graphs import Edge, build_circulant
from circulant_coloring.coloring import TotalColoring


def check_factorization(g, fac):
    assert len(fac.factors) == g.degree
    seen = set()
    for f in fac.factors:
        assert f.is_perfect(g.n)
        assert not f.edges & seen
        seen |= f.edges
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
        with pytest.raises(FactorizationImpossible):
            one_factorize(build_circulant(10, [2]))

    def test_deterministic(self):
        g = build_circulant(20, [3, 4, 7])
        a = one_factorize(g).to_json_dict()
        b = one_factorize(g).to_json_dict()
        assert a == b

    def test_all_generating_subsets_n_le_8(self):
        # the exhaustive n <= 12 sweep lives in the acceptance suite
        for n in range(4, 9, 2):
            half = n // 2
            for mask in range(1, 2 ** half):
                ds = [d for d in range(1, half + 1) if mask >> (d - 1) & 1]
                g = build_circulant(n, ds)
                try:
                    fac = one_factorize(g)
                except FactorizationImpossible:
                    # only disconnected graphs with odd components may fail
                    from circulant_coloring.graphs import GeneratorSet, generates_group
                    assert not generates_group(GeneratorSet(n, tuple(ds)))
                    continue
                check_factorization(g, fac)


class TestMatching:
    def test_shared_vertex_rejected(self):
        with pytest.raises(ValueError):
            Matching(frozenset({Edge(0, 1), Edge(1, 2)}))

    def test_perfect(self):
        m = Matching(frozenset({Edge(0, 1), Edge(2, 3)}))
        assert m.is_perfect(4)
        assert not m.is_perfect(6)


def check_proper_edge_coloring(edges, coloring, max_colors):
    at = {}
    for e, c in coloring.colors.items():
        assert 1 <= c <= max_colors
        for end in (e.u, e.v):
            assert (end, c) not in at, (end, c)
            at[(end, c)] = e
    assert set(coloring.colors) == set(edges)


class TestVizing:
    def test_path(self):
        edges = [Edge(0, 1), Edge(1, 2)]
        ec = edge_color_delta_plus_one(edges)
        check_proper_edge_coloring(edges, ec, 3)
        assert ec.max_color() == 2

    def test_triangle(self):
        edges = [Edge(0, 1), Edge(1, 2), Edge(0, 2)]
        ec = edge_color_delta_plus_one(edges)
        check_proper_edge_coloring(edges, ec, 3)
        assert ec.max_color() == 3

    def test_residual_of_z21(self):
        g = build_circulant(21, [4, 5, 6])
        ec = edge_color_delta_plus_one(g.edges)
        check_proper_edge_coloring(g.edges, ec, 7)

    def test_random_circulant_subgraphs(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randrange(4, 31)
            half = n // 2
            size = rng.randrange(1, half + 1)
            ds = rng.sample(range(1, half + 1), size)
            g = build_circulant(n, ds)
            ec = edge_color_delta_plus_one(g.edges)
            check_proper_edge_coloring(g.edges, ec, g.degree + 1)

    def test_empty(self):
        assert edge_color_delta_plus_one([]).colors == {}

    def test_deterministic(self):
        g = build_circulant(15, [2, 4])
        assert (edge_color_delta_plus_one(g.edges).colors
                == edge_color_delta_plus_one(g.edges).colors)


class TestHamiltonianCycle:
    def test_unit_distance_one(self):
        g = build_circulant(18, [1, 2, 3, 4])
        assert hamiltonian_cycle(g, 1) == list(range(18))

    def test_unit_seven_on_z20(self):
        g = build_circulant(20, [7])
        cycle = hamiltonian_cycle(g, 7)
        assert cycle[:5] == [0, 7, 14, 1, 8]
        assert sorted(cycle) == list(range(20))

    def test_non_unit(self):
        g = build_circulant(6, [1, 2])
        with pytest.raises(PreconditionFailed, match=r"gcd\(2, \d+\) != 1"):
            hamiltonian_cycle(g, 2)

    def test_not_a_distance(self):
        g = build_circulant(20, [1, 2])
        with pytest.raises(PreconditionFailed,
                           match="7 is not a distance of the graph"):
            hamiltonian_cycle(g, 7)


class TestRainbowSplit:
    def _cycle_coloring(self, n, edge_colors):
        vc = tuple(0 for _ in range(n))
        return TotalColoring(vc, edge_colors)

    def test_c6_rainbow(self):
        cycle = list(range(6))
        colors = {Edge.of(i, (i + 1) % 6): [1, 2, 3, 1, 2, 3][i] for i in range(6)}
        tc = self._cycle_coloring(6, colors)
        m1, m2, flags = split_rainbow_matchings(cycle, tc)
        assert flags == (True, True)
        assert m1.is_perfect(6) and m2.is_perfect(6)
        assert m1.edges | m2.edges == set(colors)

    def test_two_colored_square_not_rainbow(self):
        cycle = [0, 1, 2, 3]
        colors = {Edge(0, 1): 1, Edge(1, 2): 2, Edge(2, 3): 1, Edge.of(3, 0): 2}
        tc = self._cycle_coloring(4, colors)
        _, _, flags = split_rainbow_matchings(cycle, tc)
        assert flags == (False, False)

    def test_odd_cycle_rejected(self):
        tc = self._cycle_coloring(5, {})
        with pytest.raises(PreconditionFailed, match="cycle length 5 is odd"):
            split_rainbow_matchings([0, 1, 2, 3, 4], tc)
