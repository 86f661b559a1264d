import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.errors import PreconditionFailed
from circulant_coloring.graphs import (
    CirculantGraph,
    Edge,
    GeneratorSet,
    build_circulant,
    classify_sum_free_half,
    generates_group,
    induced_by_generators,
    normalize_half_set,
    power_of_cycle,
)


def gs(n, ds):
    return GeneratorSet(n, normalize_half_set(n, ds))


# deterministic pool of small test graphs
def small_circulants(max_n=12):
    out = []
    for n in range(3, max_n + 1):
        half = n // 2
        for mask in range(1, 2 ** half):
            ds = [d for d in range(1, half + 1) if mask >> (d - 1) & 1]
            out.append(build_circulant(n, ds))
    return out


class TestBuildCirculant:
    def test_complete_graph_k5(self):
        g = build_circulant(5, [1, 2])
        assert g.degree == 4
        assert len(g.edges) == 10

    def test_c21_power6(self):
        g = build_circulant(21, range(1, 7))
        assert g.degree == 12

    def test_half_set_normalization(self):
        g = build_circulant(24, [1, 3, 4, 5, 10, 14, 19, 20, 21, 23])
        assert g.gens == (1, 3, 4, 5, 10)
        assert g.degree == 10

    def test_involution_counts_once(self):
        g = build_circulant(6, [1, 3])
        assert g.degree == 3

    def test_empty_rejected(self):
        with pytest.raises(PreconditionFailed, match="must be non-empty"):
            build_circulant(6, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionFailed, match="would be a self-loop"):
            build_circulant(6, [0])
        with pytest.raises(PreconditionFailed, match="would be a self-loop"):
            build_circulant(6, [6])

    def test_duplicate_after_normalization_rejected(self):
        with pytest.raises(PreconditionFailed, match="listed twice"):
            build_circulant(10, [3, 7, 3])

    def test_adjacency_matches_edge_list(self):
        g = build_circulant(11, [2, 5])
        for u in range(11):
            for v in range(u + 1, 11):
                assert g.adjacent(u, v) == (Edge(u, v) in set(g.edges))


class TestPowerOfCycle:
    def test_degree(self):
        assert power_of_cycle(18, 4).degree == 8

    def test_plain_cycle(self):
        g = power_of_cycle(6, 1)
        assert len(g.edges) == 6

    def test_equals_build_circulant(self):
        assert power_of_cycle(21, 6) == build_circulant(21, range(1, 7))

    def test_k_out_of_range(self):
        with pytest.raises(PreconditionFailed, match="need 1 <= k < n/2"):
            power_of_cycle(6, 3)
        with pytest.raises(PreconditionFailed, match="need 1 <= k < n/2"):
            power_of_cycle(6, 0)


class TestInduced:
    def test_sub_power(self):
        g = build_circulant(21, range(1, 7))
        sub = induced_by_generators(g, gs(21, [1, 2, 3]))
        assert sub == power_of_cycle(21, 3)

    def test_identity(self):
        g = build_circulant(10, [1, 4])
        assert induced_by_generators(g, g.generators) == g

    def test_complement_of_dense_z20(self):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        sub = induced_by_generators(g, gs(20, [7, 8, 12, 13]))
        assert sub.degree == 4

    def test_not_a_subset(self):
        g = build_circulant(10, [1, 2])
        with pytest.raises(PreconditionFailed, match="is not a subset"):
            induced_by_generators(g, gs(10, [3]))

    def test_disjoint_union_covers(self):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        a = induced_by_generators(g, gs(20, [1, 2, 3, 4, 5]))
        b = induced_by_generators(g, gs(20, [7, 8]))
        assert set(a.edges) | set(b.edges) == set(g.edges)
        assert not set(a.edges) & set(b.edges)


class TestGeneratesGroup:
    def test_unit_generates(self):
        assert generates_group(gs(20, [7, 8]))

    def test_even_subgroup(self):
        assert not generates_group(gs(6, [2]))

    def test_z18_complement(self):
        assert generates_group(gs(18, [7, 8]))


class TestSumFree:
    def test_z24_table_instance(self):
        assert classify_sum_free_half(gs(24, [1, 3, 4, 5, 10]))

    def test_pair_summing_to_half(self):
        assert not classify_sum_free_half(gs(8, [1, 3]))

    def test_z24_counterexample(self):
        assert not classify_sum_free_half(gs(24, [1, 11]))

    def test_self_pair_counts(self):
        # 5 + 5 = 10 = n/2 with repetition allowed
        assert not classify_sum_free_half(gs(20, [5]))

    def test_involution_disqualifies(self):
        assert not classify_sum_free_half(gs(8, [1, 4]))

    def test_odd_order_rejected(self):
        with pytest.raises(PreconditionFailed, match="needs even n"):
            classify_sum_free_half(gs(9, [1]))


class TestStructuralInvariants:
    def test_handshake_small(self):
        for g in small_circulants(10):
            assert sum(len(g.neighbors(u)) for u in range(g.n)) == 2 * len(g.edges)

    def test_rotation_preserves_edges(self):
        for n in range(3, 51, 7):
            g = build_circulant(n, [1] + ([2] if n >= 5 else []))
            rotated = {Edge.of((e.u + 1) % n, (e.v + 1) % n) for e in g.edges}
            assert rotated == set(g.edges)

    @given(st.integers(3, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_handshake_random(self, n, data):
        half = n // 2
        ds = data.draw(st.sets(st.integers(1, half), min_size=1))
        g = build_circulant(n, sorted(ds))
        assert sum(len(g.neighbors(u)) for u in range(g.n)) == 2 * len(g.edges)

    @given(st.integers(3, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_random(self, n, data):
        half = n // 2
        ds = data.draw(st.sets(st.integers(1, half), min_size=1))
        g = build_circulant(n, sorted(ds))
        rotated = {Edge.of((e.u + 1) % n, (e.v + 1) % n) for e in g.edges}
        assert rotated == set(g.edges)


class TestEdge:
    def test_canonical_order(self):
        assert Edge.of(5, 2) == Edge(2, 5)

    def test_no_self_loop(self):
        with pytest.raises(ValueError):
            Edge(3, 3)

    def test_equals_its_pair(self):
        e = Edge(2, 5)
        assert e == (2, 5)
        assert hash(e) == hash((2, 5))
        assert (e.u, e.v) == (2, 5)
        assert {(2, 5): "x"}[e] == "x"

    def test_repr(self):
        assert repr(Edge(0, 1)) == "Edge(u=0, v=1)"
        assert str(Edge(3, 14)) == "Edge(u=3, v=14)"

    @pytest.mark.parametrize("make", [lambda: Edge(3, 3), lambda: Edge(5, 2),
                                      lambda: Edge.of(4, 4)])
    def test_invalid(self, make):
        with pytest.raises(ValueError):
            make()

    def test_immutable(self):
        e = Edge(1, 2)
        with pytest.raises(AttributeError):
            e.u = 1
        with pytest.raises(AttributeError):
            e.w = 1

    def test_pickle_and_copy(self):
        e = Edge(4, 9)
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                     copy.deepcopy(e)):
            assert type(twin) is Edge
            assert twin == e and (twin.u, twin.v) == (4, 9)

    def test_sorts_as_pairs(self):
        edges = [Edge(3, 4), Edge(0, 9), Edge.of(7, 2), Edge(0, 1), Edge(2, 3)]
        assert sorted(edges) == sorted((e.u, e.v) for e in edges)
        assert sorted(edges) == [(0, 1), (0, 9), (2, 3), (2, 7), (3, 4)]

    def test_graph_edges_ordered_and_complete(self):
        g = build_circulant(12, [1, 5, 6])
        assert all(type(e) is Edge for e in g.edges)
        assert list(g.edges) == sorted(set(g.edges))
        assert set(g.edges) == {Edge.of(u, (u + d) % 12)
                                for u in range(12) for d in (1, 5, 6)}
        assert len(g.edges) == 12 * g.degree // 2


class TestJson:
    def test_round_trip_shape(self):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        d = g.to_json_dict()
        assert d == {"n": 18, "generators": [1, 2, 4, 6, 7, 8]}
        assert build_circulant(d["n"], d["generators"]) == g
