import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.coloring import TotalColoring, coloring_from_json_dict
from circulant_coloring.errors import PreconditionFailed
from circulant_coloring.factorization import one_factorize
from circulant_coloring.graphs import (
    CirculantGraph,
    build_circulant,
    classify_sum_free_half,
    generates_group,
    power_of_cycle,
)
from circulant_coloring.verifiers import Violation


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
                assert (v in g.neighbors(u)) == ((u, v) in set(g.edges))


class TestCirculantGraph:
    # the type holds a canonical half-set; folding is build_circulant's
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(CirculantGraph)] == [
            "n", "gens"]

    def test_sorts_and_lists_the_full_set(self):
        g = CirculantGraph(10, (5, 1))
        assert g.gens == (1, 5)
        assert g.full == (1, 5, 9)
        assert g.degree == 3

    @pytest.mark.parametrize("gens, message", [
        ((), "generator set must be non-empty"),
        ((0,), r"generator 0 outside \[1, 5\]"),
        ((1, 6), r"generator 6 outside \[1, 5\]"),
        ((2, 2), r"duplicate generators: \(2, 2\)"),
    ])
    def test_invalid(self, gens, message):
        with pytest.raises(PreconditionFailed, match=message):
            CirculantGraph(10, gens)


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
    # the spanning subgraph of g on a subset of its distances is the
    # circulant on that subset
    def test_sub_power(self):
        g = build_circulant(21, range(1, 7))
        sub = build_circulant(21, [1, 2, 3])
        assert sub.issubset(g)
        assert sub == power_of_cycle(21, 3)

    def test_identity(self):
        g = build_circulant(10, [1, 4])
        assert g.issubset(g)

    def test_complement_of_dense_z20(self):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        sub = build_circulant(20, [7, 8, 12, 13])
        assert sub.issubset(g)
        assert sub.degree == 4

    def test_not_a_subset(self):
        g = build_circulant(10, [1, 2])
        assert not build_circulant(10, [3]).issubset(g)
        assert not build_circulant(12, [1]).issubset(g)

    def test_disjoint_union_covers(self):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        a = build_circulant(20, [1, 2, 3, 4, 5])
        b = build_circulant(20, [7, 8])
        assert set(a.edges) | set(b.edges) == set(g.edges)
        assert not set(a.edges) & set(b.edges)


class TestGeneratesGroup:
    def test_unit_generates(self):
        assert generates_group(build_circulant(20, [7, 8]))

    def test_even_subgroup(self):
        assert not generates_group(build_circulant(6, [2]))

    def test_z18_complement(self):
        assert generates_group(build_circulant(18, [7, 8]))


class TestSumFree:
    def test_z24_table_instance(self):
        assert classify_sum_free_half(build_circulant(24, [1, 3, 4, 5, 10]))

    def test_pair_summing_to_half(self):
        assert not classify_sum_free_half(build_circulant(8, [1, 3]))

    def test_z24_counterexample(self):
        assert not classify_sum_free_half(build_circulant(24, [1, 11]))

    def test_self_pair_counts(self):
        # 5 + 5 = 10 = n/2 with repetition allowed
        assert not classify_sum_free_half(build_circulant(20, [5]))

    def test_involution_disqualifies(self):
        assert not classify_sum_free_half(build_circulant(8, [1, 4]))

    def test_odd_order_rejected(self):
        with pytest.raises(PreconditionFailed, match="needs even n"):
            classify_sum_free_half(build_circulant(9, [1]))

    @given(st.integers(1, 32).map(lambda h: 2 * h), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_definition(self, n, data):
        # n = 2 included: the type takes it, build_circulant does not
        sub = CirculantGraph(n, tuple(data.draw(
            st.sets(st.integers(1, n // 2), min_size=1))))
        assert classify_sum_free_half(sub) == sum_free_half_pairwise(sub)


def sum_free_half_pairwise(sub):
    """The definition, pair by pair: no s, t of the full symmetric set
    (s = t allowed) with s + t = n/2 mod n, and n/2 not in the set."""
    n, full = sub.n, sub.full
    return n // 2 not in sub.gens and not any(
        (s + t) % n == n // 2 for s in full for t in full)


class TestStructuralInvariants:
    def test_handshake_small(self):
        for g in small_circulants(10):
            assert sum(len(g.neighbors(u)) for u in range(g.n)) == 2 * len(g.edges)

    def test_rotation_preserves_edges(self):
        for n in range(3, 51, 7):
            g = build_circulant(n, [1] + ([2] if n >= 5 else []))
            rotated = {tuple(sorted(((u + 1) % n, (v + 1) % n)))
                       for u, v in g.edges}
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
        rotated = {tuple(sorted(((u + 1) % n, (v + 1) % n)))
                   for u, v in g.edges}
        assert rotated == set(g.edges)


class TestEdge:
    """An edge is the plain pair (u, v) with u < v, wherever it is made."""

    def test_canonical_order(self):
        # pairs that wrap around Z_n are stored low end first, and the
        # 1-factorization colors each of them in its column slot
        g = build_circulant(6, [1, 3])
        fac = one_factorize(g)
        colored = dict(TotalColoring((1,) * 6, fac.columns).edge_items())
        assert all(u < v for u, v in colored) and (0, 5) in colored
        assert list(colored) == list(g.edges)
        assert set(colored.values()) == set(fac.factors)

    def test_equals_its_pair(self):
        g = power_of_cycle(5, 1)
        assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert all(type(e) is tuple for e in g.edges)

    def test_repr(self):
        # the verifier's witnesses keep printing an edge as Edge(u=.., v=..)
        violation = Violation("edge-edge", (1, (0, 1), (1, 14), 3))
        assert violation.to_json_dict()["witness"] == [
            "1", "Edge(u=0, v=1)", "Edge(u=1, v=14)", "3"]

    @pytest.mark.parametrize("make", [
        lambda: coloring_from_json_dict(_one_edge_document(3, 3)),
        lambda: coloring_from_json_dict(_one_edge_document(5, 2))])
    def test_invalid(self, make):
        with pytest.raises(ValueError):
            make()

    def test_pickle_and_copy(self):
        tc = TotalColoring.from_pairs((1, 2, 1, 2), dict.fromkeys(
            build_circulant(4, [1]).edges, 3))
        for twin in (pickle.loads(pickle.dumps(tc)), copy.copy(tc),
                     copy.deepcopy(tc)):
            assert twin == tc
            edges = [e for e, _ in twin.edge_items()]
            assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
            assert all(type(e) is tuple for e in edges)
            assert twin.columns == {1: [3, 3, 3, 3]}

    def test_graph_edges_ordered_and_complete(self):
        g = build_circulant(12, [1, 5, 6])
        assert all(type(e) is tuple for e in g.edges)
        assert list(g.edges) == sorted(set(g.edges))
        assert set(g.edges) == {tuple(sorted((u, (u + d) % 12)))
                                for u in range(12) for d in (1, 5, 6)}
        assert len(g.edges) == 12 * g.degree // 2


def _one_edge_document(u, v):
    return {"vertex_colors": list(range(1, 7)),
            "edges": [{"u": u, "v": v, "c": 9}]}


class TestJson:
    def test_round_trip_shape(self):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        d = g.to_json_dict()
        assert d == {"n": 18, "generators": [1, 2, 4, 6, 7, 8]}
        assert build_circulant(d["n"], d["generators"]) == g
