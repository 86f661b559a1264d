import itertools
import random

import pytest

from circulant_coloring.errors import PreconditionFailed, SearchBudgetExceeded
from circulant_coloring.graphs import build_circulant, power_of_cycle
from circulant_coloring.oracle import (
    Mode,
    Quantity,
    _counting_refutes,
    _independence_number,
    _NsdSearcher,
    _Searcher,
    _to_coloring,
    _total_elements,
    exact_chromatic_index,
    exact_feasible,
    exact_total_chromatic,
)
from circulant_coloring.verifiers import verify_nsd, verify_total_coloring


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

    def test_size_limit_override(self):
        g = build_circulant(13, [1])
        assert exact_total_chromatic(g, size_limit=13).value == 4

    def test_budget(self):
        g = build_circulant(10, [1, 2, 3, 4, 5])
        with pytest.raises(SearchBudgetExceeded,
                           match="oracle search exceeded"):
            exact_total_chromatic(g, budget=50)

    def test_max_colors_too_low(self):
        with pytest.raises(ValueError):
            exact_total_chromatic(build_circulant(6, [1]), max_colors=2)


class TestCountingRule:
    """A (Delta+1)-total coloring puts every color at every vertex, so
    each vertex class has a size s <= alpha with s = n (mod 2)."""

    @pytest.mark.parametrize("n,k,value", [(9, 3, 8), (11, 3, 8), (11, 4, 10)])
    def test_type2_powers_decided(self, n, k, value):
        g = power_of_cycle(n, k)
        assert _counting_refutes(g, g.degree + 1)
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
        g = power_of_cycle(9, 3)
        assert not _counting_refutes(g, g.degree + 2)
        assert not _counting_refutes(g, g.degree)

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
        # the rule must leave alone
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
                assert not _counting_refutes(g, k), (g.n, g.gens)
        assert colored >= 20


class TestChromaticIndex:
    @pytest.mark.parametrize(
        "n,ds,value",
        [(6, [1], 2), (5, [1], 3), (4, [1, 2], 3), (5, [1, 2], 5), (9, [1], 3)],
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
        for e, c in result.witness.edge_colors.items():
            for end in (e.u, e.v):
                assert (end, c) not in at
                at[(end, c)] = e
        assert set(result.witness.edge_colors) == set(g.edges)


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
        # cut off where it arises, not after the last edge
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
                    sums = _to_coloring(self.g, self.elements,
                                        self.assignment).all_vertex_sums()
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


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = build_circulant(9, [1, 2])
        a = exact_total_chromatic(g)
        b = exact_total_chromatic(g)
        assert a.value == b.value
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness
