import pytest

from circulant_coloring.errors import PreconditionFailed, SearchBudgetExceeded
from circulant_coloring.graphs import build_circulant, power_of_cycle
from circulant_coloring.oracle import (
    Mode,
    Quantity,
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
