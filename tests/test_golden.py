import pytest

from circulant_coloring.cli import EXIT_OK, main
from circulant_coloring.coloring import to_matrix
from circulant_coloring.errors import CirculantColoringError, MismatchFound
from circulant_coloring.golden import (
    TABLE_IDS,
    CellMismatch,
    compare_table,
    load_table,
    rebuild_table,
    reproduce_table,
)

EXPECTED_CHECKED = {1: 147, 2: 162, 3: 162, 4: 250, 5: 162, 6: 150}
EXPECTED_WILDCARDS = {1: 0, 2: 0, 3: 0, 4: 2, 5: 0, 6: 17}


class TestLoad:
    @pytest.mark.parametrize("tid", TABLE_IDS)
    def test_fixture_ships(self, tid):
        matrix, wildcards = load_table(tid)
        assert len(matrix) in (18, 21, 24)
        assert len(wildcards) == EXPECTED_WILDCARDS[tid]

    def test_missing_fixture(self):
        with pytest.raises(CirculantColoringError,
                           match="table7.csv is not shipped"):
            load_table(7)

    def test_fixtures_consistent_where_both_sides_printed(self):
        # some sources print a cell on one side of the diagonal only, so
        # we require agreement only when both mirror cells are present
        for tid in TABLE_IDS:
            matrix, _ = load_table(tid)
            n = len(matrix)
            for u in range(n):
                for v in range(u + 1, n):
                    if matrix[u][v] is not None and matrix[v][u] is not None:
                        assert matrix[u][v] == matrix[v][u], (tid, u, v)


class TestReproduce:
    @pytest.mark.parametrize("tid", TABLE_IDS)
    def test_cell_for_cell(self, tid):
        assert reproduce_table(tid) == EXPECTED_CHECKED[tid]

    @pytest.mark.parametrize("tid", TABLE_IDS)
    def test_compare_empty(self, tid):
        assert compare_table(tid) == (EXPECTED_CHECKED[tid], [])

    def test_unknown_table(self):
        with pytest.raises(CirculantColoringError,
                           match="table0.csv is not shipped"):
            reproduce_table(0)

    def test_all_runs_each_builder_once(self, monkeypatch, capsys):
        # tables 2 and 3, and 5 and 6, are the two halves of one build
        import circulant_coloring.golden as golden_mod

        calls = []
        names = ["color_power_cycle_odd", "equitable_nsd_power_cycle",
                 "color_thm32", "color_thm34"]
        for name in names:
            def counted(*args, _real=getattr(golden_mod, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(golden_mod, name, counted)
        golden_mod.rebuild_table.cache_clear()
        golden_mod._pair.cache_clear()
        assert main(["reproduce", "--table", "all"]) == EXIT_OK
        assert capsys.readouterr().out.count(": OK") == len(TABLE_IDS)
        assert sorted(calls) == sorted(names)

    def test_wildcard_cells_disagree_with_rule(self):
        # the untrusted cells are exactly those the rebuilt coloring
        # contradicts; trusting them would make the coloring improper
        matrix, wildcards = load_table(6)
        assert wildcards
        ours = to_matrix(rebuild_table(6).coloring)
        for (u, v) in wildcards:
            assert ours[u][v] is not None


class TestMismatchDetection:
    def test_forged_cell_detected(self, monkeypatch):
        import circulant_coloring.golden as golden_mod

        real = load_table(2)

        def forged(tid):
            matrix, wildcards = real
            tampered = [row[:] for row in matrix]
            tampered[0][1] = 99
            return tampered, wildcards

        monkeypatch.setattr(golden_mod, "load_table", forged)
        with pytest.raises(MismatchFound):
            golden_mod.reproduce_table(2)
        _, mismatches = golden_mod.compare_table(2)
        assert CellMismatch(0, 1, 99, mismatches[0].actual) == mismatches[0]
