import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.coloring import TotalColoring
from circulant_coloring.errors import ImproperColoring, VerificationFailed
from circulant_coloring.golden import rebuild_table
from circulant_coloring.graphs import Edge, build_circulant, power_of_cycle
from circulant_coloring.verifiers import (
    TypeLabel,
    classify_type,
    find_violations,
    verify_equitable,
    verify_nsd,
    verify_total_coloring,
)


def k2_coloring():
    return build_circulant(3, [1]), TotalColoring(
        (1, 2, 3), {Edge(0, 1): 3, Edge(1, 2): 1, Edge(0, 2): 2})


class TestProperness:
    def test_triangle_proper(self):
        g, tc = k2_coloring()
        report = verify_total_coloring(g, tc)
        assert report.proper
        assert report.colors_used == 3
        assert report.type_label is TypeLabel.TYPE_I

    def test_vertex_vertex_clash(self):
        g, tc = k2_coloring()
        bad = TotalColoring((1, 1, 3), tc.edge_colors)
        report = verify_total_coloring(g, bad)
        assert not report.proper
        kinds = {v.kind for v in report.violations}
        assert "vertex-vertex" in kinds
        assert any(v.witness[:2] == (0, 1) for v in report.violations)

    def test_vertex_edge_clash(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({Edge(0, 1): 1})
        report = verify_total_coloring(g, bad)
        assert any(v.kind == "vertex-edge" for v in report.violations)

    def test_edge_edge_clash(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({Edge(1, 2): 3})
        report = verify_total_coloring(g, bad)
        hits = [v for v in report.violations if v.kind == "edge-edge"]
        assert hits and hits[0].witness[0] == 1  # shared endpoint

    def test_missing_edge_assignment(self):
        g, tc = k2_coloring()
        partial = TotalColoring(tc.vertex_colors, {Edge(0, 1): 3})
        with pytest.raises(VerificationFailed, match="uncolored edges"):
            verify_total_coloring(g, partial)

    def test_vertex_count_mismatch(self):
        g, _ = k2_coloring()
        with pytest.raises(VerificationFailed,
                           match="covers 2 vertices, graph has 3"):
            verify_total_coloring(g, TotalColoring((1, 2), {}))

    def test_find_violations_reports_all(self):
        g = build_circulant(4, [1])
        tc = TotalColoring((1, 1, 1, 1), {e: 1 for e in g.edges})
        violations = find_violations(g, tc)
        assert len([v for v in violations if v.kind == "vertex-vertex"]) == 4
        assert len([v for v in violations if v.kind == "vertex-edge"]) == 8
        assert len([v for v in violations if v.kind == "edge-edge"]) == 4


class TestEquitable:
    def test_published_equitable_example(self):
        g = power_of_cycle(18, 4)
        report = verify_equitable(g, rebuild_table(2))
        assert report.proper and report.equitable
        sizes = report.class_sizes.values()
        assert max(sizes) - min(sizes) <= 1

    def test_unbalanced_rejected(self):
        g = build_circulant(6, [1])
        edges = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(4, 5),
                 Edge.of(5, 0)]
        balanced = TotalColoring(
            (1, 2, 1, 2, 1, 2), dict(zip(edges, [3, 4, 3, 4, 3, 4])))
        # recoloring one edge leaves color 5 with a single cell: spread 2
        lopsided = TotalColoring(
            (1, 2, 1, 2, 1, 2), dict(zip(edges, [3, 4, 3, 4, 3, 5])))
        assert verify_total_coloring(g, balanced).equitable
        assert not verify_total_coloring(g, lopsided).equitable

    def test_improper_raises(self):
        g, tc = k2_coloring()
        bad = TotalColoring((1, 1, 3), tc.edge_colors)
        with pytest.raises(ImproperColoring):
            verify_equitable(g, bad)

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=30, deadline=None)
    def test_equitability_invariant_under_color_permutation(self, perm):
        g = power_of_cycle(9, 2)
        base = rebuild_table_free(g)
        relabel = {c: perm[c - 1] for c in range(1, 7)}
        tc = TotalColoring(
            tuple(relabel[c] for c in base.vertex_colors),
            {e: relabel[c] for e, c in base.edge_colors.items()})
        a = verify_total_coloring(g, base)
        b = verify_total_coloring(g, tc)
        assert a.proper == b.proper
        assert a.equitable == b.equitable


def rebuild_table_free(g):
    # deterministic proper coloring of C_9^2 for the permutation tests
    from circulant_coloring.constructions import color_power_cycle_odd

    return color_power_cycle_odd(9, 2, 1).coloring


class TestNsd:
    def test_published_nsd_example(self):
        g = power_of_cycle(18, 4)
        report = verify_nsd(g, rebuild_table(3))
        assert report.nsd is True
        assert not report.nsd_violations

    def test_base_coloring_not_nsd(self):
        g = power_of_cycle(18, 4)
        report = verify_nsd(g, rebuild_table(2))
        assert report.nsd is False
        assert report.nsd_violations
        sums = rebuild_table(2).all_vertex_sums()
        for v in report.nsd_violations:
            u, w, s = v.witness
            assert sums[u] == sums[w] == s
            assert g.adjacent(u, w)

    def test_symmetric_triangle_fails(self):
        g = build_circulant(3, [1])
        tc = TotalColoring((1, 2, 3), {Edge(0, 1): 3, Edge(1, 2): 1, Edge(0, 2): 2})
        report = verify_nsd(g, tc)
        # K_3 with this symmetric coloring has all sums equal
        assert report.nsd is False

    def test_improper_raises(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({Edge(0, 1): 1})
        with pytest.raises(ImproperColoring):
            verify_nsd(g, bad)


class TestClassify:
    def test_from_coloring(self):
        g, tc = k2_coloring()
        assert classify_type(g, tc) is TypeLabel.TYPE_I

    def test_from_oracle_value(self):
        g = build_circulant(5, [1])
        assert classify_type(g, oracle_value=4) is TypeLabel.TYPE_II_BOUND

    def test_no_evidence(self):
        g = build_circulant(5, [1])
        assert classify_type(g) is TypeLabel.UNBOUNDED

    def test_oracle_beats_weak_coloring(self):
        g = build_circulant(6, [1])
        tc = TotalColoring(
            (1, 2, 1, 2, 1, 2),
            {Edge(0, 1): 3, Edge(1, 2): 4, Edge(2, 3): 3,
             Edge(3, 4): 4, Edge(4, 5): 3, Edge.of(5, 0): 5})
        assert classify_type(g, tc, oracle_value=3) is TypeLabel.TYPE_I

    def test_wasteful_coloring_unbounded(self):
        g = build_circulant(6, [1])
        tc = TotalColoring(
            (1, 2, 1, 2, 1, 2),
            {Edge(0, 1): 3, Edge(1, 2): 4, Edge(2, 3): 5,
             Edge(3, 4): 6, Edge(4, 5): 7, Edge.of(5, 0): 8})
        assert classify_type(g, tc) is TypeLabel.UNBOUNDED


class TestReportJson:
    def test_shape(self):
        g, tc = k2_coloring()
        d = verify_nsd(g, tc).to_json_dict()
        assert d["proper"] is True
        assert d["nsd"] is False
        assert isinstance(d["class_sizes"], dict)
        assert d["type_label"] == "TypeI"
