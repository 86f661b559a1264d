import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.coloring import (
    TotalColoring,
    coloring_from_json_dict,
    coloring_to_json_dict,
    from_matrix,
    matrix_csv_rows,
    parse_matrix_csv_text,
    read_coloring_json,
    read_matrix_csv,
    to_matrix,
    write_coloring_json,
    write_matrix_csv,
)
from circulant_coloring.constructions import color_power_cycle_odd
from circulant_coloring.errors import PreconditionFailed
from circulant_coloring.graphs import Edge, build_circulant


def sample_coloring():
    # proper total coloring of C_4
    return TotalColoring(
        (1, 2, 1, 2),
        {Edge(0, 1): 3, Edge(1, 2): 4, Edge(2, 3): 3, Edge(0, 3): 4},
    )


class TestTotalColoring:
    def test_palette_vs_distinct_count(self):
        tc = TotalColoring((1, 5), {Edge(0, 1): 3})
        assert tc.palette_size == 5
        assert tc.colors_used() == 3

    def test_vertex_sum(self):
        tc = sample_coloring()
        assert tc.all_vertex_sums() == [8, 9, 8, 9]

    def test_with_edge_colors_is_functional(self):
        tc = sample_coloring()
        out = tc.with_edge_colors({Edge(0, 1): 9})
        assert out.edge_color(0, 1) == 9
        assert tc.edge_color(0, 1) == 3

    def test_edge_color_orderless(self):
        tc = sample_coloring()
        assert tc.edge_color(3, 0) == tc.edge_color(0, 3)


class TestMatrix:
    def test_round_trip(self):
        tc = sample_coloring()
        assert from_matrix(to_matrix(tc)) == tc

    def test_symmetry_and_blanks(self):
        m = to_matrix(sample_coloring())
        assert m[0][1] == m[1][0] == 3
        assert m[0][2] is None  # non-edge
        assert [m[i][i] for i in range(4)] == [1, 2, 1, 2]

    def test_header_layout(self):
        rows = matrix_csv_rows(sample_coloring())
        assert rows[0] == ["", "0", "1", "2", "3"]
        assert rows[1][0] == "0"
        assert rows[1][3] == ""  # blank non-edge cell


class TestCsvParsing:
    def test_round_trip_text(self):
        tc = sample_coloring()
        text = "\n".join(",".join(r) for r in matrix_csv_rows(tc))
        matrix, wildcards = parse_matrix_csv_text(text)
        assert not wildcards
        assert from_matrix(matrix) == tc

    def test_wildcards(self):
        text = ",0,1\n0,1,*\n1,*,2\n"
        matrix, wildcards = parse_matrix_csv_text(text)
        assert wildcards == {(0, 1), (1, 0)}
        assert matrix[0][1] is None
        assert matrix[1][1] == 2

    def test_whitespace_tolerated(self):
        text = ",0,1\n0, 1 ,3\n1,3, 2\n"
        matrix, _ = parse_matrix_csv_text(text)
        assert matrix[0][0] == 1


class TestFiles:
    def test_csv_round_trip(self, tmp_path):
        tc = sample_coloring()
        path = tmp_path / "c.csv"
        write_matrix_csv(tc, path)
        matrix, wildcards = read_matrix_csv(path)
        assert not wildcards
        assert from_matrix(matrix) == tc

    def test_json_round_trip(self, tmp_path):
        tc = sample_coloring()
        path = tmp_path / "c.json"
        write_coloring_json(tc, path)
        assert read_coloring_json(path) == tc

    def test_json_is_sorted_and_stable(self, tmp_path):
        tc = sample_coloring()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_coloring_json(tc, a)
        write_coloring_json(tc, b)
        assert a.read_bytes() == b.read_bytes()
        d = json.loads(a.read_text())
        assert d["edges"] == sorted(d["edges"], key=lambda e: (e["u"], e["v"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(PreconditionFailed, match="absent.csv"):
            read_matrix_csv(tmp_path / "absent.csv")
        with pytest.raises(PreconditionFailed, match="absent.json"):
            read_coloring_json(tmp_path / "absent.json")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(PreconditionFailed, match="dir.csv"):
            write_matrix_csv(sample_coloring(), tmp_path / "no" / "dir.csv")


class TestJsonDict:
    def test_shape(self):
        d = coloring_to_json_dict(sample_coloring())
        assert d["n"] == 4
        assert {"u": 0, "v": 1, "c": 3} in d["edges"]

    def test_round_trip(self):
        tc = sample_coloring()
        assert coloring_from_json_dict(coloring_to_json_dict(tc)) == tc


class TestBuilderColoringsRoundTrip:
    def test_built_coloring_through_both_formats(self, tmp_path):
        report = color_power_cycle_odd(21, 6, 1)
        tc = report.coloring
        write_matrix_csv(tc, tmp_path / "t.csv")
        matrix, _ = read_matrix_csv(tmp_path / "t.csv")
        assert from_matrix(matrix) == tc
        write_coloring_json(tc, tmp_path / "t.json")
        assert read_coloring_json(tmp_path / "t.json") == tc


@given(st.integers(4, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_random_colorings_round_trip(n, data):
    g = build_circulant(n, [1, 2])
    vc = tuple(data.draw(st.integers(1, 9)) for _ in range(n))
    ec = {e: data.draw(st.integers(1, 9)) for e in g.edges}
    tc = TotalColoring(vc, ec)
    assert from_matrix(to_matrix(tc)) == tc
    text = "\n".join(",".join(r) for r in matrix_csv_rows(tc))
    matrix, _ = parse_matrix_csv_text(text)
    assert from_matrix(matrix) == tc
    assert coloring_from_json_dict(coloring_to_json_dict(tc)) == tc
