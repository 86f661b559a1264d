import csv
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.coloring import (
    TotalColoring,
    coloring_from_json_dict,
    coloring_json_text,
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


def json_dict(tc) -> dict:
    """The document the JSON writer lays out, built as plain objects: the
    reference json.dumps output is compared against."""
    return {
        "n": tc.n,
        "vertex_colors": list(tc.vertex_colors),
        "edges": [{"u": u, "v": v, "c": c}
                  for (u, v), c in sorted(tc.edge_colors.items())],
    }


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

    def test_asymmetric_rejected(self):
        # a value below the diagonal with a blank mirror above it
        m = to_matrix(sample_coloring())
        m[2][0] = 4
        with pytest.raises(ValueError,
                           match=r"cell \(2, 0\) = 4 differs from "
                                 r"cell \(0, 2\) = None"):
            from_matrix(m)

    def test_rejects_exactly_the_asymmetric(self):
        rng = random.Random(1)
        for _ in range(2000):
            n = rng.randint(1, 6)
            m = [[None] * n for _ in range(n)]
            for u in range(n):
                m[u][u] = rng.choice([None, 1, 2])
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        m[u][v] = m[v][u] = rng.randint(0, 3)
            for _ in range(rng.randint(0, 2)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    m[u][v] = rng.choice([None, 0, 1, 5])
            symmetric = all(m[u][v] == m[v][u]
                            for u in range(n) for v in range(n))
            try:
                from_matrix(m)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted is symmetric, m

    def test_header_layout(self):
        rows = list(matrix_csv_rows(sample_coloring()))
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
        d = json.loads(coloring_json_text(sample_coloring()))
        assert d["n"] == 4
        assert {"u": 0, "v": 1, "c": 3} in d["edges"]

    def test_round_trip(self):
        tc = sample_coloring()
        assert coloring_from_json_dict(
            json.loads(coloring_json_text(tc))) == tc


def matrix_csv_reference(tc) -> str:
    """The CSV layout written straight from the n x n matrix."""
    m = to_matrix(tc)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([""] + [str(v) for v in range(tc.n)])
    for u, row in enumerate(m):
        writer.writerow([str(u)] + ["" if x is None else str(x) for x in row])
    return out.getvalue()


class TestWriters:
    """The templated JSON and the streamed CSV against the generic
    encoders they replace."""

    REPORT = {"colors_used": 5, "bound_claimed": 5, "fallback_used": False,
              "notes": 'quote " and \u00e9'}

    @pytest.mark.parametrize("report", [None, REPORT, {}])
    def test_json_text_is_json_dumps(self, report):
        for tc in (sample_coloring(), TotalColoring((1, 2), {}),
                   TotalColoring((), {})):
            doc = json_dict(tc)
            if report is not None:
                doc["report"] = report
            assert coloring_json_text(tc, report) == json.dumps(
                doc, indent=1, sort_keys=True)

    def test_json_file_is_json_dump(self, tmp_path):
        tc = color_power_cycle_odd(21, 6, 1).coloring
        write_coloring_json(tc, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == json.dumps(
            json_dict(tc), indent=1, sort_keys=True) + "\n"

    def test_csv_file_is_matrix_csv(self, tmp_path):
        for tc in (sample_coloring(), color_power_cycle_odd(21, 6, 1).coloring,
                   TotalColoring((1, 2, 3), {})):
            write_matrix_csv(tc, tmp_path / "t.csv")
            with open(tmp_path / "t.csv", newline="") as fh:
                assert fh.read() == matrix_csv_reference(tc)


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
    assert coloring_from_json_dict(json.loads(coloring_json_text(tc))) == tc
    with_report = json_dict(tc)
    with_report["report"] = {"n": n}
    assert coloring_json_text(tc, {"n": n}) == json.dumps(
        with_report, indent=1, sort_keys=True)
