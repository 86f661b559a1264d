import csv
import io
import json
import os
import random
import threading
import tracemalloc
from importlib import resources
from itertools import compress
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring import cli, coloring
from circulant_coloring.coloring import (
    _EDGE_JSON,
    TotalColoring,
    _filled_cells,
    coloring_from_csv_text,
    coloring_from_json_dict,
    coloring_json_chunks,
    matrix_csv_lines,
    parse_matrix_csv_text,
    read_coloring_json,
    read_matrix_csv,
    to_matrix,
    write_coloring_json,
    write_matrix_csv,
)
from circulant_coloring.constructions import (
    canonical_complete_coloring,
    color_power_cycle_even,
    color_power_cycle_odd,
    color_thm32,
    color_thm34,
)
from circulant_coloring.errors import PreconditionFailed, VerificationFailed
from circulant_coloring.graphs import build_circulant
from circulant_coloring.verifiers import verify_nsd, verify_total_coloring


# Reference reader: it walks every cell of the n x n grid and ignores the
# header row and column.  On a text with the frame in place the sparse
# reader must return what it returns, or raise what it raises.


def reference_matrix(text: str):
    """(matrix, wildcards) of a colour-matrix CSV text."""
    rows = [r for r in csv.reader(text.splitlines()) if r]
    body = rows[1:]
    n = len(body)
    matrix = [[None] * n for _ in range(n)]
    wildcards = set()
    for u, row in enumerate(body):
        for v, cell in enumerate(row[1 : n + 1]):
            cell = cell.strip()
            if not cell:
                continue
            if cell == "*":
                wildcards.add((u, v))
            else:
                matrix[u][v] = int(cell)
    return matrix, wildcards


def from_matrix(matrix) -> TotalColoring:
    """Raises ValueError when the matrix is not symmetric: every filled
    cell must equal its mirror across the diagonal."""
    n = len(matrix)
    vertex_colors = tuple(matrix[u][u] for u in range(n))
    edge_colors = {}
    for u, row in enumerate(matrix):
        for v in range(u + 1, n):
            c = row[v]
            if c is not None:
                if matrix[v][u] != c:
                    raise _asymmetric(matrix, u, v)
                edge_colors[u, v] = c
    # every upper cell has its mirror, so a count above one filled lower
    # cell per edge means a lower cell whose mirror is blank
    filled = sum(len(row) - row.count(None) for row in matrix)
    if filled > n - vertex_colors.count(None) + 2 * len(edge_colors):
        raise _asymmetric(matrix, *next(
            (u, v) for u in range(n) for v in range(u)
            if matrix[u][v] is not None and matrix[v][u] is None))
    return TotalColoring.from_pairs(vertex_colors, edge_colors)


def _asymmetric(matrix, u, v) -> ValueError:
    return ValueError("cell (%d, %d) = %s differs from cell (%d, %d) = %s"
                      % (u, v, matrix[u][v], v, u, matrix[v][u]))


def reference_coloring(text: str) -> TotalColoring:
    """What reading a CSV coloring file did with the dense reader."""
    matrix, wildcards = reference_matrix(text)
    if wildcards:
        raise PreconditionFailed(
            "input matrix has wildcard cells; cannot verify: %s"
            % sorted(wildcards)[:5])
    return from_matrix(matrix)


def csv_text(tc) -> str:
    return "\n".join(matrix_csv_lines(tc))


def json_text(tc, report=None) -> str:
    return "".join(coloring_json_chunks(tc, report))


def matrix_text(matrix) -> str:
    """A dense matrix of ints and None as CSV text, with its frame."""
    n = len(matrix)
    lines = [",".join(["", *map(str, range(n))])]
    lines += [",".join([str(u)] + ["" if c is None else str(c) for c in row])
              for u, row in enumerate(matrix)]
    return "\n".join(lines)


def json_dict(tc) -> dict:
    """The document the JSON writer lays out, built as plain objects: the
    reference json.dumps output is compared against."""
    return {
        "n": tc.n,
        "vertex_colors": list(tc.vertex_colors),
        "edges": [{"u": u, "v": v, "c": c}
                  for (u, v), c in sorted(tc.edge_items())],
    }


def sample_coloring():
    # proper total coloring of C_4
    return TotalColoring.from_pairs(
        (1, 2, 1, 2),
        {(0, 1): 3, (1, 2): 4, (2, 3): 3, (0, 3): 4},
    )


class TestTotalColoring:
    def test_palette_vs_distinct_count(self):
        tc = TotalColoring.from_pairs((1, 5), {(0, 1): 3})
        assert tc.palette_size == 5
        colors = {*tc.vertex_colors, *(c for _, c in tc.edge_items())}
        assert len(colors) == 3

    def test_vertex_sum(self):
        # sums 8, 9, 8, 9 around the 4-cycle; with colour 5 on (0, 3)
        # they are 9, 9, 8, 10
        g = build_circulant(4, [1])
        tc = sample_coloring()
        assert verify_nsd(g, tc).nsd is True
        report = verify_nsd(g, tc.with_edge_colors({(0, 3): 5}))
        assert report.proper and report.nsd is False
        assert [v.witness for v in report.nsd_violations] == [(0, 1, 9)]

    def test_with_edge_colors_is_functional(self):
        tc = sample_coloring()
        out = tc.with_edge_colors({(0, 1): 9})
        assert out.edge_color(0, 1) == 9
        assert tc.edge_color(0, 1) == 3


class TestMatrix:
    def test_round_trip(self):
        tc = sample_coloring()
        assert from_matrix(to_matrix(tc)) == tc
        assert coloring_from_csv_text(csv_text(tc)) == tc

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
            coloring_from_csv_text(matrix_text(m))

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
                coloring_from_csv_text(matrix_text(m))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted is symmetric, m

    def test_header_layout(self):
        lines = list(matrix_csv_lines(sample_coloring()))
        assert lines[0] == ",0,1,2,3"
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[3] == ""  # blank non-edge cell
        assert [len(line.split(",")) for line in lines] == [5] * 5
        # the reader takes the frame the writer lays out, and no other
        assert coloring_from_csv_text("\n".join(lines)) == sample_coloring()
        with pytest.raises(ValueError, match="header row"):
            coloring_from_csv_text("\n".join([",1,2,3,4"] + lines[1:]))


class TestCsvParsing:
    def test_round_trip_text(self):
        tc = sample_coloring()
        matrix, wildcards = parse_matrix_csv_text(csv_text(tc))
        assert not wildcards
        assert from_matrix(matrix) == tc
        assert (matrix, wildcards) == reference_matrix(csv_text(tc))

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

    @pytest.mark.parametrize("cell", ["1", '"1"'])
    def test_comment_lines_skipped(self, cell):
        # lines that start with '#' are skipped wherever they stand, in
        # both tokenizers
        plain = ",0,1\n0,1,3\n1,3,2\n"
        text = ",0,1\n# note\n0,%s,3\n1,3,2\n# {\"colors_used\": 3}\n" % cell
        assert parse_matrix_csv_text(text) == parse_matrix_csv_text(plain)

    def test_quoted_comment_keeps_the_comma_split(self):
        # quotes in a comment line, as in color's report line, do not send
        # the text to csv.reader
        text = ",0,1\n0,1,3\n1,3,2\n# {\"colors_used\": 3}\n"
        with mock.patch.object(csv, "reader", side_effect=AssertionError):
            assert parse_matrix_csv_text(text)[0] == [[1, 3], [3, 2]]


class TestCsvFrame:
    """The header row must be ,0,1,...,n-1, row u must be labelled u, and
    no filled cell may lie past column n-1."""

    GOOD = ",0,1,2\n0,1,3,2\n1,3,2,1\n2,2,1,3\n"

    def test_good_frame(self):
        tc = coloring_from_csv_text(self.GOOD)
        assert tc.vertex_colors == (1, 2, 3)
        assert dict(tc.edge_items()) == {(0, 1): 3, (0, 2): 2, (1, 2): 1}
        # frame cells are stripped as colour cells are
        padded = ', 0,1 ,"2"\n 0,1,3,2\n1 ,3,2,1\n"2",2,1,3\n'
        assert coloring_from_csv_text(padded) == tc

    @pytest.mark.parametrize("text,message", [
        # a filled cell past the last column is not dropped
        (",0,1,2\n0,1,3,2,7\n1,3,2,1\n2,2,1,3\n",
         r"row 0 has a cell past column 2"),
        (",5,6,7\n9,1,3,2\n8,3,2,1\n7,2,1,3\n", "header row"),
        (",0,1,2\n0,1,3,2\n2,3,2,1\n1,2,1,3\n", "row labels"),
        (",0,1\n0,1,3\n1,3,2\n2,,\n", "row labels"),  # a row too many
        (",0,1,2\n0,1,3,2\n1,3,2,1\n", "row labels"),  # a row too few
        (",0,1,2,3\n0,1,3,2\n1,3,2,1\n2,2,1,3\n", "row labels"),
        ("", "header row"),
    ])
    def test_bad_frame(self, text, message):
        with pytest.raises(ValueError, match=message):
            coloring_from_csv_text(text)
        with pytest.raises(ValueError, match=message):
            parse_matrix_csv_text(text)

    @pytest.mark.parametrize("lines", [
        [",0,1,2", "x,1,2,3", "1,2,2,y", "2,3,1,3"],  # a later text cell
        [",0,1", "0,1,3", "1,3,2", "2,,"],  # a row too many
    ])
    def test_row_label_checked_as_its_row_is_read(self, lines):
        # the first fault in file order: no line past the labelled row is
        # read
        def read():
            yield from lines
            raise AssertionError("read past the bad row")
        with pytest.raises(ValueError, match="row labels"):
            _filled_cells(read())

    def test_short_rows_end_in_blanks(self):
        text = ",0,1,2\n0,1,3\n1,3,2,1\n2,,1,3\n"
        tc = coloring_from_csv_text(text + "\n\n")
        assert dict(tc.edge_items()) == {(0, 1): 3, (1, 2): 1}
        assert tc == reference_coloring(text)

    def test_blank_cells_past_the_last_column(self):
        text = ",0,1,2\n0,1,3,2, ,\n1,3,2,1\n2,2,1,3,\n"
        assert coloring_from_csv_text(text) == reference_coloring(text)

    def test_shipped_tables_have_the_frame(self):
        for tid in range(1, 7):
            path = (resources.files("circulant_coloring") / "golden"
                    / ("table%d.csv" % tid))
            text = path.read_text()
            assert parse_matrix_csv_text(text) == reference_matrix(text)


class TestFiles:
    def test_csv_round_trip(self, tmp_path):
        tc = sample_coloring()
        path = tmp_path / "c.csv"
        write_matrix_csv(tc, path)
        matrix, wildcards = read_matrix_csv(path)
        assert not wildcards
        assert from_matrix(matrix) == tc
        assert read_matrix_csv(path, coloring_from_csv_text) == tc

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
        d = json.loads(json_text(sample_coloring()))
        assert d["n"] == 4
        assert {"u": 0, "v": 1, "c": 3} in d["edges"]

    def test_round_trip(self):
        tc = sample_coloring()
        assert coloring_from_json_dict(
            json.loads(json_text(tc))) == tc


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

    # export writes a colouring without verifying it, so any int colour
    # may reach the writer; C_6(1, 3) has the involution 3
    C6 = build_circulant(6, [1, 3])
    ODD = TotalColoring.from_pairs((0, -7, 10**12, 5, 0, 1), dict(zip(
        C6.edges, [10**12, 0, -7, 3, 10**12 + 1, -7, 0, 2, 10**12])))

    @pytest.mark.parametrize("report", [None, REPORT, {}])
    def test_json_text_is_json_dumps(self, report):
        for tc in (sample_coloring(), TotalColoring.from_pairs((1, 2), {}),
                   TotalColoring.from_pairs((), {}), self.ODD):
            doc = json_dict(tc)
            if report is not None:
                doc["report"] = report
            assert json_text(tc, report) == json.dumps(
                doc, indent=1, sort_keys=True)

    def test_json_file_is_json_dump(self, tmp_path):
        tc = color_power_cycle_odd(21, 6, 1).coloring
        write_coloring_json(tc, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == json.dumps(
            json_dict(tc), indent=1, sort_keys=True) + "\n"

    def test_csv_file_is_matrix_csv(self, tmp_path):
        for tc in (sample_coloring(), color_power_cycle_odd(21, 6, 1).coloring,
                   TotalColoring.from_pairs((1, 2, 3), {}),
                   TotalColoring.from_pairs((), {})):
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
        path = tmp_path / "t.csv"
        assert read_matrix_csv(path, coloring_from_csv_text) == tc
        write_coloring_json(tc, tmp_path / "t.json")
        assert read_coloring_json(tmp_path / "t.json") == tc


@given(st.integers(4, 10), st.randoms(use_true_random=True))
@settings(max_examples=40, deadline=None)
def test_random_colorings_round_trip(n, rnd):
    g = build_circulant(n, [1, 2])
    vc = tuple(rnd.randint(1, 9) for _ in range(n))
    ec = {e: rnd.randint(1, 9) for e in g.edges}
    tc = TotalColoring.from_pairs(vc, ec)
    assert from_matrix(to_matrix(tc)) == tc
    text = csv_text(tc)
    matrix, _ = parse_matrix_csv_text(text)
    assert from_matrix(matrix) == tc
    assert coloring_from_csv_text(text) == tc
    assert coloring_from_json_dict(json.loads(json_text(tc))) == tc
    with_report = json_dict(tc)
    with_report["report"] = {"n": n}
    assert json_text(tc, {"n": n}) == json.dumps(
        with_report, indent=1, sort_keys=True)


# The dict-based writers the column layout replaced, kept as the reference:
# a colouring as its vertex colours and a dict (u, v) -> colour, u < v.
# The one change: an uncoloured vertex (None) is a blank cell, as the
# readers read it, where the old CSV writer wrote "None".


def reference_csv_lines(vertex_colors, edge_colors):
    n = len(vertex_colors)
    rows = [[(u, c)] if c is not None else []
            for u, c in enumerate(vertex_colors)]
    for (u, v), c in edge_colors.items():
        rows[u].append((v, c))
        rows[v].append((u, c))
    yield ",".join(["", *map(str, range(n))]) or '""'
    for u, cells in enumerate(rows):
        cells.sort()
        last = [-1] + [v for v, _ in cells]  # the previous filled column
        line = ["," * (v - w) + str(c) for (v, c), w in zip(cells, last)]
        yield "".join([str(u), *line, "," * (n - 1 - last[-1])])


def reference_json_text(vertex_colors, edge_colors, report=None):
    rest = {"n": len(vertex_colors), "vertex_colors": list(vertex_colors)}
    if report is not None:
        rest["report"] = report
    head = '{\n "edges": [],'
    if edge_colors:
        keys = sorted(edge_colors)
        us, vs = zip(*keys)
        ends, colours = {*us, *vs}, set(edge_colors.values())
        opening, with_u, with_v, next_edge, closing = _EDGE_JSON
        parts = [None] * (3 * len(keys))
        parts[0::3] = map(dict(zip(colours, map("%d".__mod__, colours))).get,
                          map(edge_colors.__getitem__, keys))
        parts[1::3] = map(dict(zip(ends, map(with_u.__mod__, ends))).get, us)
        parts[2::3] = map(dict(zip(ends, map(with_v.__mod__, ends))).get, vs)
        head = opening + "".join(parts)[:-len(next_edge)] + closing
    return head + json.dumps(rest, indent=1, sort_keys=True)[1:]


def reference_check(g, vertex_colors, edge_colors):
    """The message of the VerificationFailed the dict-based verifier
    raised before looking for clashes, or None."""
    if len(vertex_colors) != g.n:
        return "coloring covers %d vertices, graph has %d" % (
            len(vertex_colors), g.n)
    missing = [e for e in g.edges if e not in edge_colors]
    if missing:
        return "uncolored edges: %s" % (missing[:5],)
    for u, c in enumerate(vertex_colors):
        if c is None or c < 1:
            return "vertex %d has no valid color" % u
    low = [e for e, c in sorted(edge_colors.items()) if c < 1]
    if low:
        return "edge (%d, %d) has no valid color" % low[0]
    extra = sorted(set(edge_colors).difference(g.edges))
    if extra:
        return "non-edge (%d, %d) has a color" % extra[0]
    return None


@st.composite
def sparse_colorings(draw):
    """(vertex colors, {(u, v): color}, distances) on Z_n, n in 1..40:
    every pair at a few drawn distances (n/2 included) less random holes,
    plus pairs at any distance; colours from a small palette or with 0,
    negatives and 10**12, and vertices left uncoloured now and then."""
    n = draw(st.integers(1, 40))
    colour = draw(st.sampled_from([range(1, 7), [0, -3, 1, 2, 10**12]]))
    vertex = draw(st.sampled_from([colour, range(1, 7), [*colour, None]]))
    rnd = draw(st.randoms(use_true_random=True))
    vertex_colors = tuple(rnd.choices(vertex, k=n))
    pairs, distances = {}, []
    if n > 1:
        hole = draw(st.sampled_from([0, 0, 0.05, 0.5]))
        distances = sorted(draw(st.sets(st.integers(1, n // 2),
                                        min_size=1, max_size=4)))
        for d in distances:
            for u in range(n // 2 if 2 * d == n else n):
                if rnd.random() >= hole:
                    pairs[min(u, (u + d) % n), max(u, (u + d) % n)] = (
                        rnd.choice(colour))
        for _ in range(draw(st.integers(0, 3))):
            u, v = sorted(rnd.sample(range(n), 2))
            pairs[u, v] = rnd.choice(colour)
    return vertex_colors, pairs, distances


class TestColumnLayout:
    """Writers, readers and the verifier's first checks on the column
    layout, against the dict-based code it replaced."""

    @given(sparse_colorings(), st.sampled_from([None, {}, {"a": [1, "x"]}]))
    @settings(max_examples=300, deadline=None)
    def test_writers_match_reference(self, case, report):
        vertex_colors, pairs, _ = case
        tc = TotalColoring.from_pairs(vertex_colors, pairs)
        assert list(matrix_csv_lines(tc)) == list(
            reference_csv_lines(vertex_colors, pairs))
        assert json_text(tc, report) == reference_json_text(
            vertex_colors, pairs, report)

    # Dense colourings: every distance, so the rows near the wrap hold many
    # wrapped pairs, and the rows near the end lose their longest ones.

    @staticmethod
    def assert_writers_match(tc, pairs=None):
        """Against pairs, or the pairs edge_color reads one at a time."""
        n = tc.n
        if pairs is None:
            pairs = {(u, v): tc.edge_color(u, v)
                     for u in range(n) for v in range(u + 1, n)
                     if tc.edge_color(u, v) is not None}
        assert list(tc.edge_items()) == sorted(pairs.items())
        assert json_text(tc) == reference_json_text(
            tc.vertex_colors, pairs)
        lines = list(matrix_csv_lines(tc))
        assert lines == list(reference_csv_lines(tc.vertex_colors, pairs))
        assert coloring_from_csv_text("\n".join(lines)) == tc

    def test_dense_canonical(self):
        for m in range(3, 42):
            self.assert_writers_match(canonical_complete_coloring(m).coloring)

    def test_dense_theorem_outputs(self):
        self.assert_writers_match(color_thm32(
            build_circulant(24, [1, 3, 4, 5, 10])).coloring)
        s1 = build_circulant(18, [1, 2, 4, 6])
        for report in color_thm34(build_circulant(18, [1, 2, 4, 6, 7, 8]), s1):
            self.assert_writers_match(report.coloring)

    def test_dense_random(self):
        # every distance, with and without holes, and the largest alone
        # (the involution at even n, so n = 2 is its only pair)
        rng = random.Random(7)
        for n in range(1, 41):
            every = range(1, n // 2 + 1)
            for distances, hole in ((every, 0), (every, 0.3),
                                    (every[-1:], 0.3)):
                pairs = {}
                for d in distances:
                    for u in range(n // 2 if 2 * d == n else n):
                        if rng.random() >= hole:
                            pairs[min(u, (u + d) % n), max(u, (u + d) % n)] = (
                                rng.randint(1, 6))
                vertex_colors = [rng.choice([None, 1, 2]) for _ in range(n)]
                self.assert_writers_match(
                    TotalColoring.from_pairs(vertex_colors, pairs), pairs)

    @given(sparse_colorings())
    @settings(max_examples=300, deadline=None)
    def test_readers_give_back_the_coloring(self, case):
        vertex_colors, pairs, _ = case
        tc = TotalColoring.from_pairs(vertex_colors, pairs)
        assert list(tc.edge_items()) == sorted(pairs.items())
        n = len(vertex_colors)
        assert all(tc.edge_color(u, v) == pairs.get((u, v))
                   for u in range(n) for v in range(u + 1, n))
        assert coloring_from_csv_text(csv_text(tc)) == tc
        assert coloring_from_json_dict(
            json.loads(json_text(tc))) == tc

    @given(sparse_colorings(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_verifier_witnesses(self, case, data):
        vertex_colors, pairs, distances = case
        n = len(vertex_colors)
        if n < 3:
            return
        # the drawn distances, fewer (their pairs are colored non-edges)
        # or more (their edges are uncoloured)
        gens = data.draw(st.sampled_from([
            distances, distances[:1], distances[1:], distances + [1]]))
        g = build_circulant(n, set(gens) or {n // 2})
        tc = TotalColoring.from_pairs(vertex_colors, pairs)
        try:
            verify_total_coloring(g, tc)
            message = None
        except VerificationFailed as exc:
            message = str(exc)
        assert message == reference_check(g, vertex_colors, pairs)


def dense_pairs(n):
    """Every pair of Z_n, coloured by its endpoints."""
    return {(u, v): u * v % 4 + 1 for u in range(n) for v in range(u + 1, n)}


class TestBlocks:
    """The writers and edge_items with blocks of 1, 2, 3 and n + 1 rows:
    the JSON against the reference, the CSV and the pairs against their
    output at the default block size."""

    @staticmethod
    def assert_blocks_agree(vertex_colors, pairs, report=None):
        tc = TotalColoring.from_pairs(vertex_colors, pairs)
        lines, items = list(matrix_csv_lines(tc)), list(tc.edge_items())
        for size in (1, 2, 3, tc.n + 1):
            with mock.patch.object(coloring, "_BLOCK_ROWS", size):
                assert json_text(tc, report) == reference_json_text(
                    vertex_colors, pairs, report)
                assert list(matrix_csv_lines(tc)) == lines
                assert list(tc.edge_items()) == items

    @given(sparse_colorings(), st.sampled_from([None, {}, {"a": [1, "x"]}]))
    @settings(max_examples=200, deadline=None)
    def test_sparse(self, case, report):
        vertex_colors, pairs, _ = case
        self.assert_blocks_agree(vertex_colors, pairs, report)

    @pytest.mark.parametrize("vertex_colors,pairs", [
        # blocks with no coloured pair between the first edge and the last
        ((1,) * 30, {(0, 29): 1, (2, 3): 2, (20, 21): 1}),
        ((1,) * 12, {(10, 11): 3}),
        # involution columns, with the largest distance below it and alone
        ((2,) * 10, {**{(u, u + 5): u + 1 for u in range(5)}, (3, 4): 1}),
        ((1, 2) * 4, {(u, u + 4): 7 for u in (0, 2, 3)}),
        # dense, n < 3 lo: the middle run is shorter than lo
        *((((None, 1, 2) * 3)[:n], dense_pairs(n)) for n in (5, 7, 8)),
        ((), {}), ((1,), {}), ((1, 2), {(0, 1): 3}),
        ((1, None, 2, 3), {}),  # no edges
    ])
    def test_edge_cases(self, vertex_colors, pairs):
        self.assert_blocks_agree(vertex_colors, pairs)
        self.assert_blocks_agree(vertex_colors, pairs, {"n": 0})


# The JSON reader parses a file in the writer's layout one block of edges at
# a time.  Reference: the reader as it was, the whole document through
# json.load.  On any file the block reader must return what it returns, or
# raise what it raises.


def reference_read(path):
    with coloring._opened(path, malformed=(KeyError, TypeError, ValueError),
                          encoding="utf-8-sig") as fh:
        return coloring_from_json_dict(json.load(fh))


def read_outcome(read, path):
    try:
        return read(path)
    except PreconditionFailed as exc:
        return str(exc)


def written(directory, text: str):
    path = directory / "c.json"
    path.write_bytes(text.encode("utf-8"))
    return path


def layout(doc) -> str:
    """doc as the writer lays a document out."""
    return json.dumps(doc, indent=1, sort_keys=True)


def edited(edit):
    """layout of a document after edit(its edges, it)."""
    return lambda doc: (edit(doc["edges"], doc), layout(doc))[1]


@st.composite
def circulant_documents(draw):
    """Writer output of random colourings of C_n(distances), n in 3..30,
    with and without a report."""
    n = draw(st.integers(3, 30))
    g = build_circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1,
                                        max_size=4)))
    colour = draw(st.sampled_from([range(1, 8), [0, -7, 10**12]]))
    rnd = draw(st.randoms(use_true_random=True))
    tc = TotalColoring.from_pairs(
        rnd.choices([*colour, None], k=n),
        {e: rnd.choice(colour) for e in g.edges})
    report = draw(st.sampled_from([None, {}, TestWriters.REPORT,
                                   {"edges": [{"u": 0}], "x": "\n ],"}]))
    return json_text(tc, report) + "\n"


def through_a_pipe(read, path):
    """read_outcome of read on a named pipe fed the bytes of path, with the
    pipe's name in a message made path's: a pipe cannot be sought."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    pipe = path.with_name("piped-" + path.name)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes,
                              args=(path.read_bytes(),), daemon=True)
    writer.start()
    got = read_outcome(read, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    pipe.unlink()
    return got.replace(str(pipe), str(path)) if isinstance(got, str) else got


# edge (1, 2) of TestBlockReader.TC, its seventh, made to hold objects and
# an array's close laid out at the indent of the edges, so that a boundary
# or a close the reader looks for can fall inside the edge
NESTED = ('"u": 1,\n   "v": 2\n',
          '"u": 1,\n   "v": 2,\n   "x": [\n  {},\n  {}\n ],\n   "y": 0\n')


class TestBlockReader:
    @staticmethod
    def assert_read_in_blocks(directory, text):
        """Every edge a block of its own, and no whole-document parse."""
        path = written(directory, text)
        doc = json.loads(text)
        expected = coloring_from_json_dict(doc)
        with mock.patch.object(coloring, "_BLOCK_CHARS", 1), \
                mock.patch.object(coloring, "coloring_from_json_dict",
                                  side_effect=AssertionError("read whole")), \
                mock.patch.object(json, "loads", wraps=json.loads) as loads:
            assert read_coloring_json(path) == expected
        assert loads.call_count == len(doc["edges"]) + 1  # and the rest

    @given(circulant_documents())
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_document(self, tmp_path_factory, text):
        self.assert_read_in_blocks(tmp_path_factory.mktemp("json"), text)

    @pytest.mark.parametrize("tc", [
        TestWriters.ODD, TotalColoring.from_pairs((), {}),
        TotalColoring.from_pairs((1,), {}), TotalColoring.from_pairs((None,), {}),
    ], ids=["odd-colours", "n0", "n1", "n1-uncoloured"])
    @pytest.mark.parametrize("report", [None, TestWriters.REPORT])
    def test_edge_cases(self, tmp_path, tc, report):
        text = json_text(tc, report) + "\n"
        if tc.columns:
            self.assert_read_in_blocks(tmp_path, text)
        else:  # "edges": [] holds nothing to read in blocks: read whole
            assert read_coloring_json(written(tmp_path, text)) == tc

    # Documents in the writer's layout, from C_12(1, 2, 3) with one fault
    # each: the expected error of the reader as it was, or None if it reads.
    TC = TotalColoring.from_pairs([1] * 12, dict.fromkeys(
        build_circulant(12, [1, 2, 3]).edges, 2))

    @pytest.mark.parametrize("make,error", [
        (lambda doc: layout(doc)[:700], "JSONDecodeError: Expecting"),
        (edited(lambda e, doc: (e[1].pop("v"), e[-2].pop("u"))),
         "KeyError: 'u'"),
        (edited(lambda e, doc: (e[0].update(c=2.0), e[-1].update(u=True))),
         "TypeError: colours and endpoints must be integers, not bool, float"),
        (edited(lambda e, doc: e.insert(5, e[4])),
         "ValueError: edge (0, 10) listed twice"),
        (edited(lambda e, doc: doc.update(n=13)),
         'ValueError: "n" is 13, but vertex_colors holds 12'),
        (edited(lambda e, doc: (doc.pop("vertex_colors"), e[3].pop("u"))),
         "KeyError: 'vertex_colors'"),
        (lambda doc: layout(doc).replace(
            '\n "n"', '\n "edges": [{"u": 0}],\n "n"'), "KeyError: 'v'"),
        (lambda doc: layout(doc).replace(
            '\n "n"', '\n "\\u0065dges": [],\n "n"'), None),
        (lambda doc: layout(doc).split("\n ],")[0] + "\n ],\n}",
         "JSONDecodeError: Expecting"),
        (lambda doc: layout(doc) + "x", "JSONDecodeError: Extra data"),
        (lambda doc: "\ufeff" + layout(doc), None),
        (lambda doc: "\ufeff\ufeff" + layout(doc),
         "JSONDecodeError: Unexpected UTF-8 BOM"),
        (lambda doc: layout(doc).replace(*NESTED), None),
        (lambda doc: layout(doc).replace(*NESTED).replace(
            '\n "n"', '\n "edges": [],\n "n"'), None),
    ], ids=["truncated", "no-v-then-no-u", "float-and-bool", "repeat-at-cut",
            "n-mismatch", "no-vertex-colors", "edges-again",
            "escaped-edges-again", "trailing-comma", "extra-data", "bom",
            "two-boms", "nested-at-edge-indent", "nested-then-edges-again"])
    def test_faults_as_whole_document(self, tmp_path, capsys, make, error):
        text = make(json_dict(self.TC))
        assert text.lstrip("\ufeff").startswith('{\n "edges": [\n  {')
        path = written(tmp_path, text)
        with mock.patch.object(coloring, "_BLOCK_CHARS", 1):
            got = read_outcome(read_coloring_json, path)
        expected = read_outcome(reference_read, path)
        assert got == expected
        assert through_a_pipe(read_coloring_json, path) == got
        if error is None:
            assert isinstance(got, TotalColoring)
        else:
            assert ("malformed coloring file %s: %s" % (path, error)
                    in expected)
        argv = ["verify", "--n", "12", "--gens", "1,2,3", "--in", str(path)]
        with mock.patch.object(coloring, "_BLOCK_CHARS", 1):
            status = cli.main(argv)
        err = capsys.readouterr().err
        with mock.patch.object(cli, "read_coloring_json", reference_read):
            assert (status, err) == (cli.main(argv), capsys.readouterr().err)
        assert (status == cli.EXIT_PRECONDITION) is (error is not None)

    @pytest.mark.parametrize("dump", [
        json.dumps, lambda doc: layout(doc) + "\n\udc80",
    ], ids=["compact", "not-utf8"])
    def test_not_in_layout_read_once(self, tmp_path, dump):
        path = tmp_path / "c.json"
        path.write_bytes(dump(json_dict(self.TC)).encode(
            "utf-8", "surrogateescape"))
        got = read_outcome(read_coloring_json, path)
        assert got == read_outcome(reference_read, path)
        assert through_a_pipe(read_coloring_json, path) == got

    def test_peak_below_half_of_whole_document(self, tmp_path):
        path = tmp_path / "big.json"
        write_coloring_json(color_power_cycle_even(4200, 10, 11).coloring, path)

        def peak(read):
            tracemalloc.start()
            try:
                read(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak(reference_read)
        with mock.patch.object(coloring, "coloring_from_json_dict",
                               side_effect=AssertionError("read whole")):
            assert peak(read_coloring_json) < whole / 2


@st.composite
def matrix_texts(draw, quoted=True):
    """Colour-matrix CSV texts with the frame in place: blank, padded and
    (when ``quoted``) quoted cells, '*', 0 and negative colours, text
    cells, asymmetric cells, short rows and blank lines."""
    n = draw(st.integers(1, 5))
    rnd = draw(st.randoms(use_true_random=True))
    grid = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(u, n):
            grid[u][v] = grid[v][u] = rnd.choice([None, rnd.randint(-2, 6)])
    for _ in range(draw(st.integers(0, 2))):
        grid[rnd.randrange(n)][rnd.randrange(n)] = rnd.choice(
            [None, rnd.randint(-2, 6), "*", "x", "3 4"])
    pad = ["", "", " ", "\t"]
    lines = [",".join(["", *map(str, range(n))])]
    for u, row in enumerate(grid):
        cells = []
        for c in row:
            text = (rnd.choice(pad) + ("" if c is None else str(c))
                    + rnd.choice(pad))
            quote = quoted and rnd.random() < 0.5
            cells.append('"%s"' % text if quote else text)
        if rnd.random() < 0.5:  # a short row
            cells = cells[:rnd.randint(0, n)]
        lines.append(",".join([str(u)] + cells))
        lines += [""] * rnd.randint(0, 1)
    return "\n".join(lines)


def outcome(read, text):
    try:
        return read(text)
    except (ValueError, PreconditionFailed, csv.Error) as exc:
        return type(exc), str(exc)


@given(matrix_texts())
@settings(max_examples=300, deadline=None)
def test_sparse_reader_matches_dense_reference(text):
    assert (outcome(coloring_from_csv_text, text)
            == outcome(reference_coloring, text))
    assert outcome(parse_matrix_csv_text, text) == outcome(reference_matrix,
                                                           text)


# Reference tokenizer: the reader as it was before comma runs, with
# csv.reader making one string per cell of every line.  On any text the
# reader must return what it returns, or raise what it raises.


def reference_filled_cells(text: str):
    lines = filter(None, csv.reader(text.splitlines()))
    header = [cell.strip() for cell in next(lines, ["?"])]
    n = len(header) - 1
    if header != ["", *map(str, range(n))]:
        raise ValueError("header row is not ,0,1,...,n-1")
    rows, wildcards = [], set()
    for u, line in enumerate(lines):
        if u >= n or line[0].strip() != header[u + 1]:
            raise ValueError("row labels are not 0,1,...,n-1")
        if any(map(str.strip, line[n + 1:])):
            raise ValueError("row %d has a cell past column %d" % (u, n - 1))
        line = line[1:n + 1]
        cols = list(compress(range(n), line))
        cells = list(map(str.strip, map(line.__getitem__, cols)))
        if "*" in cells or "" in cells:  # a wildcard or whitespace cell
            wildcards.update((u, v) for v, c in zip(cols, cells) if c == "*")
            keep = [c not in ("", "*") for c in cells]
            cols, cells = [*compress(cols, keep)], [*compress(cells, keep)]
        rows.append((cols, list(map(int, cells))))
    if len(rows) != n:
        raise ValueError("row labels are not 0,1,...,n-1")
    return n, rows, wildcards


def rarely(k):
    """True in one draw of k."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def plain_texts(draw):
    """Quote-free texts, which the reader splits on comma runs: those of
    matrix_texts, then cells past the last column, a trailing header
    comma, blank or padded labels, lines of commas only, CRLF ends."""
    lines = draw(matrix_texts(quoted=False)).split("\n")
    rows = st.integers(1, len(lines) - 1)
    cell = st.sampled_from(["", " ", "*", "4", "x"])
    for i in draw(st.lists(rows, max_size=2)):
        lines[i] += "," * draw(st.integers(1, 3)) + draw(cell)
    if draw(rarely(10)):
        lines[0] += ","
    if draw(rarely(5)):
        i = draw(rows)
        head, _, tail = lines[i].partition(",")
        lines[i] = draw(st.sampled_from(["", " ", " " + head])) + "," + tail
    if draw(rarely(5)):
        lines.insert(draw(rows), "," * draw(st.integers(1, 3)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@given(plain_texts())
@settings(max_examples=300, deadline=None)
def test_comma_runs_match_csv_reader(text):
    assert '"' not in text
    assert (outcome(_filled_cells, text)
            == outcome(reference_filled_cells, text))


LIMIT = csv.field_size_limit()
ROWS = "0,1,3\n1,3,2\n"


COMMA_RUN_CASES = [
    # a blank header field still counts toward n
    pytest.param(",0,1,\n" + ROWS, id="header-trailing-comma"),
    pytest.param(",0,1,,\n" + ROWS, id="header-trailing-commas"),
    pytest.param(",0,1\n0,1,3,,5\n1,3,2\n", id="filled-past-last-column"),
    pytest.param(",0,1\n0,1,3,, ,\n1,3,2,,,\n", id="blank-past-last-column"),
    pytest.param(",0,1\n0, ,*\n1,*,2\n", id="whitespace-and-wildcards"),
    pytest.param(",0,1\n0,1,3\n,,\n1,3,2\n", id="commas-only-line"),
    pytest.param(",0,1\n" + ROWS + ",,,\n", id="commas-only-last-line"),
    pytest.param(",0,1\n,1,3\n1,3,2\n", id="empty-label"),
    pytest.param(" ,0 , 1\n 0 ,1,3\n1 ,3,2\n", id="padded-frame"),
    pytest.param(",0,1\r\n\r\n0,1,3\r\n1,3,2\r\n\r\n",
                 id="crlf-blank-lines"),
    pytest.param(",0,1\n0,1,3\x00\n1,3,2\n", id="nul-in-cell"),
    pytest.param(",0,1\n0\x00,1,3\n1,3,2\n", id="nul-in-label"),
    # a field of the size limit is read; one longer raises csv.Error,
    # but only when its line is reached
    pytest.param(",0,1\n0,1," + " " * (LIMIT - 1) + "3\n1,3,2\n",
                 id="field-at-limit"),
    pytest.param(",0,1\n0,1," + " " * LIMIT + "3\n1,3,2\n",
                 id="field-over-limit"),
    pytest.param(",0,1\n0,1,x\n1,3," + " " * LIMIT + "2\n",
                 id="text-cell-then-field-over-limit"),
    pytest.param(",0,1\n0,1," + " " * LIMIT + "3\n1,3,x\n",
                 id="field-over-limit-then-text-cell"),
    pytest.param("," + " " * LIMIT + "0,1\n" + ROWS,
                 id="header-field-over-limit"),
    pytest.param(" " * LIMIT + ",0,1\n" + ROWS,
                 id="header-label-over-limit"),
    pytest.param(",0,1\n0,1,3\n" + "1" * (LIMIT + 1) + ",3,2\n",
                 id="label-over-limit"),
    pytest.param(',0,1\n0,1,"3\n"\n1,3,2\n', id="quoted-field-two-lines"),
    pytest.param(',0,1\n0,1,"3,4"\n1,3,2\n', id="quoted-comma"),
    pytest.param("", id="empty"),
    pytest.param("\n\n", id="blank-lines-only"),
    pytest.param(",", id="header-only"),
    pytest.param("0", id="label-only"),
    pytest.param(",0\n0", id="row-without-cells"),
]


@pytest.mark.parametrize("text", COMMA_RUN_CASES)
def test_comma_run_edge_cases(text):
    assert (outcome(_filled_cells, text)
            == outcome(reference_filled_cells, text))


@pytest.mark.parametrize("text,uses_csv", [
    pytest.param(",0,1\n" + ROWS, False, id="plain"),
    pytest.param(',0,1\n0,1,"3"\n1,3,2\n', True, id="quote"),
    pytest.param(",0,1\n0,1,3\x00\n1,3,2\n", True, id="nul"),
    pytest.param(',0,1\n# "a"\n' + ROWS, False, id="quote-in-comment"),
    pytest.param(',0,1\n0,1,3\n1,3,"2"\n', True, id="quote-after-plain"),
])
def test_csv_reader_only_for_quotes_and_nul(text, uses_csv, monkeypatch):
    # csv rejects NUL before Python 3.11 and accepts it from 3.11 on, so
    # a NUL text goes through csv.reader whichever runs
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader",
                        lambda lines: calls.append(1) or reader(lines))
    outcome(_filled_cells, text)
    assert bool(calls) is uses_csv


# The CSV reader takes a file one line at a time.  Reference: the reader as
# it was, the whole text of the file through the whole-text references.  On
# any UTF-8 file it must return what they return, or raise what they raise;
# a file that is not UTF-8 is read once, and its first fault in file order
# is the one raised (test_not_utf8_past_the_first_read).


def reference_csv_read(path, parse):
    with coloring._opened(path, malformed=(ValueError, csv.Error),
                          encoding="utf-8-sig") as fh:
        return parse(fh.read())


def assert_reads_as_its_text(directory, text, framed=False):
    """The cells of a file holding text, and when its frame is in place
    (``framed``) its matrix and colouring, as the references give them."""
    path = directory / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    pairs = [(_filled_cells, reference_filled_cells)]
    if framed:
        pairs += [(coloring_from_csv_text, reference_coloring),
                  (parse_matrix_csv_text, reference_matrix)]
    for parse, reference in pairs:
        assert (read_outcome(lambda p: read_matrix_csv(p, parse), path)
                == read_outcome(lambda p: reference_csv_read(p, reference),
                                path))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(matrix_texts())
@settings(max_examples=300, deadline=None)
def test_matrix_files_read_as_their_text(csv_dir, text):
    assert_reads_as_its_text(csv_dir, text, framed=True)


@given(plain_texts())
@settings(max_examples=300, deadline=None)
def test_plain_files_read_as_their_text(csv_dir, text):
    assert_reads_as_its_text(csv_dir, text)


SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PLAIN = ",0,1,2\n0,1,3,2\n1,3,2,1\n"  # plain lines before row 2


def across_a_read(end):
    """Line end ``end`` from the 8,191st byte on, where a file read in
    pieces of 8 KiB is cut."""
    return ",0,1\r\n0,1," + " " * 8180 + "3" + end + "1,3,2" + end


@pytest.mark.parametrize("text", COMMA_RUN_CASES + [
    *(pytest.param(sep.join([",0,1", "0,1,3", "1,3,2", ""]),
                   id="separator-%x" % ord(sep)) for sep in SEPARATORS),
    *(pytest.param(',0,1\n0,1,"3%s"\n1,3,2\n' % sep,
                   id="quoted-separator-%x" % ord(sep)) for sep in SEPARATORS),
    pytest.param(",0,1\r0,1,3\r1,3,2\r", id="lone-cr"),
    pytest.param(",0,1\r\n0,1,3\r1,3,2\n", id="mixed-line-ends"),
    pytest.param(across_a_read("\r\n"), id="crlf-across-a-read"),
    pytest.param(across_a_read("\r"), id="cr-across-a-read"),
    pytest.param("\ufeff,0,1\n" + ROWS, id="bom"),
    pytest.param("\ufeff\ufeff,0,1\n" + ROWS, id="two-boms"),
    pytest.param(PLAIN + '2,2,"1",3\n', id="quote-after-plain-lines"),
    pytest.param(PLAIN + '2,2,"1\n",3\n', id="quoted-line-after-plain-lines"),
    pytest.param(PLAIN + "2,2,1\x00,3\n", id="nul-after-plain-lines"),
    pytest.param(PLAIN.replace("3", "x", 1) + '2,2,"1",3\n',
                 id="text-cell-then-quote"),
    pytest.param(PLAIN.replace("3", " " * LIMIT + "3", 1) + '2,2,"1",3\n',
                 id="field-over-limit-then-quote"),
    pytest.param(PLAIN + '2,2,"1",3\n0,1,"3",2\n', id="quote-then-bad-label"),
])
def test_file_reads_as_its_text(tmp_path, text):
    assert_reads_as_its_text(tmp_path, text)


def test_csv_peak_below_half_of_file(tmp_path):
    # C_2100^2: a whole read holds the 4.4 MB text and its lines, three
    # times the file; the streamed one holds a line and the filled cells
    path = tmp_path / "big.csv"
    write_matrix_csv(color_power_cycle_even(2100, 2, 1).coloring, path)
    tracemalloc.start()
    try:
        tc = read_matrix_csv(path, coloring_from_csv_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tc.n == 2100
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("name,text", [
    ("c.csv", ",0,1\n0,1,3\n1,3,2\n"),
    ("c.csv", ",0,1\n0,1,x\n1,3,2\n"),  # a malformed line before the byte
    ("c.json", layout(json_dict(TestBlockReader.TC))),
], ids=["csv", "csv-malformed-first", "json"])
def test_not_utf8_past_the_first_read(tmp_path, name, text):
    # both readers read once: the first fault in file order, a decode
    # error's position counted from the start of the read that holds the
    # byte, not of the file.  TextIOWrapper decodes whole 8 KiB chunks, for
    # the CSV's lines and for JSON reads of 8 KiB: the CSV's read is the
    # chunk that holds the byte; the JSON's is the rest of the file, read
    # at once after the array's close from the third chunk (the opening's
    # read decodes the first, the first block's read the second)
    path = tmp_path / name
    end = len(text) + 70000
    path.write_bytes(text.encode() + b"\n" * 70000 + b"\xff")
    read = (read_coloring_json if name.endswith(".json")
            else lambda p: read_matrix_csv(p, _filled_cells))
    with mock.patch.object(coloring, "_BLOCK_CHARS", 8192):
        got = read_outcome(read, path)
    if ",x" in text:
        assert got == ("malformed coloring file %s: ValueError: invalid "
                       "literal for int() with base 10: 'x'" % path)
        return
    decode = ("malformed coloring file %s: UnicodeDecodeError: 'utf-8' codec "
              "can't decode byte 0xff in position %d: invalid start byte")
    start = end - end % 8192 if name.endswith(".csv") else 8192 * 2
    assert got == decode % (path, end - start)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name,data", [
    ("c.json", json.dumps(json_dict(TestBlockReader.TC)).encode()),
    ("c.json", (layout(json_dict(TestBlockReader.TC)) + "\n").encode()),
    ("c.csv", b",0,1\n0,1,x\n1,3,2\n"),
    ("c.csv", b",0,1\n0,1,x\n1,3,2\n" + b"\n" * 10000 + b"\xff"),
    ("c.csv", b",0,1\n0,1,3\n1,3,2\n\xff"),
], ids=["json", "json-in-layout", "csv-malformed",
        "csv-malformed-then-not-utf8", "csv-not-utf8"])
def test_pipe_is_read_without_seeking(tmp_path, name, data):
    # a pipe cannot start over: either reader reads it once, as a file, so
    # the same bytes give the same outcome, and JSON in the writer's layout
    # is parsed in blocks, never whole
    path = tmp_path / name
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    if name.endswith(".json"):
        expected = coloring_from_json_dict(json.loads(data))
        with mock.patch.object(coloring, "coloring_from_json_dict",
                               wraps=coloring_from_json_dict) as whole:
            assert read_outcome(read_coloring_json, path) == expected
        assert whole.called is not data.startswith(b'{\n "edges"')
    else:
        got = read_outcome(read_matrix_csv, path)
        copy = tmp_path / "copy.csv"
        copy.write_bytes(data)
        assert got == read_outcome(read_matrix_csv, copy).replace(
            str(copy), str(path))
        assert got == "malformed coloring file %s: %s" % (path, (
            "ValueError: invalid literal for int() with base 10: 'x'"
            if b"x" in data else "UnicodeDecodeError: 'utf-8' codec can't "
            "decode byte 0xff in position 17: invalid start byte"))
    writer.join(timeout=10)
    assert not writer.is_alive()
