"""Total coloring values and the color-matrix / file representations.

A total coloring is a vertex color vector plus an edge color map.  The
color matrix view is the n x n symmetric array with vertex colors on the
diagonal and edge colors off it, mirroring the published tables; blank
cells are non-edges.  Reading or writing a coloring never holds that grid.
Files are read as UTF-8, a leading byte-order mark allowed; a CSV text is
split on comma runs unless a '"' or a NUL sends it to csv.reader.
"""

from __future__ import annotations

import csv
import json
import re
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, lt

from .errors import PreconditionFailed


@dataclass(frozen=True)
class TotalColoring:
    """Immutable coloring; colors are 1-based positive integers."""

    vertex_colors: tuple[int, ...]
    edge_colors: dict  # (u, v) with u < v -> int

    @property
    def n(self) -> int:
        return len(self.vertex_colors)

    @property
    def palette_size(self) -> int:
        cols = set(self.vertex_colors) | set(self.edge_colors.values())
        return max(cols) if cols else 0

    def with_edge_colors(self, updates: dict) -> "TotalColoring":
        merged = dict(self.edge_colors)
        merged.update(updates)
        return TotalColoring(self.vertex_colors, merged)


@dataclass
class BuildReport:
    """What a theorem builder produced and how."""

    coloring: TotalColoring
    colors_used: int
    bound_claimed: int
    fallback_used: bool = False
    notes: str = ""
    verification: object = None  # the VerificationReport that accepted it


def to_matrix(tc: TotalColoring) -> list[list]:
    """n x n array: diagonal = vertex colors, off-diagonal = edge colors,
    None = non-edge."""
    n = tc.n
    m = [[None] * n for _ in range(n)]
    for u in range(n):
        m[u][u] = tc.vertex_colors[u]
    for (u, v), c in tc.edge_colors.items():
        m[u][v] = c
        m[v][u] = c
    return m


def matrix_csv_lines(tc: TotalColoring):
    """CSV layout of the published tables, one line at a time: header
    row/column of vertex indices, blank cells for non-edges.  A line is its
    vertex's sorted filled cells, each after a run of commas for the gap."""
    n = tc.n
    rows = [[(u, c)] for u, c in enumerate(tc.vertex_colors)]
    for (u, v), c in tc.edge_colors.items():
        rows[u].append((v, c))
        rows[v].append((u, c))
    # csv quotes a lone empty field, so the header of n = 0 is ""
    yield ",".join(["", *map(str, range(n))]) or '""'
    for u, cells in enumerate(rows):
        cells.sort()
        last = [-1] + [v for v, _ in cells]  # the previous filled column
        line = ["," * (v - w) + str(c) for (v, c), w in zip(cells, last)]
        yield "".join([str(u), *line, "," * (n - 1 - last[-1])])


@contextmanager
def _opened(path, *mode, malformed=(), **kwargs):
    """open(path, ...), where an OSError is a PreconditionFailed and an
    exception of a class in ``malformed`` a malformed coloring file."""
    try:
        with open(path, *mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc
    except malformed as exc:
        raise PreconditionFailed("malformed coloring file %s: %s: %s"
                                 % (path, type(exc).__name__, exc)) from exc


def write_matrix_csv(tc: TotalColoring, path) -> None:
    with _opened(path, "w", newline="") as fh:
        fh.writelines(map("%s\r\n".__mod__, matrix_csv_lines(tc)))


_split_commas = re.compile(r"(,+)").split


def _csv_lines(text: str):
    """The non-blank lines of a CSV text: the first as its fields, each
    later one as (first field, columns, fields) of its other non-empty
    fields, columns counted from 0 (see _filled_cells)."""
    if '"' in text or "\0" in text:
        lines = filter(None, csv.reader(text.splitlines()))
        yield from islice(lines, 1)
        for label, *line in lines:
            yield label, [*compress(count(), line)], [*filter(None, line)]
        return
    limit = csv.field_size_limit()
    for i, line in enumerate(filter(None, text.splitlines())):
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise csv.Error("field larger than field limit (%d)" % limit)
        parts = _split_commas(line)  # field, comma run, field, ...
        if not parts[-1]:  # the line ends in a comma
            del parts[-2:]
        cols = [*accumulate(map(len, parts[1::2]), initial=-1)][1:]
        # blank header fields count toward n
        yield (parts[0], cols, parts[2::2]) if i else line.split(",")


def _filled_cells(text: str):
    """(n, rows, wildcards) of a colour-matrix CSV: rows[u] is the columns
    of row u's integer cells and their colours, wildcards the '*' cells.
    A text with no '"' and no NUL is split on comma runs, one regex call a
    line, so a blank cell costs nothing; csv.reader tokenizes any other,
    as a quoted field may hold commas or span lines and csv rejects NUL
    before Python 3.11.  Raises csv.Error, line by line as csv.reader
    does, on a field longer than csv.field_size_limit(), and ValueError
    on a non-integer cell or a frame other than header ,0,1,...,n-1, row
    labels 0..n-1 and no filled cell past column n-1."""
    lines = _csv_lines(text)
    header = [cell.strip() for cell in next(lines, ["?"])]
    n = len(header) - 1
    if header != ["", *map(str, range(n))]:
        raise ValueError("header row is not ,0,1,...,n-1")
    rows, labels, wildcards = [], [], set()
    for u, (label, cols, cells) in enumerate(lines):
        labels.append(label.strip())
        cells = list(map(str.strip, cells))
        k = bisect_left(cols, n)  # cols[k:] lie past column n-1
        if any(cells[k:]):
            raise ValueError("row %d has a cell past column %d" % (u, n - 1))
        del cols[k:], cells[k:]
        if "*" in cells or "" in cells:  # a wildcard or whitespace cell
            wildcards.update((u, v) for v, c in zip(cols, cells) if c == "*")
            keep = [c not in ("", "*") for c in cells]
            cols, cells = [*compress(cols, keep)], [*compress(cells, keep)]
        rows.append((cols, list(map(int, cells))))
    if labels != header[1:]:
        raise ValueError("row labels are not 0,1,...,n-1")
    return n, rows, wildcards


def parse_matrix_csv_text(text: str):
    """Returns (matrix, wildcards): matrix entries are int/None; cells
    marked '*' are wildcards (legible-in-principle but not trusted)."""
    n, rows, wildcards = _filled_cells(text)
    matrix = [[None] * n for _ in range(n)]
    for row, (cols, colours) in zip(matrix, rows):
        for v, c in zip(cols, colours):
            row[v] = c
    return matrix, wildcards


def coloring_from_csv_text(text: str) -> TotalColoring:
    """Raises PreconditionFailed on wildcard cells, and ValueError unless
    every filled cell equals its mirror across the diagonal."""
    n, rows, wildcards = _filled_cells(text)
    if wildcards:
        raise PreconditionFailed("input matrix has wildcard cells; cannot "
                                 "verify: %s" % sorted(wildcards)[:5])
    vertex_colors, upper = [], {}  # keyed by (min, max)
    symmetric, lower_cells = True, 0
    for u, (cols, colours) in enumerate(rows):
        i = bisect_left(cols, u)  # cols[:i] lie below the diagonal
        j = i + (cols[i:i + 1] == [u])  # cols[j:] above it
        vertex_colors.append(colours[i] if j > i else None)
        upper.update(zip(zip(repeat(u), cols[j:]), colours[j:]))
        # the mirrors of row u's lower cells lie in the rows read before
        symmetric = symmetric and list(map(
            upper.get, zip(cols[:i], repeat(u)))) == colours[:i]
        lower_cells += i
    if not symmetric or lower_cells != len(upper):
        # the first upper cell in row-major order whose mirror differs,
        # else the first lower cell whose mirror is blank
        lower = {(v, u): c for u, (cols, colours) in enumerate(rows)
                 for v, c in zip(cols, colours) if v < u}
        bad = ([(e, c, lower.get(e)) for e, c in upper.items()
                if lower.get(e) != c]
               or [((u, v), c, None) for (v, u), c in lower.items()
                   if (v, u) not in upper])
        (u, v), c, mirror = bad[0]
        raise ValueError("cell (%d, %d) = %s differs from cell (%d, %d) = %s"
                         % (u, v, c, v, u, mirror))
    return TotalColoring(tuple(vertex_colors), upper)


def read_matrix_csv(path, parse=parse_matrix_csv_text):
    """parse(text) of the file: the dense (matrix, wildcards) by default."""
    with _opened(path, malformed=(ValueError, csv.Error),
                 encoding="utf-8-sig") as fh:
        return parse(fh.read())


def coloring_from_json_dict(d: dict) -> TotalColoring:
    """Raises KeyError, TypeError or ValueError on a malformed document:
    a colour or endpoint that is not an int (bools included), an edge
    with u >= v, an edge listed twice, or an endpoint outside 0..n-1."""
    vertex_colors = tuple(d["vertex_colors"])
    us, vs, cs = (list(map(itemgetter(key), d["edges"])) for key in "uvc")
    kinds = set(map(type, chain(vertex_colors, cs, us, vs)))
    if not kinds <= {int}:
        raise TypeError("colours and endpoints must be integers, not %s"
                        % ", ".join(sorted(k.__name__ for k in kinds - {int})))
    if not all(map(lt, us, vs)):
        u, v = next((u, v) for u, v in zip(us, vs) if u >= v)
        raise ValueError("self-loop edge (%d, %d)" % (u, v) if u == v
                         else "edge endpoints must satisfy u < v")
    edge_colors = dict(zip(zip(us, vs), cs))
    if len(edge_colors) != len(cs):
        twice = Counter(zip(us, vs)).most_common(1)
        raise ValueError("edge %s listed twice" % (twice[0][0],))
    if us and (min(us) < 0 or max(vs) >= len(vertex_colors)):
        raise ValueError("edge endpoint %d outside 0..%d" % (
            min(us) if min(us) < 0 else max(vs), len(vertex_colors) - 1))
    return TotalColoring(vertex_colors, edge_colors)


# The "edges" list as json.dumps(indent=1, sort_keys=True) lays it out:
# its opening, the text after a colour (holding u), the text after u
# (holding v, then opening the next edge), the part of that opening the
# last edge drops, and the list's close.
_EDGE_JSON = ('{\n "edges": [\n  {\n   "c": ', ',\n   "u": %d,\n   "v": ',
              '%d\n  },\n  {\n   "c": ', ',\n  {\n   "c": ', '\n ],')


def coloring_json_text(tc: TotalColoring, report: dict | None = None) -> str:
    """The JSON document of tc: "n", "vertex_colors", the edges sorted
    as {"u", "v", "c"} objects, and ``report`` under "report" when given;
    laid out as json.dumps(indent=1, sort_keys=True) would, byte for byte,
    for int colours.

    The edge list is one str.join over three pieces of text per edge,
    each formatted once per distinct colour or endpoint; the rest goes
    through json.dumps.  "edges" sorts before every other key, so the
    edge list opens the document.
    """
    rest = {"n": tc.n, "vertex_colors": list(tc.vertex_colors)}
    if report is not None:
        rest["report"] = report
    head = '{\n "edges": [],'
    if tc.edge_colors:
        keys = sorted(tc.edge_colors)
        us, vs = zip(*keys)
        ends, colours = {*us, *vs}, set(tc.edge_colors.values())
        opening, with_u, with_v, next_edge, closing = _EDGE_JSON
        parts = [None] * (3 * len(keys))  # parts[3i:3i + 3] is edge i
        parts[0::3] = map(dict(zip(colours, map("%d".__mod__, colours))).get,
                          map(tc.edge_colors.__getitem__, keys))
        parts[1::3] = map(dict(zip(ends, map(with_u.__mod__, ends))).get, us)
        parts[2::3] = map(dict(zip(ends, map(with_v.__mod__, ends))).get, vs)
        head = opening + "".join(parts)[:-len(next_edge)] + closing
    return head + json.dumps(rest, indent=1, sort_keys=True)[1:]


def write_coloring_json(tc: TotalColoring, path) -> None:
    with _opened(path, "w") as fh:
        fh.write(coloring_json_text(tc))
        fh.write("\n")


def read_coloring_json(path) -> TotalColoring:
    with _opened(path, malformed=(KeyError, TypeError, ValueError),
                 encoding="utf-8-sig") as fh:
        return coloring_from_json_dict(json.load(fh))
