"""Total coloring values and the color-matrix / file representations.

A total coloring is a vertex color vector plus an edge color map.  The
color matrix view is the n x n symmetric array with vertex colors on the
diagonal and edge colors off it, mirroring the published tables; blank
cells are non-edges.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import PreconditionFailed
from .graphs import Edge, ordered_edge


@dataclass(frozen=True)
class TotalColoring:
    """Immutable coloring; colors are 1-based positive integers."""

    vertex_colors: tuple[int, ...]
    edge_colors: dict  # Edge -> int

    @property
    def n(self) -> int:
        return len(self.vertex_colors)

    @property
    def palette_size(self) -> int:
        cols = set(self.vertex_colors) | set(self.edge_colors.values())
        return max(cols) if cols else 0

    def colors_used(self) -> int:
        return len(set(self.vertex_colors) | set(self.edge_colors.values()))

    def edge_color(self, u: int, v: int) -> int:
        return self.edge_colors[Edge.of(u, v)]

    def with_edge_colors(self, updates: dict) -> "TotalColoring":
        merged = dict(self.edge_colors)
        merged.update(updates)
        return TotalColoring(self.vertex_colors, merged)

    def all_vertex_sums(self) -> list[int]:
        """Sigma_c(u) for every vertex u: its color plus the colors of its
        incident edges."""
        sums = list(self.vertex_colors)
        for (u, v), c in self.edge_colors.items():
            sums[u] += c
            sums[v] += c
        return sums


@dataclass
class BuildReport:
    """What a theorem builder produced and how."""

    coloring: TotalColoring
    colors_used: int
    bound_claimed: int
    fallback_used: bool = False
    notes: str = ""


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
                edge_colors[ordered_edge((u, v))] = c
    # every upper cell has its mirror, so a count above one filled lower
    # cell per edge means a lower cell whose mirror is blank
    filled = sum(len(row) - row.count(None) for row in matrix)
    if filled > n - vertex_colors.count(None) + 2 * len(edge_colors):
        raise _asymmetric(matrix, *next(
            (u, v) for u in range(n) for v in range(u)
            if matrix[u][v] is not None and matrix[v][u] is None))
    return TotalColoring(vertex_colors, edge_colors)


def _asymmetric(matrix, u, v) -> ValueError:
    return ValueError("cell (%d, %d) = %s differs from cell (%d, %d) = %s"
                     % (u, v, matrix[u][v], v, u, matrix[v][u]))


def matrix_csv_rows(tc: TotalColoring):
    """CSV layout of the published tables, one row at a time: header
    row/column of vertex indices, blank cells for non-edges.  Each row is
    filled from its vertex's incident edges, so no n x n grid is held."""
    n = tc.n
    incident = [[] for _ in range(n)]
    for (u, v), c in tc.edge_colors.items():
        incident[u].append((v, str(c)))
        incident[v].append((u, str(c)))
    yield [""] + [str(v) for v in range(n)]
    for u in range(n):
        row = [""] * n
        row[u] = str(tc.vertex_colors[u])
        for v, c in incident[u]:
            row[v] = c
        yield [str(u)] + row


def write_matrix_csv(tc: TotalColoring, path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(matrix_csv_rows(tc))
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc


def parse_matrix_csv_text(text: str):
    """Returns (matrix, wildcards): matrix entries are int/None; cells
    marked '*' are wildcards (legible-in-principle but not trusted)."""
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


def malformed_file(path, exc) -> PreconditionFailed:
    return PreconditionFailed("malformed coloring file %s: %s: %s"
                              % (path, type(exc).__name__, exc))


def read_matrix_csv(path):
    try:
        with open(path) as fh:
            return parse_matrix_csv_text(fh.read())
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc
    except (ValueError, csv.Error) as exc:
        raise malformed_file(path, exc) from exc


def coloring_from_json_dict(d: dict) -> TotalColoring:
    """Raises KeyError, TypeError or ValueError on a malformed document:
    a colour or endpoint that is not an int (bools included), an edge
    with u >= v, an edge listed twice, or an endpoint outside 0..n-1."""
    vertex_colors = tuple(d["vertex_colors"])
    edge_colors = {Edge(e["u"], e["v"]): e["c"] for e in d["edges"]}
    if len(edge_colors) != len(d["edges"]):
        twice = Counter((e["u"], e["v"]) for e in d["edges"]).most_common(1)
        raise ValueError("edge %s listed twice" % (twice[0][0],))
    kinds = set(map(type, chain(vertex_colors, edge_colors.values(),
                                chain.from_iterable(edge_colors))))
    if not kinds <= {int}:
        raise TypeError("colours and endpoints must be integers, not %s"
                        % ", ".join(sorted(k.__name__ for k in kinds - {int})))
    if edge_colors:
        lo = min(map(itemgetter(0), edge_colors))
        hi = max(map(itemgetter(1), edge_colors))
        if lo < 0 or hi >= len(vertex_colors):
            raise ValueError("edge endpoint %d outside 0..%d"
                             % (lo if lo < 0 else hi, len(vertex_colors) - 1))
    return TotalColoring(vertex_colors, edge_colors)


# One edge of the JSON document, as json.dumps(indent=1, sort_keys=True)
# lays it out inside the top-level "edges" list.
_EDGE_JSON = '  {\n   "c": %d,\n   "u": %d,\n   "v": %d\n  }'


def coloring_json_text(tc: TotalColoring, report: dict | None = None) -> str:
    """The JSON document of tc: "n", "vertex_colors", the edges sorted
    as {"u", "v", "c"} objects, and ``report`` under "report" when given;
    laid out as json.dumps(indent=1, sort_keys=True) would, byte for byte.

    The edge list goes through a fixed per-edge template; the rest of the
    document through json.dumps.  "edges" sorts before every other key,
    so the edge list opens the document.
    """
    rest = {"n": tc.n, "vertex_colors": list(tc.vertex_colors)}
    if report is not None:
        rest["report"] = report
    edges = ",\n".join([_EDGE_JSON % (c, u, v) for (u, v), c
                        in sorted(tc.edge_colors.items())])
    head = '{\n "edges": [\n%s\n ],' % edges if edges else '{\n "edges": [],'
    return head + json.dumps(rest, indent=1, sort_keys=True)[1:]


def write_coloring_json(tc: TotalColoring, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(coloring_json_text(tc))
            fh.write("\n")
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc


def read_coloring_json(path) -> TotalColoring:
    try:
        with open(path) as fh:
            return coloring_from_json_dict(json.load(fh))
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed_file(path, exc) from exc
