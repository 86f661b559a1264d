"""Total coloring values and the color-matrix / file representations.

A total coloring is a vertex color vector plus an edge color map.  The
color matrix view is the n x n symmetric array with vertex colors on the
diagonal and edge colors off it, mirroring the published tables; blank
cells are non-edges.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

from .errors import PreconditionFailed
from .graphs import CirculantGraph, Edge


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
        for e, c in self.edge_colors.items():
            sums[e.u] += c
            sums[e.v] += c
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
    for e, c in tc.edge_colors.items():
        m[e.u][e.v] = c
        m[e.v][e.u] = c
    return m


def from_matrix(matrix) -> TotalColoring:
    n = len(matrix)
    vertex_colors = tuple(matrix[u][u] for u in range(n))
    edge_colors = {}
    for u in range(n):
        for v in range(u + 1, n):
            if matrix[u][v] is not None:
                edge_colors[Edge(u, v)] = matrix[u][v]
    return TotalColoring(vertex_colors, edge_colors)


def matrix_csv_rows(tc: TotalColoring) -> list[list[str]]:
    """CSV layout of the published tables: header row/column of vertex
    indices, blank cells for non-edges."""
    m = to_matrix(tc)
    n = tc.n
    rows = [[""] + [str(v) for v in range(n)]]
    for u in range(n):
        rows.append([str(u)] + ["" if x is None else str(x) for x in m[u]])
    return rows


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


def _malformed(path, exc) -> PreconditionFailed:
    return PreconditionFailed("malformed coloring file %s: %s: %s"
                              % (path, type(exc).__name__, exc))


def read_matrix_csv(path):
    try:
        with open(path) as fh:
            return parse_matrix_csv_text(fh.read())
    except OSError as exc:
        raise PreconditionFailed(str(exc)) from exc
    except (ValueError, csv.Error) as exc:
        raise _malformed(path, exc) from exc


def coloring_to_json_dict(tc: TotalColoring) -> dict:
    return {
        "n": tc.n,
        "vertex_colors": list(tc.vertex_colors),
        "edges": [
            {"u": e.u, "v": e.v, "c": c}
            for e, c in sorted(tc.edge_colors.items())
        ],
    }


def coloring_from_json_dict(d: dict) -> TotalColoring:
    return TotalColoring(
        tuple(d["vertex_colors"]),
        {Edge(e["u"], e["v"]): e["c"] for e in d["edges"]},
    )


def write_coloring_json(tc: TotalColoring, path) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(coloring_to_json_dict(tc), fh, indent=1, sort_keys=True)
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
        raise _malformed(path, exc) from exc
