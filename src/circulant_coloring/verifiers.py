"""Construction-agnostic checkers: properness, equitability, NSD, type.

Everything here recomputes from raw data and never trusts builder caches;
the builders in turn refuse to return anything these checkers reject.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import filterfalse

from .errors import VerificationFailed
from .graphs import CirculantGraph
from .coloring import TotalColoring


class TypeLabel(Enum):
    TYPE_I = "TypeI"
    TYPE_II_BOUND = "TypeII-bound"
    UNBOUNDED = "Unbounded"


@dataclass
class Violation:
    kind: str  # vertex-vertex | edge-edge | vertex-edge
    witness: tuple

    def to_json_dict(self):
        # an edge (u, v) of the witness prints as Edge(u=.., v=..)
        return {"kind": self.kind, "witness": [
            "Edge(u=%d, v=%d)" % x if type(x) is tuple else str(x)
            for x in self.witness]}


@dataclass
class VerificationReport:
    proper: bool
    violations: list
    colors_used: int
    class_sizes: dict  # color -> count over vertices + edges jointly
    equitable: bool = False
    nsd: bool | None = None
    nsd_violations: list = field(default_factory=list)
    type_label: TypeLabel = TypeLabel.UNBOUNDED

    def to_json_dict(self):
        return {
            "proper": self.proper,
            "violations": [v.to_json_dict() for v in self.violations],
            "colors_used": self.colors_used,
            "class_sizes": {str(k): v for k, v in sorted(self.class_sizes.items())},
            "equitable": self.equitable,
            "nsd": self.nsd,
            "nsd_violations": [v.to_json_dict() for v in self.nsd_violations],
            "type_label": self.type_label.value,
        }


def _class_sizes(tc: TotalColoring) -> dict:
    counts = Counter(tc.vertex_colors)
    counts.update(tc.edge_colors.values())
    return dict(counts)


def _check_assignments(g: CirculantGraph, tc: TotalColoring) -> None:
    if tc.n != g.n:
        raise VerificationFailed("coloring covers %d vertices, graph has %d" % (tc.n, g.n))
    missing = list(filterfalse(tc.edge_colors.__contains__, g.edges))
    if missing:
        raise VerificationFailed("uncolored edges: %s" % (missing[:5],))
    for u, c in enumerate(tc.vertex_colors):
        if c is None or c < 1:
            raise VerificationFailed("vertex %d has no valid color" % u)
    if min(tc.edge_colors.values(), default=1) < 1:
        e = next(e for e, c in tc.edge_colors.items() if c < 1)
        raise VerificationFailed("edge (%d, %d) has no valid color" % e)


def find_violations(g: CirculantGraph, tc: TotalColoring) -> list:
    """Every total-coloring violation, each with a concrete witness."""
    violations = []
    vertex_colors, edges = tc.vertex_colors, g.edges
    edge_colors = list(map(tc.edge_colors.__getitem__, edges))
    for e, ce in zip(edges, edge_colors):
        u, v = e
        cu, cv = vertex_colors[u], vertex_colors[v]
        if cu == cv:
            violations.append(Violation("vertex-vertex", (u, v, cu)))
        if ce == cu:
            violations.append(Violation("vertex-edge", (u, e, ce)))
        if ce == cv:
            violations.append(Violation("vertex-edge", (v, e, ce)))
    if _edge_clash(g.n, edges, edge_colors):
        violations += _edge_edge_violations(edges, edge_colors)
    return violations


# Above this many distinct edge colors the per-vertex masks would grow
# into long ints, and the clash test defers to the exact pass.
_MASK_COLORS = 512


def _edge_clash(n: int, edges, edge_colors) -> bool:
    """Whether two edges of one color may share an endpoint: exact, from
    one color bitmask per vertex over the ranked distinct colors, unless
    there are more than _MASK_COLORS of them (then True)."""
    palette = set(edge_colors)
    if len(palette) > _MASK_COLORS:
        return True
    rank = {c: 1 << r for r, c in enumerate(palette)}
    at = [0] * n
    for (u, v), bit in zip(edges, map(rank.__getitem__, edge_colors)):
        if (at[u] | at[v]) & bit:
            return True
        at[u] |= bit
        at[v] |= bit
    return False


def _edge_edge_violations(edges, edge_colors) -> list:
    """Edge-edge clashes at a shared endpoint, each against the first
    edge of that color seen there."""
    violations = []
    at_vertex = {}
    for e, ce in zip(edges, edge_colors):
        for end in e:
            key = (end, ce)
            if key in at_vertex:
                violations.append(Violation("edge-edge", (end, at_vertex[key], e, ce)))
            else:
                at_vertex[key] = e
    return violations


def verify_total_coloring(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    _check_assignments(g, tc)
    violations = find_violations(g, tc)
    sizes = _class_sizes(tc)
    report = VerificationReport(
        proper=not violations,
        violations=violations,
        colors_used=len(sizes),
        class_sizes=sizes,
    )
    if report.proper:
        spread = max(sizes.values()) - min(sizes.values())
        report.equitable = spread <= 1
        if report.colors_used == g.degree + 1:
            report.type_label = TypeLabel.TYPE_I
        elif report.colors_used == g.degree + 2:
            report.type_label = TypeLabel.TYPE_II_BOUND
    return report


def verify_equitable(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    report = verify_total_coloring(g, tc)
    if not report.proper:
        raise VerificationFailed("equitability is only defined for proper colorings")
    return report


def verify_nsd(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    """NSD verdict; sums are recomputed from scratch."""
    report = verify_total_coloring(g, tc)
    if not report.proper:
        raise VerificationFailed("NSD is only defined for proper colorings")
    sums = tc.all_vertex_sums()
    bad = [Violation("nsd-equal-sums", (u, v, sums[u]))
           for u, v in g.edges if sums[u] == sums[v]]
    report.nsd = not bad
    report.nsd_violations = bad
    return report
