"""Construction-agnostic checkers: properness, equitability, NSD, type.

Everything here recomputes from raw data and never trusts builder caches;
the builders in turn refuse to return anything these checkers reject.

A coloring is read one distance d at a time, as a column of the colours
of the edges {u, u + d mod n}, and accepted by whole-column passes alone;
only when a pass finds a fault does a pass over the edges list witnesses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import eq

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


def _stars(g: CirculantGraph, values, cols):
    """Per vertex u: values[u] and the colours of u's edges, from cols."""
    around = []
    for d, col in zip(g.gens, cols):
        # the edge from u - d, and at the involution the one from u - n/2
        around += [col + col] if 2 * d == g.n else [col, col[-d:] + col[:-d]]
    return zip(values, *around)


def _equal_across(g: CirculantGraph, values) -> bool:
    """Whether values[u] == values[u + d mod n] for some u and distance d."""
    return any(any(map(eq, values, values[d:] + values[:d])) for d in g.gens)


def _check_assignments(g: CirculantGraph, tc: TotalColoring) -> list:
    """tc's column of each distance of g, once every edge and vertex has
    a colour of at least 1 and no non-edge has one."""
    if tc.n != g.n:
        raise VerificationFailed("coloring covers %d vertices, graph has %d" % (tc.n, g.n))
    cols = list(map(tc.column, g.gens))
    if any(None in col for col in cols):
        missing = [e for e in g.edges if tc.edge_color(*e) is None]
        raise VerificationFailed("uncolored edges: %s" % (missing[:5],))
    for u, c in enumerate(tc.vertex_colors):
        if c is None or c < 1:
            raise VerificationFailed("vertex %d has no valid color" % u)
    extra = [c for d, col in tc.columns.items() if d not in g.gens
             for c in col if c is not None]  # on non-edges
    if min(chain(map(min, cols), extra), default=1) < 1:
        e = next(e for e, c in tc.edge_items() if c < 1)
        raise VerificationFailed("edge (%d, %d) has no valid color" % e)
    if extra:
        e = next(e for e, c in tc.edge_items()
                 if min(e[1] - e[0], g.n - e[1] + e[0]) not in g.gens)
        raise VerificationFailed("non-edge (%d, %d) has a color" % e)
    return cols


def find_violations(g: CirculantGraph, tc: TotalColoring, cols=None) -> list:
    """Every total-coloring violation, each with a concrete witness: []
    if no two neighbours share a colour and every vertex sees degree + 1
    distinct colours on itself and its edges, else every violation from
    one pass over the edges.  ``cols`` are tc's columns of g's distances."""
    cols = cols or list(map(tc.column, g.gens))
    vertex_colors = tc.vertex_colors
    if (not _equal_across(g, vertex_colors) and g.n * (g.degree + 1)
            == sum(map(len, map(set, _stars(g, vertex_colors, cols))))):
        return []
    violations = []
    edges = g.edges
    edge_colors = [tc.edge_color(u, v) for u, v in edges]
    for e, ce in zip(edges, edge_colors):
        u, v = e
        cu, cv = vertex_colors[u], vertex_colors[v]
        if cu == cv:
            violations.append(Violation("vertex-vertex", (u, v, cu)))
        if ce == cu:
            violations.append(Violation("vertex-edge", (u, e, ce)))
        if ce == cv:
            violations.append(Violation("vertex-edge", (v, e, ce)))
    # edge-edge clashes at a shared endpoint, each against the first edge
    # of that color seen there
    at_vertex = {}
    for e, ce in zip(edges, edge_colors):
        for end in e:
            if (end, ce) in at_vertex:
                violations.append(
                    Violation("edge-edge", (end, at_vertex[end, ce], e, ce)))
            else:
                at_vertex[end, ce] = e
    return violations


def verify_total_coloring(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    return _verify(g, tc)[0]


def _verify(g: CirculantGraph, tc: TotalColoring) -> tuple:
    """(verify_total_coloring's report, the columns of tc)."""
    cols = _check_assignments(g, tc)
    violations = find_violations(g, tc, cols)
    sizes = dict(Counter(chain(tc.vertex_colors, *cols)))
    report = VerificationReport(proper=not violations, violations=violations,
                                colors_used=len(sizes), class_sizes=sizes)
    if report.proper:
        spread = max(sizes.values()) - min(sizes.values())
        report.equitable = spread <= 1
        if report.colors_used == g.degree + 1:
            report.type_label = TypeLabel.TYPE_I
        elif report.colors_used == g.degree + 2:
            report.type_label = TypeLabel.TYPE_II_BOUND
    return report, cols


def verify_equitable(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    report = verify_total_coloring(g, tc)
    if not report.proper:
        raise VerificationFailed("equitability is only defined for proper colorings")
    return report


def verify_nsd(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    """NSD verdict; sums are recomputed from scratch."""
    report, cols = _verify(g, tc)
    if not report.proper:
        raise VerificationFailed("NSD is only defined for proper colorings")
    sums = list(map(sum, _stars(g, tc.vertex_colors, cols)))
    bad = []
    if _equal_across(g, sums):
        bad = [Violation("nsd-equal-sums", (u, v, sums[u]))
               for u, v in g.edges if sums[u] == sums[v]]
    report.nsd = not bad
    report.nsd_violations = bad
    return report
