"""Construction-agnostic checkers: properness, equitability, NSD, type.

Everything here recomputes from raw data and never trusts builder caches;
the builders in turn refuse to return anything these checkers reject.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import VerificationFailed
from .graphs import CirculantGraph, Edge
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
        return {"kind": self.kind, "witness": list(map(str, self.witness))}


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
    missing = [e for e in g.edges if e not in tc.edge_colors]
    if missing:
        raise VerificationFailed("uncolored edges: %s" % (missing[:5],))
    for u, c in enumerate(tc.vertex_colors):
        if c is None or c < 1:
            raise VerificationFailed("vertex %d has no valid color" % u)


def find_violations(g: CirculantGraph, tc: TotalColoring) -> list:
    """Every total-coloring violation, each with a concrete witness."""
    violations = []
    for e in g.edges:
        cu, cv = tc.vertex_colors[e.u], tc.vertex_colors[e.v]
        ce = tc.edge_colors[e]
        if cu == cv:
            violations.append(Violation("vertex-vertex", (e.u, e.v, cu)))
        if ce == cu:
            violations.append(Violation("vertex-edge", (e.u, e, ce)))
        if ce == cv:
            violations.append(Violation("vertex-edge", (e.v, e, ce)))
    # edge-edge clashes at a shared endpoint
    at_vertex = {}
    for e in g.edges:
        ce = tc.edge_colors[e]
        for end in (e.u, e.v):
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
    bad = []
    for e in g.edges:
        if sums[e.u] == sums[e.v]:
            bad.append(Violation("nsd-equal-sums", (e.u, e.v, sums[e.u])))
    report.nsd = not bad
    report.nsd_violations = bad
    return report


def classify_type(g: CirculantGraph, tc: TotalColoring | None = None,
                  oracle_value: int | None = None) -> TypeLabel:
    """Best classification from the evidence at hand.

    A verified coloring or an exact oracle value can witness TypeI /
    TypeII-bound; with neither, the answer is Unbounded.
    """
    best = None
    if oracle_value is not None:
        best = oracle_value
    if tc is not None:
        report = verify_total_coloring(g, tc)
        if report.proper:
            used = report.colors_used
            best = used if best is None else min(best, used)
    if best is None:
        return TypeLabel.UNBOUNDED
    if best == g.degree + 1:
        return TypeLabel.TYPE_I
    if best == g.degree + 2:
        return TypeLabel.TYPE_II_BOUND
    return TypeLabel.UNBOUNDED
