"""Construction-agnostic checkers: properness, equitability, NSD, type.

Everything here recomputes from raw data and never trusts builder caches;
the builders in turn refuse to return anything these checkers reject.

A coloring is read one distance d at a time, as a column of the colours
of the edges {u, u + d mod n}, and accepted by passes over p slots of
each column alone, p its least period: its vertex colours and columns
(the involution's read twice over) equal themselves rotated by p, so the
star at u is the star at u mod p, and a class holds n/p times its count
on p slots (n/2p on the involution's).  Only when a pass finds a fault
do passes over the whole graph list witnesses, of equal NSD sums too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from math import gcd, isqrt
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


def _windows(n: int, arrays: list) -> list:
    """The first p slots of each array, of length n or n/2, p the least
    divisor of n at which each repeats every gcd(p, its length) slots: on
    64 slots, then all, longest distance first (the least often periodic)."""
    small = [p for p in range(1, isqrt(n) + 1) if n % p == 0]
    for p in small + [n // p for p in reversed(small[1:]) if p * p < n]:
        if all(a[s:s + 64] == a[:min(64, len(a) - s)] and a[s:] == a[:len(a) - s]
               for a in reversed(arrays) for s in [gcd(p, len(a))]):
            return [a[:p] for a in arrays]
    return arrays


def _stars(g: CirculantGraph, values, cols):
    """Per slot u < p = len(values): values[u] and its edges' colours."""
    p, around = len(values), []
    for d, col in zip(g.gens, cols):
        # the edge from u - d, and at the involution the one from u - n/2
        around += ([col + col if len(col) < p else col] if 2 * d == g.n
                   else [col, col[-(d % p):] + col[:-(d % p)]])
    return zip(values, *around)


def _equal_across(g: CirculantGraph, values) -> bool:
    """Whether values[u] == values[(u + d) % len(values)] for any u, d."""
    p = len(values)
    return any(any(map(eq, values, values[d % p:] + values[:d % p]))
               for d in g.gens)


def _check_assignments(g: CirculantGraph, tc: TotalColoring) -> list:
    """The windows of tc's vertex colours and columns of g's distances,
    once every element has a colour of at least 1 and no non-edge has one."""
    if tc.n != g.n:
        raise VerificationFailed("coloring covers %d vertices, graph has %d" % (tc.n, g.n))
    vertex, *cols = windows = _windows(
        g.n, [tc.vertex_colors, *map(tc.column, g.gens)])
    if any(None in col for col in cols):
        missing = [e for e in g.edges if tc.edge_color(*e) is None]
        raise VerificationFailed("uncolored edges: %s" % (missing[:5],))
    for u, c in enumerate(vertex):
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
    return windows


def find_violations(g: CirculantGraph, tc: TotalColoring) -> list:
    """Every total-coloring violation, each with a concrete witness, from
    one pass over the edges."""
    edges, vertex_colors = g.edges, tc.vertex_colors
    edge_colors = [tc.edge_color(u, v) for u, v in edges]
    violations = []
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
    """(verify_total_coloring's report, the windows of tc's arrays)."""
    vertex, *cols = windows = _check_assignments(g, tc)
    n, p = g.n, len(vertex)
    # no edge joins two vertices of one colour, every star is rainbow
    proper = not _equal_across(g, vertex) and p * (g.degree + 1) == sum(
        map(len, map(set, _stars(g, vertex, cols))))
    violations = [] if proper else find_violations(g, tc)
    # window counts scaled up; the involution's n/2 slots, if any, come last
    half = cols.pop() if 2 * g.gens[-1] == n else []
    sizes = {c: k * n // p for c, k in Counter(chain(vertex, *cols)).items()}
    for c, k in Counter(half).items():
        sizes[c] = sizes.get(c, 0) + k * n // (2 * len(half))
    report = VerificationReport(proper=not violations, violations=violations,
                                colors_used=len(sizes), class_sizes=sizes)
    if report.proper:
        spread = max(sizes.values()) - min(sizes.values())
        report.equitable = spread <= 1
        if report.colors_used == g.degree + 1:
            report.type_label = TypeLabel.TYPE_I
        elif report.colors_used == g.degree + 2:
            report.type_label = TypeLabel.TYPE_II_BOUND
    return report, windows


def verify_nsd(g: CirculantGraph, tc: TotalColoring) -> VerificationReport:
    """NSD verdict; sums are recomputed from scratch."""
    report, (vertex, *cols) = _verify(g, tc)
    if not report.proper:
        raise VerificationFailed("NSD is only defined for proper colorings")
    sums = list(map(sum, _stars(g, vertex, cols)))
    bad = []
    if _equal_across(g, sums):
        sums *= g.n // len(sums)  # the sums of a colouring of period p
        bad = [Violation("nsd-equal-sums", (u, v, sums[u]))
               for u, v in g.edges if sums[u] == sums[v]]
    report.nsd = not bad
    report.nsd_violations = bad
    return report
