from collections import Counter
from itertools import chain
from math import gcd
from operator import eq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_coloring.coloring import TotalColoring
from circulant_coloring.errors import VerificationFailed
from circulant_coloring.golden import rebuild_table
from circulant_coloring.graphs import build_circulant, power_of_cycle
from circulant_coloring.verifiers import (
    TypeLabel,
    VerificationReport,
    Violation,
    find_violations,
    verify_nsd,
    verify_total_coloring,
)


def k2_coloring():
    return build_circulant(3, [1]), TotalColoring.from_pairs(
        (1, 2, 3), {(0, 1): 3, (1, 2): 1, (0, 2): 2})


class TestProperness:
    def test_triangle_proper(self):
        g, tc = k2_coloring()
        report = verify_total_coloring(g, tc)
        assert report.proper
        assert report.colors_used == 3
        assert report.type_label is TypeLabel.TYPE_I

    def test_vertex_vertex_clash(self):
        g, tc = k2_coloring()
        bad = TotalColoring((1, 1, 3), tc.columns)
        report = verify_total_coloring(g, bad)
        assert not report.proper
        kinds = {v.kind for v in report.violations}
        assert "vertex-vertex" in kinds
        assert any(v.witness[:2] == (0, 1) for v in report.violations)

    def test_vertex_edge_clash(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({(0, 1): 1})
        report = verify_total_coloring(g, bad)
        assert any(v.kind == "vertex-edge" for v in report.violations)

    def test_edge_edge_clash(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({(1, 2): 3})
        report = verify_total_coloring(g, bad)
        hits = [v for v in report.violations if v.kind == "edge-edge"]
        assert hits and hits[0].witness[0] == 1  # shared endpoint

    def test_missing_edge_assignment(self):
        g, tc = k2_coloring()
        partial = TotalColoring.from_pairs(tc.vertex_colors, {(0, 1): 3})
        with pytest.raises(VerificationFailed, match="uncolored edges"):
            verify_total_coloring(g, partial)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_edge_color_below_one(self, bad):
        # colours are 1-based: 0 and -1 are no colour, on edges as on
        # vertices, even where no two elements clash
        g, tc = k2_coloring()
        with pytest.raises(VerificationFailed,
                           match=r"edge \(1, 2\) has no valid color"):
            verify_total_coloring(g, tc.with_edge_colors({(1, 2): bad}))

    def test_vertex_count_mismatch(self):
        g, _ = k2_coloring()
        with pytest.raises(VerificationFailed,
                           match="covers 2 vertices, graph has 3"):
            verify_total_coloring(g, TotalColoring.from_pairs((1, 2), {}))

    def test_find_violations_reports_all(self):
        g = build_circulant(4, [1])
        tc = TotalColoring.from_pairs((1, 1, 1, 1), {e: 1 for e in g.edges})
        violations = find_violations(g, tc)
        assert len([v for v in violations if v.kind == "vertex-vertex"]) == 4
        assert len([v for v in violations if v.kind == "vertex-edge"]) == 8
        assert len([v for v in violations if v.kind == "edge-edge"]) == 4


def reference_violations(g, tc):
    """find_violations as one pass over the edges, with a (vertex, color)
    dict for the edge-edge clashes."""
    violations, at_vertex = [], {}
    for e in g.edges:
        u, v = e
        ce = tc.edge_color(*e)
        cu, cv = tc.vertex_colors[u], tc.vertex_colors[v]
        if cu == cv:
            violations.append(Violation("vertex-vertex", (u, v, cu)))
        if ce == cu:
            violations.append(Violation("vertex-edge", (u, e, ce)))
        if ce == cv:
            violations.append(Violation("vertex-edge", (v, e, ce)))
    for e in g.edges:
        ce = tc.edge_color(*e)
        for end in e:
            if (end, ce) in at_vertex:
                violations.append(Violation(
                    "edge-edge", (end, at_vertex[(end, ce)], e, ce)))
            else:
                at_vertex[(end, ce)] = e
    return violations


def vertex_sums(tc):
    """Sigma_c(u) for every vertex u: its color plus the colors of its
    incident edges."""
    sums = list(tc.vertex_colors)
    for (u, v), c in tc.edge_items():
        sums[u] += c
        sums[v] += c
    return sums


def reference_nsd_violations(g, tc):
    sums = vertex_sums(tc)
    return [Violation("nsd-equal-sums", (u, v, sums[u]))
            for u, v in g.edges if sums[u] == sums[v]]


@st.composite
def colored_circulants(draw):
    """A circulant with vertex and edge colors drawn from a palette that
    is small (clashes likely), or holds 0, negatives and 10**12."""
    n = draw(st.integers(3, 16))
    gens = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4,
                         unique=True))
    g = build_circulant(n, gens)
    palette = draw(st.one_of(
        st.lists(st.integers(1, 2 * g.degree + 2), min_size=1, max_size=8),
        st.lists(st.sampled_from([0, -1, -7, 10**12, 10**12 + 1, 3]),
                 min_size=1)))
    rnd = draw(st.randoms(use_true_random=True))
    tc = TotalColoring.from_pairs(tuple(rnd.choices(palette, k=n)), dict(
        zip(g.edges, rnd.choices(palette, k=len(g.edges)))))
    return g, tc


@st.composite
def proper_colorings(draw):
    """A circulant, n/2 among its distances half the time, and a proper
    total coloring of it: each element, in a drawn order, takes the
    smallest color from a drawn floor of 1-3 up that no element it
    touches holds, so equal neighbor sums are common."""
    n = draw(st.integers(3, 14))
    gens = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4,
                         unique=True))
    if n % 2 == 0 and draw(st.booleans()):
        gens.append(n // 2)
    g = build_circulant(n, set(gens))

    def touching(x):  # the elements that may not share x's colour
        if type(x) is int:
            return [*g.neighbors(x), *(e for e in g.edges if x in e)]
        return [*x, *(e for e in g.edges if e != x and set(e) & set(x))]

    rnd = draw(st.randoms(use_true_random=True))
    color = {}
    for x in rnd.sample([*range(n), *g.edges], n + len(g.edges)):
        taken = {color.get(y) for y in touching(x)}
        c = rnd.randint(1, 3)
        while c in taken:
            c += 1
        color[x] = c
    return g, TotalColoring.from_pairs(tuple(color[u] for u in range(n)),
                                       {e: color[e] for e in g.edges})


class TestColumnPasses:
    # the per-distance passes against the per-edge references, with and
    # without a fault, the involution's half-length column included
    @given(colored_circulants())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_reference(self, case):
        g, tc = case
        want = reference_violations(g, tc)
        assert find_violations(g, tc) == want
        colors = [*tc.vertex_colors, *(c for _, c in tc.edge_items())]
        if want or min(colors) < 1:
            with pytest.raises(VerificationFailed):
                verify_nsd(g, tc)
        else:
            assert verify_nsd(g, tc).nsd_violations == (
                reference_nsd_violations(g, tc))

    @given(proper_colorings())
    @settings(max_examples=300, deadline=None)
    def test_nsd_agrees_with_reference(self, case):
        g, tc = case
        assert find_violations(g, tc) == []
        report = verify_nsd(g, tc)
        want = reference_nsd_violations(g, tc)
        assert report.nsd_violations == want
        assert report.nsd is not want

    def test_no_palette_limit(self):
        # 1,200 distinct edge colors, every one a distinct element
        g = power_of_cycle(200, 6)
        colors = {e: 10**12 + t for t, e in enumerate(g.edges)}
        tc = TotalColoring.from_pairs(tuple([1] * 200), colors)
        assert find_violations(g, tc) == reference_violations(g, tc)
        clash = tc.with_edge_colors({g.edges[1]: colors[g.edges[0]]})
        assert find_violations(g, clash) == reference_violations(g, clash)
        assert any(v.kind == "edge-edge" for v in find_violations(g, clash))

    def test_missing_edge(self):
        # only the involution's column lacks an edge
        g = build_circulant(6, [1, 3])
        tc = TotalColoring.from_pairs((1, 2, 1, 2, 1, 2),
                                      {e: 3 for e in g.edges if e != (1, 4)})
        with pytest.raises(VerificationFailed,
                           match=r"uncolored edges: \[\(1, 4\)\]"):
            verify_total_coloring(g, tc)

    def test_extra_edge(self):
        # a proper coloring of C_5 plus the non-edge (0, 2), the first in
        # sorted order of the two
        g = build_circulant(5, [1])
        tc = TotalColoring.from_pairs((1, 2, 3, 1, 3), {
            (0, 1): 3, (0, 4): 2, (1, 2): 1, (2, 3): 2, (3, 4): 4})
        assert verify_total_coloring(g, tc).proper
        extra = tc.with_edge_colors({(1, 3): 9, (0, 2): 9})
        with pytest.raises(VerificationFailed,
                           match=r"non-edge \(0, 2\) has a color"):
            verify_total_coloring(g, extra)
        with pytest.raises(VerificationFailed, match="non-edge"):
            verify_nsd(g, extra)
        # a colour below 1 is named first, on a non-edge too
        with pytest.raises(VerificationFailed,
                           match=r"edge \(0, 2\) has no valid color"):
            verify_total_coloring(g, tc.with_edge_colors({(0, 2): 0}))

    def test_equal_sums_across_the_involution(self):
        # sums 13, 18, 15, 13, 12, 18: only the distance-3 edge (0, 3)
        # joins equal sums
        g = build_circulant(6, [1, 3])
        tc = TotalColoring.from_pairs((1, 5, 3, 6, 2, 4), {
            (0, 1): 3, (0, 3): 4, (0, 5): 5, (1, 2): 4, (1, 4): 6,
            (2, 3): 2, (2, 5): 6, (3, 4): 1, (4, 5): 3})
        report = verify_nsd(g, tc)
        assert report.proper and report.nsd is False
        assert report.nsd_violations == [
            Violation("nsd-equal-sums", (0, 3, 13))]


def reference_verify(g, tc, nsd=False):
    """verify_total_coloring, or verify_nsd with ``nsd``, as whole-column
    passes over all n slots of every column, one tuple and one set per
    vertex: the verifiers before they read one period of the coloring."""
    n = g.n
    if tc.n != n:
        raise VerificationFailed(
            "coloring covers %d vertices, graph has %d" % (tc.n, n))
    cols = list(map(tc.column, g.gens))
    if any(None in col for col in cols):
        missing = [e for e in g.edges if tc.edge_color(*e) is None]
        raise VerificationFailed("uncolored edges: %s" % (missing[:5],))
    for u, c in enumerate(tc.vertex_colors):
        if c is None or c < 1:
            raise VerificationFailed("vertex %d has no valid color" % u)
    extra = [c for d, col in tc.columns.items() if d not in g.gens
             for c in col if c is not None]
    if min(chain(map(min, cols), extra), default=1) < 1:
        e = next(e for e, c in tc.edge_items() if c < 1)
        raise VerificationFailed("edge (%d, %d) has no valid color" % e)
    if extra:
        e = next(e for e, c in tc.edge_items()
                 if min(e[1] - e[0], n - e[1] + e[0]) not in g.gens)
        raise VerificationFailed("non-edge (%d, %d) has a color" % e)

    def stars(values):
        around = []
        for d, col in zip(g.gens, cols):
            around += ([col + col] if 2 * d == n
                       else [col, col[-d:] + col[:-d]])
        return zip(values, *around)

    def equal_across(values):
        return any(any(map(eq, values, values[d:] + values[:d]))
                   for d in g.gens)

    vertex_colors = tc.vertex_colors
    proper = not equal_across(vertex_colors) and n * (g.degree + 1) == sum(
        map(len, map(set, stars(vertex_colors))))
    violations = [] if proper else reference_violations(g, tc)
    sizes = dict(Counter(chain(vertex_colors, *cols)))
    report = VerificationReport(proper=not violations, violations=violations,
                                colors_used=len(sizes), class_sizes=sizes)
    if report.proper:
        report.equitable = max(sizes.values()) - min(sizes.values()) <= 1
        if report.colors_used == g.degree + 1:
            report.type_label = TypeLabel.TYPE_I
        elif report.colors_used == g.degree + 2:
            report.type_label = TypeLabel.TYPE_II_BOUND
    if not nsd:
        return report
    if not report.proper:
        raise VerificationFailed("NSD is only defined for proper colorings")
    sums = list(map(sum, stars(vertex_colors)))
    bad = []
    if equal_across(sums):
        bad = [Violation("nsd-equal-sums", (u, v, sums[u]))
               for u, v in g.edges if sums[u] == sums[v]]
    report.nsd = not bad
    report.nsd_violations = bad
    return report


@st.composite
def periodic_colorings(draw):
    """C_n(S), 3 <= n <= 60 or 129 <= n <= 192 (arrays past the 64 slots
    a period is first tested on), n/2 in S half the time when n is even,
    and a total coloring of period p, a drawn divisor of n: each class of
    slots that agree mod p, in a random order, takes the least colour from
    a random floor of 1-3 up that no element touching it holds, so most
    are proper.  The involution's n/2 slots agree mod gcd(p, n/2), which
    keeps period p when the column is read twice over, or, half the time,
    mod p within the n/2 slots, p then a divisor of n but not of n/2 and
    those classes all of different colours, so that the column breaks
    period p unless p = n.  Then 0-2 faults, each a vertex colour, an edge
    colour, an involution slot, None or 0, the first of them in the last
    period."""
    n = draw(st.integers(3, 60) | st.integers(129, 192))
    gens = set(draw(st.lists(st.integers(1, n // 2), min_size=1,
                             max_size=4)))
    if n % 2 == 0 and draw(st.booleans()):
        gens.add(n // 2)
    g = build_circulant(n, gens)
    linear = 2 * g.gens[-1] == n and draw(st.booleans())
    p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0
                              and not (linear and n // 2 % p == 0)]))
    rnd = draw(st.randoms(use_true_random=True))

    def length(d):  # of the array of slot (d, u), d = 0 the vertex colours
        return d if 2 * d == n else n

    def at(u):  # the slots of the edges at vertex u
        return [s for d in g.gens for s in (
            [(d, u % d)] if 2 * d == n else [(d, u), (d, (u - d) % n)])]

    def touching(x):
        d, u = x
        if d == 0:
            return [(0, w) for w in g.neighbors(u)] + at(u)
        ends = (u, (u + d) % n)
        return [(0, w) for w in ends] + [y for w in ends for y in at(w)
                                         if y != x]

    classes = {}
    for d in (0, *g.gens):
        step = p if linear else gcd(p, length(d))
        for u in range(length(d)):
            classes.setdefault((d, u % step), []).append((d, u))
    color = {}
    for members in rnd.sample(list(classes.values()), len(classes)):
        taken = {color.get(y) for x in members for y in touching(x)}
        if linear and members[0][0] == n // 2:
            taken |= {color.get((n // 2, u)) for u in range(min(p, n // 2))}
        c = rnd.randint(1, 3)
        while c in taken:
            c += 1
        for x in members:
            color[x] = c
    top = max(color.values())
    for i in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["vertex", "edge", "involution", None, 0]))
        d = (0 if kind == "vertex" or (kind in (None, 0) and draw(st.booleans()))
             else max(g.gens) if kind == "involution"
             else draw(st.sampled_from(g.gens)))
        size = length(d)
        last = gcd(p, size)  # the slots of the last period
        u = draw(st.integers(size - last if i == 0 else 0, size - 1))
        color[d, u] = (kind if kind in (None, 0) else
                       draw(st.sampled_from([top + 1, rnd.randint(1, top)])))
    return g, TotalColoring(
        tuple(color[0, u] for u in range(n)),
        {d: [color[d, u] for u in range(length(d))] for d in g.gens})


def outcome(check, g, tc):
    """Every field of check's report, class sizes as their items in order,
    or the message of its VerificationFailed."""
    try:
        report = check(g, tc)
    except VerificationFailed as exc:
        return "failed: %s" % exc
    return [*vars(report).items()], [*report.class_sizes.items()]


CHECKS = ((verify_total_coloring, reference_verify),
          (verify_nsd, lambda g, tc: reference_verify(g, tc, nsd=True)))


class TestOnePeriod:
    # the verifiers, which read one period, against full passes over the
    # whole of every column
    @given(periodic_colorings())
    # period 4 but for the involution's column, which repeats every 4 of
    # its 10 slots only up to its end: read twice over, it has period 20
    @example((build_circulant(20, [1, 10]), TotalColoring(
        (1, 2, 3, 4) * 5, {1: [5, 6, 7, 8] * 5, 10: [5, 6, 7, 8] * 2 + [5, 6]})))
    @settings(max_examples=250, deadline=None)
    def test_agrees_with_reference(self, case):
        g, tc = case
        for check, reference in CHECKS:
            assert outcome(check, g, tc) == outcome(reference, g, tc)

    @pytest.mark.parametrize("fault", ["vertex", "edge", "fresh colour"])
    def test_late_fault_in_long_columns(self, fault):
        # thm21-even (210, 10, 11) has period 21; each fault lies past the
        # first 64 slots, so only a test of the whole of a column sees it
        from circulant_coloring.constructions import color_power_cycle_even

        g, tc = power_of_cycle(210, 10), color_power_cycle_even(
            210, 10, 11).coloring
        if fault == "vertex":
            colors = list(tc.vertex_colors)
            colors[205] = colors[204]
            tc = TotalColoring(tuple(colors), tc.columns)
        else:
            tc = tc.with_edge_colors({(200, 203): tc.vertex_colors[200] if
                                      fault == "edge" else tc.palette_size + 1})
        for check, reference in CHECKS:
            assert outcome(check, g, tc) == outcome(reference, g, tc)
        assert verify_total_coloring(g, tc).proper is (fault == "fresh colour")


class TestEquitable:
    def test_published_equitable_example(self):
        g = power_of_cycle(18, 4)
        report = verify_total_coloring(g, rebuild_table(2))
        assert report.proper and report.equitable
        sizes = report.class_sizes.values()
        assert max(sizes) - min(sizes) <= 1

    def test_unbalanced_rejected(self):
        g = build_circulant(6, [1])
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        balanced = TotalColoring.from_pairs(
            (1, 2, 1, 2, 1, 2), dict(zip(edges, [3, 4, 3, 4, 3, 4])))
        # recoloring one edge leaves color 5 with a single cell: spread 2
        lopsided = TotalColoring.from_pairs(
            (1, 2, 1, 2, 1, 2), dict(zip(edges, [3, 4, 3, 4, 3, 5])))
        assert verify_total_coloring(g, balanced).equitable
        assert not verify_total_coloring(g, lopsided).equitable

    def test_improper_is_not_equitable(self):
        g, tc = k2_coloring()
        report = verify_total_coloring(g, TotalColoring((1, 1, 3), tc.columns))
        assert not report.proper and not report.equitable

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=30, deadline=None)
    def test_equitability_invariant_under_color_permutation(self, perm):
        g = power_of_cycle(9, 2)
        base = rebuild_table_free(g)
        relabel = {c: perm[c - 1] for c in range(1, 7)}
        tc = TotalColoring.from_pairs(
            tuple(relabel[c] for c in base.vertex_colors),
            {e: relabel[c] for e, c in base.edge_items()})
        a = verify_total_coloring(g, base)
        b = verify_total_coloring(g, tc)
        assert a.proper == b.proper
        assert a.equitable == b.equitable


def rebuild_table_free(g):
    # deterministic proper coloring of C_9^2 for the permutation tests
    from circulant_coloring.constructions import color_power_cycle_odd

    return color_power_cycle_odd(9, 2, 1).coloring


class TestNsd:
    def test_published_nsd_example(self):
        g = power_of_cycle(18, 4)
        report = verify_nsd(g, rebuild_table(3))
        assert report.nsd is True
        assert not report.nsd_violations

    def test_base_coloring_not_nsd(self):
        g = power_of_cycle(18, 4)
        report = verify_nsd(g, rebuild_table(2))
        assert report.nsd is False
        assert report.nsd_violations
        sums = vertex_sums(rebuild_table(2))
        for v in report.nsd_violations:
            u, w, s = v.witness
            assert sums[u] == sums[w] == s
            assert w in g.neighbors(u)

    def test_symmetric_triangle_fails(self):
        g = build_circulant(3, [1])
        tc = TotalColoring.from_pairs(
            (1, 2, 3), {(0, 1): 3, (1, 2): 1, (0, 2): 2})
        report = verify_nsd(g, tc)
        # K_3 with this symmetric coloring has all sums equal
        assert report.nsd is False

    def test_improper_raises(self):
        g, tc = k2_coloring()
        bad = tc.with_edge_colors({(0, 1): 1})
        with pytest.raises(VerificationFailed):
            verify_nsd(g, bad)


class TestClassify:
    # the Type label a verification report gives the coloring it checked
    def test_from_coloring(self):
        g, tc = k2_coloring()
        assert verify_total_coloring(g, tc).type_label is TypeLabel.TYPE_I

    def test_wasteful_coloring_unbounded(self):
        g = build_circulant(6, [1])
        tc = TotalColoring.from_pairs(
            (1, 2, 1, 2, 1, 2),
            {(0, 1): 3, (1, 2): 4, (2, 3): 5,
             (3, 4): 6, (4, 5): 7, (0, 5): 8})
        report = verify_total_coloring(g, tc)
        assert report.proper
        assert report.type_label is TypeLabel.UNBOUNDED


class TestReportJson:
    def test_shape(self):
        g, tc = k2_coloring()
        d = verify_nsd(g, tc).to_json_dict()
        assert d["proper"] is True
        assert d["nsd"] is False
        assert isinstance(d["class_sizes"], dict)
        assert d["type_label"] == "TypeI"
