"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its runtime; any assertion
failure makes the criterion (and the suite) fail.
"""

import random
import time

from circulant_coloring.constructions import (
    color_power_cycle_even,
    color_power_cycle_odd,
    color_thm31,
    color_thm32,
    color_thm33,
    color_thm34,
    equitable_nsd_power_cycle,
)
from circulant_coloring.errors import FactorizationImpossible
from circulant_coloring.factorization import one_factorize
from circulant_coloring.golden import reproduce_table
from circulant_coloring.graphs import (
    GeneratorSet,
    build_circulant,
    generates_group,
    normalize_half_set,
    power_of_cycle,
)
from circulant_coloring.latin import closed_form_entry
from circulant_coloring.oracle import exact_total_chromatic
from circulant_coloring.verifiers import (
    find_violations,
    verify_nsd,
    verify_total_coloring,
)


def gs(n, ds):
    return GeneratorSet(n, normalize_half_set(n, ds))


def is_perfect(matching, n):
    return len({x for e in matching for x in e}) == n


class _Timer:
    def __init__(self, number, limit, label):
        self.number, self.limit, self.label = number, limit, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print("criterion %2d: %s (%.2f s, limit %g s) %s"
              % (self.number, verdict, elapsed, self.limit, self.label))
        if exc_type is None:
            assert elapsed < self.limit, (
                "criterion %d exceeded %g s (%.2f s)"
                % (self.number, self.limit, elapsed))
        return False


def test_criterion_01_equitable_power_cycle_18_4():
    with _Timer(1, 1.0, "C_18^4 equitable, 9 colors, fixture match"):
        eq, _ = equitable_nsd_power_cycle(18, 4)
        report = verify_total_coloring(power_of_cycle(18, 4), eq.coloring)
        assert report.proper and report.equitable
        assert report.colors_used == 9
        assert reproduce_table(2) == 162


def test_criterion_02_nsd_power_cycle_18_4():
    with _Timer(2, 1.0, "C_18^4 NSD, <= 11 colors, fixture match"):
        _, nsd = equitable_nsd_power_cycle(18, 4)
        report = verify_nsd(power_of_cycle(18, 4), nsd.coloring)
        assert report.nsd is True
        assert report.colors_used <= 11
        assert nsd.coloring.edge_color(0, 1) == 10
        assert nsd.coloring.edge_color(0, 17) == 11
        assert reproduce_table(3) == 162


def test_criterion_03_odd_power_cycle_21_6():
    with _Timer(3, 5.0, "C_21^6 total coloring, <= 14 colors, fixture match"):
        rep = color_power_cycle_odd(21, 6, 1)
        report = verify_total_coloring(power_of_cycle(21, 6), rep.coloring)
        assert report.proper
        assert report.colors_used <= 14
        assert reproduce_table(1) == 147


def test_criterion_04_near_complete_z24():
    with _Timer(4, 1.0, "Z_24 {1,3,4,5,10}: 13-color coloring, fixture match"):
        g = build_circulant(24, [1, 3, 4, 5, 10])
        rep = color_thm32(g)
        report = verify_total_coloring(g, rep.coloring)
        assert report.proper
        assert report.colors_used == 13
        assert reproduce_table(4) == 250


def test_criterion_05_dense_z20():
    with _Timer(5, 30.0, "Z_20 {1..5,7,8}: <= 16 = degree+2 colors"):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        rep = color_thm31(g, gs(20, range(1, 6)))
        report = verify_total_coloring(g, rep.coloring)
        assert report.proper
        assert report.colors_used <= g.degree + 2 == 16


def test_criterion_06_z24_with_complement():
    with _Timer(6, 30.0, "Z_24 {1,3,4,5,7,10,11}: <= 17 = degree+3 colors"):
        g = build_circulant(24, [1, 3, 4, 5, 7, 10, 11])
        rep = color_thm33(g, gs(24, [1, 3, 4, 5, 10]))
        report = verify_total_coloring(g, rep.coloring)
        assert report.proper
        assert report.colors_used <= g.degree + 3 == 17


def test_criterion_07_z18_equitable_and_nsd():
    with _Timer(7, 5.0, "Z_18 {1,2,4,6,7,8}: equitable 13, NSD 15, fixtures"):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        eq, nsd = color_thm34(g, gs(18, [1, 2, 4, 6]))
        eq_report = verify_total_coloring(g, eq.coloring)
        assert eq_report.proper and eq_report.equitable
        assert eq_report.colors_used == 13 == g.degree + 1
        nsd_report = verify_nsd(g, nsd.coloring)
        assert nsd_report.nsd is True
        assert nsd_report.colors_used == 15
        starts = [eq.coloring.edge_color(0, s)
                  for s in (1, 2, 4, 6, 12, 14, 16, 17)]
        assert starts == [6, 2, 3, 4, 7, 8, 9, 5]
        assert reproduce_table(5) == 162
        assert reproduce_table(6) == 150


def test_criterion_08_oracle_cross_checks():
    with _Timer(8, 5.0, "oracle values; builders near-optimal for n <= 12"):
        known = [(6, 3), (5, 4), (7, 4), (9, 3)]
        for n, want in known:
            assert exact_total_chromatic(build_circulant(n, [1])).value == want
        assert exact_total_chromatic(build_circulant(4, [1, 2])).value == 5

        optimum = {}

        def oracle(n, k):
            if (n, k) not in optimum:
                optimum[(n, k)] = exact_total_chromatic(
                    power_of_cycle(n, k)).value
            return optimum[(n, k)]

        for n in range(4, 13):
            for k in range(1, (n - 1) // 2 + 1):
                for i in range(1, k + 2):
                    q = k + i
                    if q % 2 == 0 or n % q:
                        continue
                    if n % 2 == 0:
                        rep = color_power_cycle_even(n, k, i)
                        # type-I claim: exactly Delta + 1 colors
                        assert rep.colors_used == 2 * k + 1 == oracle(n, k)
                    else:
                        rep = color_power_cycle_odd(n, k, i)
                        assert rep.colors_used - oracle(n, k) <= 1
        for n in range(6, 13, 2):
            for k in range(1, (n - 1) // 2 + 1):
                if n % (2 * k + 1):
                    continue
                eq, _ = equitable_nsd_power_cycle(n, k)
                assert eq.colors_used == 2 * k + 1 == oracle(n, k)


def test_criterion_09_latin_square_suite():
    with _Timer(9, 5.0, "all odd q <= 99: latin+commutative+idempotent+anticirculant"):
        for q in range(1, 100, 2):
            rows = [[closed_form_entry(q, i, j) for j in range(1, q + 1)]
                    for i in range(1, q + 1)]
            cols = [list(c) for c in zip(*rows)]
            want = list(range(1, q + 1))
            # Latin, commutative, idempotent, anti-circulant
            assert all(sorted(r) == want for r in rows + cols), q
            assert cols == rows, q
            assert all(r[i] == i + 1 for i, r in enumerate(rows)), q
            assert all(b == a[1:] + a[:1] for a, b in zip(rows, rows[1:])), q


def test_criterion_10_factorization_suite():
    with _Timer(10, 60.0, "one_factorize on all generating subsets, n <= 12"):
        for n in range(4, 13, 2):
            half = n // 2
            for mask in range(1, 2 ** half):
                ds = [d for d in range(1, half + 1) if mask >> (d - 1) & 1]
                g = build_circulant(n, ds)
                try:
                    fac = one_factorize(g)
                except FactorizationImpossible:
                    # only non-generating sets (odd disconnected components)
                    # may fail
                    assert not generates_group(g.generators), (n, ds)
                    continue
                assert len(fac.factors) == g.degree
                classes = {}  # color -> its pairs, read from the columns
                for d, col in fac.columns.items():
                    for u, c in enumerate(col):
                        v = (u + d) % n
                        classes.setdefault(c, set()).add(
                            (u, v) if u < v else (v, u))
                assert sorted(classes) == list(fac.factors)
                seen = set()
                for f in classes.values():
                    assert is_perfect(f, n) and len(f) == n // 2
                    assert not f & seen
                    seen |= f
                assert seen == set(g.edges)


def test_criterion_11_mutation_testing():
    with _Timer(11, 10.0, "1000 single-cell corruptions all rejected"):
        bases = [
            (power_of_cycle(18, 4), equitable_nsd_power_cycle(18, 4)[0].coloring),
            (power_of_cycle(21, 6), color_power_cycle_odd(21, 6, 1).coloring),
            (build_circulant(24, [1, 3, 4, 5, 10]),
             color_thm32(build_circulant(24, [1, 3, 4, 5, 10])).coloring),
        ]
        rng = random.Random(20240824)
        for trial in range(1000):
            g, tc = bases[trial % len(bases)]
            if rng.random() < 0.3:
                # vertex corruption: copy a neighbor's vertex color
                u = rng.randrange(g.n)
                v = rng.choice(g.neighbors(u))
                vc = list(tc.vertex_colors)
                vc[u] = tc.vertex_colors[v]
                bad = type(tc)(tuple(vc), tc.columns)
                corrupted = ("v", u)
            else:
                # edge corruption: copy an endpoint's vertex color
                e = rng.choice([e for e, _ in tc.edge_items()])
                end = e[0] if rng.random() < 0.5 else e[1]
                bad = tc.with_edge_colors({e: tc.vertex_colors[end]})
                corrupted = ("e", e)
            violations = find_violations(g, bad)
            assert violations, (trial, corrupted)
            touched = False
            for viol in violations:
                if corrupted[0] == "v" and corrupted[1] in viol.witness:
                    touched = True
                if corrupted[0] == "e" and corrupted[1] in viol.witness:
                    touched = True
            assert touched, (trial, corrupted, violations[:3])
