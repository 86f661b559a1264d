import json
import math
import random
import subprocess
import sys

import pytest

from circulant_coloring.cli import EXIT_OK, main
from circulant_coloring.coloring import TotalColoring, coloring_from_json_dict
from circulant_coloring.constructions import (
    _constrained_total_search,
    _tiling,
    _verified,
    canonical_complete_coloring,
    canonical_first_row,
    color_power_cycle_even,
    color_power_cycle_odd,
    color_thm31,
    color_thm32,
    color_thm33,
    color_thm34,
    equitable_nsd_power_cycle,
)
from circulant_coloring.errors import (
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from circulant_coloring.factorization import (
    DEFAULT_SEARCH_BUDGET,
    _exact_edge_coloring,
)
from circulant_coloring.graphs import (
    GeneratorSet,
    build_circulant,
    normalize_half_set,
    power_of_cycle,
)
from circulant_coloring.latin import closed_form_entry
from circulant_coloring.oracle import _total_search
from circulant_coloring.verifiers import (
    TypeLabel,
    verify_nsd,
    verify_total_coloring,
)


def gs(n, ds):
    return GeneratorSet(n, normalize_half_set(n, ds))


def check_built(g, report):
    out = verify_total_coloring(g, report.coloring)
    assert out.proper
    assert out.colors_used == report.colors_used
    return out


class TestPowerCycleEven:
    @pytest.mark.parametrize(
        "n,k,i", [(18, 4, 5), (6, 1, 2), (10, 2, 3), (12, 2, 1), (30, 4, 1)])
    def test_exact_type_one(self, n, k, i):
        report = color_power_cycle_even(n, k, i)
        out = check_built(power_of_cycle(n, k), report)
        assert report.colors_used == 2 * k + 1
        assert out.type_label is TypeLabel.TYPE_I

    def test_odd_orbit_residual_swapped_into_tiling(self):
        # distance 2 on Z_18 has odd orbits, so it is tiled and distance 1
        # goes to the alternating 1-factorization instead
        report = color_power_cycle_even(18, 2, 1)
        assert "tiled distances [2]" in report.notes
        assert report.colors_used == 5
        check_built(power_of_cycle(18, 2), report)

    @pytest.mark.parametrize(
        "n,k,i",
        [(9, 1, 2),     # odd n
         (6, 3, 2),     # k out of range
         (6, 1, 4),     # i out of range
         (6, 1, 1),     # k+i even
         (8, 1, 2)])    # k+i does not divide n
    def test_preconditions(self, n, k, i):
        with pytest.raises(PreconditionFailed):
            color_power_cycle_even(n, k, i)

    def test_sweep_all_admissible(self):
        # every admissible instance must land exactly on 2k+1 colors
        for n in range(4, 31, 2):
            for k in range(1, (n - 1) // 2 + 1):
                for i in range(1, k + 2):
                    q = k + i
                    if q % 2 == 0 or n % q:
                        continue
                    report = color_power_cycle_even(n, k, i)
                    assert report.colors_used == 2 * k + 1, (n, k, i)


class TestFallbackCompletion:
    """The exact search that colors the residual distances inside the
    2k+1 colors when their 1-factorization fails or runs out of budget."""

    @staticmethod
    def order7_tiling_of_c28_6():
        return _tiling(28, 7, [1, 2, 3]), build_circulant(28, [4, 5, 6])

    def test_completes_within_palette(self):
        tc, residual = self.order7_tiling_of_c28_6()
        done = _exact_edge_coloring(residual.edges, 13, DEFAULT_SEARCH_BUDGET,
                                    start=tc)
        assert set(done) == set(residual.edges)
        report = verify_total_coloring(power_of_cycle(28, 6),
                                       tc.with_edge_colors(done))
        assert report.proper
        assert report.colors_used <= 13

    def test_budget_exhausted(self):
        tc, residual = self.order7_tiling_of_c28_6()
        with pytest.raises(SearchBudgetExceeded, match="exceeded 10 nodes"):
            _exact_edge_coloring(residual.edges, 13, 10, start=tc)

    def test_builder_falls_back(self):
        # the pooled 1-factorization of the residual distances needs 428
        # nodes, the completion 120
        report = color_power_cycle_even(30, 11, 4, budget=150)
        assert report.fallback_used
        check_built(power_of_cycle(30, 11), report)
        assert report.colors_used == report.bound_claimed == 23

    def test_claimed_bound_always_checked(self):
        tc = color_power_cycle_even(18, 4, 5).coloring
        with pytest.raises(VerificationFailed,
                           match="used 9 colors, claimed bound 8"):
            _verified(power_of_cycle(18, 4), tc, 8)


class TestPowerCycleOdd:
    @pytest.mark.parametrize(
        "n,k,i,colors", [(21, 6, 1, 14), (9, 1, 2, 3), (15, 2, 1, 6)])
    def test_within_bound(self, n, k, i, colors):
        report = color_power_cycle_odd(n, k, i)
        check_built(power_of_cycle(n, k), report)
        assert report.colors_used == colors
        assert report.colors_used <= 2 * k + 2

    @pytest.mark.parametrize(
        "n,k,i",
        [(8, 1, 2),     # even n
         (9, 4, 1),     # k out of range
         (9, 1, 3),     # i out of range
         (9, 1, 1),     # k+i even
         (11, 1, 2)])   # k+i does not divide n
    def test_preconditions(self, n, k, i):
        with pytest.raises(PreconditionFailed):
            color_power_cycle_odd(n, k, i)

    def test_vizing_residual_beyond_benchmark_size(self):
        # the residual C_2321(6..10) has 11,605 edges, more than any
        # benchmark instance; no timing assert, only properness and bound
        report = color_power_cycle_odd(2321, 10, 1)
        out = check_built(power_of_cycle(2321, 10), report)
        assert out.colors_used <= 22

    def test_sweep_all_admissible(self):
        for n in range(5, 30, 2):
            for k in range(1, (n - 1) // 2 + 1):
                for i in range(1, k + 2):
                    q = k + i
                    if q % 2 == 0 or n % q:
                        continue
                    report = color_power_cycle_odd(n, k, i)
                    assert report.colors_used <= 2 * k + 2, (n, k, i)


class TestEquitableNsdPowerCycle:
    def test_z18_pair(self):
        eq, nsd = equitable_nsd_power_cycle(18, 4)
        g = power_of_cycle(18, 4)
        assert check_built(g, eq).equitable
        assert eq.colors_used == 9
        assert verify_nsd(g, nsd.coloring).nsd is True
        assert nsd.colors_used <= 11

    def test_smallest_instance(self):
        eq, nsd = equitable_nsd_power_cycle(6, 1)
        g = power_of_cycle(6, 1)
        assert check_built(g, eq).equitable
        assert verify_nsd(g, nsd.coloring).nsd is True

    def test_nsd_only_touches_distance_one_edges(self):
        eq, nsd = equitable_nsd_power_cycle(18, 4)
        for e, c in nsd.coloring.edge_items():
            if (e[1] - e[0]) % 18 not in (1, 17):
                assert c == eq.coloring.edge_color(*e)

    def test_each_coloring_verified_once(self, monkeypatch):
        # the base colouring's report from color_power_cycle_even is
        # reused for equitability; the recoloured one goes through NSD
        from circulant_coloring import constructions
        seen = []
        for name in ("verify_total_coloring", "verify_equitable", "verify_nsd"):
            def spy(g, tc, check=getattr(constructions, name), name=name):
                seen.append((name, tc))
                return check(g, tc)
            monkeypatch.setattr(constructions, name, spy)
        eq, nsd = equitable_nsd_power_cycle(18, 4)
        assert seen == [("verify_total_coloring", eq.coloring),
                        ("verify_nsd", nsd.coloring)]

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            equitable_nsd_power_cycle(9, 1)
        with pytest.raises(PreconditionFailed):
            equitable_nsd_power_cycle(16, 1)


class TestCanonicalPattern:
    def test_k9_first_row(self):
        assert canonical_first_row(9) == [1, 6, 2, 7, 3, 8, 4, 9, 5]

    def test_k13_first_row(self):
        assert canonical_first_row(13) == [
            1, 8, 2, 9, 3, 10, 4, 11, 5, 12, 6, 13, 7]

    def test_odd_rows_are_permutations(self):
        for m in range(3, 26, 2):
            assert sorted(canonical_first_row(m)) == list(range(1, m + 1))

    def test_shift_property_odd_orders(self):
        # row[m - s] = row[s] - s (mod m), which makes the subdiagonal
        # pattern consistent for a distance seen from both endpoints
        for m in range(3, 16, 2):
            row = canonical_first_row(m)
            for s in range(1, m):
                assert (row[m - s] - (row[s] - s)) % m == 0, (m, s)

    def test_odd_complete_graph_proper(self):
        for m in (3, 5, 7, 9, 11):
            result = canonical_complete_coloring(m)
            assert result.report.proper
            assert result.report.colors_used == m

    def test_even_complete_graph_reported_improper(self):
        result = canonical_complete_coloring(4)
        assert not result.report.proper
        assert result.report.violations

    def test_too_small(self):
        with pytest.raises(PreconditionFailed):
            canonical_first_row(1)

    @staticmethod
    def reference_first_row(m):
        """The two-branch row the halving rule replaced: an even distance
        s maps to s/2 + 1, an odd one to ceil(m/2) + ceil(s/2), mod m."""
        row = [1]
        for s in range(1, m):
            if s % 2 == 0:
                val = s // 2 + 1
            else:
                val = math.ceil(m / 2) + (s + 1) // 2
            row.append((val - 1) % m + 1)
        return row

    def test_matches_two_branch_row(self):
        for m in range(2, 201):
            assert canonical_first_row(m) == self.reference_first_row(m), m

    def test_odd_row_is_the_latin_square_row(self):
        for m in range(3, 100, 2):
            assert canonical_first_row(m) == [
                closed_form_entry(m, 1, j) for j in range(1, m + 1)], m


class TestThm31:
    def test_z12(self):
        g = build_circulant(12, [1, 2, 3, 5])
        report = color_thm31(g, gs(12, [1, 2, 3]))
        check_built(g, report)
        assert report.colors_used <= g.degree + 2

    def test_z20(self):
        g = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
        report = color_thm31(g, gs(20, range(1, 6)))
        check_built(g, report)
        assert report.colors_used == 16 == g.degree + 2

    def test_wrong_inner_subset(self):
        g = build_circulant(12, [1, 2, 3, 5])
        with pytest.raises(PreconditionFailed):
            color_thm31(g, gs(12, [1, 2]))

    def test_odd_n(self):
        g = build_circulant(15, [1, 2, 3, 4, 5])
        with pytest.raises(PreconditionFailed):
            color_thm31(g, gs(15, [1, 2, 3]))

    def test_sparse_rejected(self):
        g = build_circulant(12, [1, 2])
        with pytest.raises(PreconditionFailed):
            color_thm31(g, gs(12, [1, 2, 3]))

    def test_involution_rejected(self):
        g = build_circulant(12, [1, 2, 3, 5, 6])
        with pytest.raises(PreconditionFailed):
            color_thm31(g, gs(12, [1, 2, 3]))

    def test_non_generating_complement(self):
        g = build_circulant(12, [1, 2, 3, 4])
        with pytest.raises(PreconditionFailed):
            color_thm31(g, gs(12, [1, 2, 3]))


def reference_constrained_search(power, full, num_colors, budget):
    """The recursive search the kernel replaced in thm31's power part,
    kept as its reference: (coloring or None, elements in the order
    colored, nodes)."""
    n = power.n
    elements = [("v", u) for u in range(n)] + [("e", e) for e in power.edges]
    conf = {el: set() for el in elements}

    def link(a, b):
        conf[a].add(b)
        conf[b].add(a)

    for u in range(n):
        for w in full.neighbors(u):
            if u < w:
                link(("v", u), ("v", w))
    at_vertex = {u: [] for u in range(n)}
    for e in power.edges:
        link(("v", e[0]), ("e", e))
        link(("v", e[1]), ("e", e))
        for end in e:
            for other in at_vertex[end]:
                link(("e", other), ("e", e))
            at_vertex[end].append(e)

    assignment = {}
    nodes = 0

    def available(el, max_used):
        forbidden = {assignment[x] for x in conf[el] if x in assignment}
        top = min(num_colors, max_used + 1)
        return [c for c in range(1, top + 1) if c not in forbidden]

    def solve(max_used) -> bool:
        nonlocal nodes
        best, best_av = None, None
        for el in elements:
            if el in assignment:
                continue
            av = available(el, max_used)
            if best_av is None or len(av) < len(best_av):
                best, best_av = el, av
                if len(av) <= 1:
                    break
        if best is None:
            return True
        for c in best_av:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "power-part search exceeded %d nodes" % budget)
            assignment[best] = c
            if solve(max(max_used, c)):
                return True
            del assignment[best]
        return False

    if not solve(0):
        return None, [], nodes
    tc = TotalColoring.from_pairs(
        tuple(assignment[("v", u)] for u in range(n)),
        {e: assignment[("e", e)] for e in power.edges})
    return tc, list(assignment), nodes


def kernel_constrained_search(power, full, num_colors, budget):
    """The kernel with thm31's pick, in the reference's terms."""
    n = power.n
    colors, order, nodes = _total_search(
        n, power.edges, [full.neighbors(u) for u in range(n)], num_colors,
        budget, "power-part", dsatur=False)
    if colors is None:
        return None, [], nodes
    tc = TotalColoring.from_pairs(tuple(colors[:n]),
                                  dict(zip(power.edges, colors[n:])))
    elements = [("v", u) for u in range(n)] + [("e", e) for e in power.edges]
    return tc, [elements[x] for x in order], nodes


class TestConstrainedSearch:
    """thm31's power-part search on the kernel against the recursive
    reference: same colorings, colouring order and node counts."""

    @pytest.mark.parametrize("n,nodes", [(20, 120), (24, 168)])
    def test_thm31_power_parts(self, n, nodes):
        # the benchmark's thm31 instances: distances 1..n/2-1, no tiling
        # order fits, so the power part C_n^{n/4} is searched
        full = build_circulant(n, range(1, n // 2))
        power = power_of_cycle(n, n // 4)
        want = reference_constrained_search(power, full, n // 2 + 2, 10**6)
        assert want[2] == nodes
        assert kernel_constrained_search(power, full, n // 2 + 2,
                                         nodes) == want
        assert _constrained_total_search(power, full, n // 2 + 2,
                                         nodes) == want[0]
        with pytest.raises(SearchBudgetExceeded,
                           match="power-part search exceeded %d nodes"
                           % (nodes - 1)):
            _constrained_total_search(power, full, n // 2 + 2, nodes - 1)

    def test_random_instances(self):
        # small palettes too, where both exhaust the search or run out
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(4, 10)
            kk = rng.randint(1, (n - 1) // 2)
            extra = rng.sample(range(kk + 1, n // 2 + 1),
                               rng.randint(0, n // 2 - kk))
            full = build_circulant(n, list(range(1, kk + 1)) + extra)
            power = power_of_cycle(n, kk)
            palette = rng.randint(2 * kk, 2 * kk + 3)
            try:
                want = reference_constrained_search(power, full, palette, 3000)
            except SearchBudgetExceeded:
                with pytest.raises(SearchBudgetExceeded):
                    kernel_constrained_search(power, full, palette, 3000)
                continue
            assert kernel_constrained_search(power, full, palette,
                                             3000) == want
            if want[0] is None:
                with pytest.raises(VerificationFailed):
                    _constrained_total_search(power, full, palette, 3000)

    GENS_64 = ",".join(map(str, range(1, 31)))

    def test_thm31_n64(self, capsys):
        # 1,088 elements: the recursive search ended in a RecursionError
        assert main(["color", "--method", "thm31", "--n", "64", "--gens",
                     self.GENS_64, "--format", "json"]) == EXIT_OK
        tc = coloring_from_json_dict(json.loads(capsys.readouterr().out))
        report = verify_total_coloring(build_circulant(64, range(1, 31)), tc)
        assert report.proper and report.colors_used <= 62

    def test_thm31_n64_under_low_recursion_limit(self):
        script = ("import sys; sys.setrecursionlimit(200); "
                  "from circulant_coloring.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "color", "--method", "thm31",
             "--n", "64", "--gens", self.GENS_64, "--format", "json"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["report"]["colors_used"] <= 62


class TestThm32:
    def test_z24(self):
        g = build_circulant(24, [1, 3, 4, 5, 10])
        report = color_thm32(g)
        check_built(g, report)
        assert report.colors_used == 13 == g.degree + 3

    def test_not_sum_free(self):
        with pytest.raises(PreconditionFailed):
            color_thm32(build_circulant(8, [1, 3]))

    def test_wrong_degree(self):
        with pytest.raises(PreconditionFailed):
            color_thm32(build_circulant(24, [1, 3, 4]))

    def test_odd_n(self):
        with pytest.raises(PreconditionFailed):
            color_thm32(build_circulant(9, [1, 2]))


class TestThm33:
    def test_z24(self):
        g = build_circulant(24, [1, 3, 4, 5, 7, 10, 11])
        report = color_thm33(g, gs(24, [1, 3, 4, 5, 10]))
        check_built(g, report)
        assert report.colors_used == 17 == g.degree + 3

    def test_m_not_subset(self):
        g = build_circulant(24, [1, 3, 4, 5, 10])
        with pytest.raises(PreconditionFailed):
            color_thm33(g, gs(24, [1, 2, 3, 4, 5]))

    def test_empty_complement(self):
        g = build_circulant(24, [1, 3, 4, 5, 10])
        with pytest.raises(PreconditionFailed):
            color_thm33(g, gs(24, [1, 3, 4, 5, 10]))

    def test_m_not_sum_free(self):
        g = build_circulant(24, [1, 2, 3, 5, 10, 11])
        with pytest.raises(PreconditionFailed):
            color_thm33(g, gs(24, [1, 2, 3, 5, 10]))


class TestThm34:
    def test_z18_pair(self):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        eq, nsd = color_thm34(g, gs(18, [1, 2, 4, 6]))
        assert check_built(g, eq).equitable
        assert eq.colors_used == 13 == g.degree + 1
        report = verify_nsd(g, nsd.coloring)
        assert report.nsd is True
        assert nsd.colors_used == 15 == g.degree + 3

    def test_subset_residues_must_be_distinct(self):
        # distances 1 and 8 collide: 1 and 10 = 18 - 8 agree mod 9
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        with pytest.raises(PreconditionFailed):
            color_thm34(g, gs(18, [1, 2, 6, 8]))

    def test_subset_size(self):
        g = build_circulant(18, [1, 2, 4, 6, 7, 8])
        with pytest.raises(PreconditionFailed):
            color_thm34(g, gs(18, [1, 2, 4]))

    def test_half_must_be_odd(self):
        g = build_circulant(16, [1, 2, 3, 4, 5])
        with pytest.raises(PreconditionFailed):
            color_thm34(g, gs(16, [1, 2, 3]))

    def test_involution_rejected(self):
        # u and u + 9 share a vertex color, so the involution 9 of Z_18
        # could never be colored properly
        g = build_circulant(18, [1, 2, 4, 6, 7, 9])
        with pytest.raises(PreconditionFailed, match="involution n/2 = 9"):
            color_thm34(g, gs(18, [1, 2, 4, 6]))
