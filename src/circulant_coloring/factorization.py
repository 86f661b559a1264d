"""1-factorization of even-order circulants, constructive Vizing edge
coloring, Hamiltonian cycles from unit generators, rainbow matchings.

The 1-factorization is structure-first: the involution distance gives one
factor directly and every distance whose cyclic orbits are even splits
into two factors by alternation.  Distances whose orbits are odd cycles
are pooled (topping the pool up with further distances until its
components have even order) and handled by an exact edge-coloring search;
existence is guaranteed for connected even-order circulants, so the node
budget only bounds time, never feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FactorizationImpossible,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from .graphs import CirculantGraph, Edge, GeneratorSet, build_circulant

# Node budget of each exact search in a build, unless the caller passes one.
DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Matching:
    """Set of pairwise vertex-disjoint edges."""

    edges: frozenset

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if e.u in seen or e.v in seen:
                raise ValueError("matching shares a vertex at %s" % (e,))
            seen.add(e.u)
            seen.add(e.v)

    def covered(self) -> set:
        out = set()
        for e in self.edges:
            out.add(e.u)
            out.add(e.v)
        return out

    def is_perfect(self, n: int) -> bool:
        return len(self.covered()) == n


@dataclass(frozen=True)
class Factorization:
    """Ordered perfect matchings partitioning the target edge set."""

    factors: tuple

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                sorted([e.u, e.v] for e in f.edges) for f in self.factors
            ]
        }


@dataclass(frozen=True)
class EdgeColoring:
    colors: dict  # Edge -> int

    def max_color(self) -> int:
        return max(self.colors.values()) if self.colors else 0


def _orbit_cycles(n: int, g: int) -> list[list[int]]:
    """Vertex cycles of the single distance g: gcd(n, g) cycles of length
    n // gcd(n, g)."""
    d = math.gcd(n, g)
    cycles = []
    for start in range(d):
        cyc = []
        x = start
        while True:
            cyc.append(x)
            x = (x + g) % n
            if x == start:
                break
        cycles.append(cyc)
    return cycles


def _alternate_cycle(cyc: list[int]) -> tuple[set, set]:
    a, b = set(), set()
    ln = len(cyc)
    for t in range(ln):
        e = Edge.of(cyc[t], cyc[(t + 1) % ln])
        (a if t % 2 == 0 else b).add(e)
    return a, b


def _exact_edge_coloring(edges, num_colors: int, budget: int,
                         start=None) -> dict | None:
    """Backtracking proper edge coloring with colors 1..num_colors.

    MRV edge selection with deterministic tie-breaks.  With a partial
    total coloring ``start``, its edges are skipped and every other edge
    also avoids the colors already present at its endpoints.  Returns
    Edge -> color for the edges colored here, or None if the search space
    is exhausted; raises SearchBudgetExceeded when the node budget runs
    out.
    """
    used = {}  # vertex -> set of colors
    if start is not None:
        used = {u: {c} for u, c in enumerate(start.vertex_colors)}
        for e, c in start.edge_colors.items():
            used[e.u].add(c)
            used[e.v].add(c)
        edges = [e for e in edges if e not in start.edge_colors]
    edges = sorted(edges)
    for e in edges:
        used.setdefault(e.u, set())
        used.setdefault(e.v, set())
    assignment = {}
    palette = set(range(1, num_colors + 1))
    nodes = 0

    def available(e: Edge):
        return palette - used[e.u] - used[e.v]

    def pick() -> Edge | None:
        best, best_n = None, num_colors + 1
        for e in edges:
            if e in assignment:
                continue
            a = len(available(e))
            if a < best_n:
                best, best_n = e, a
                if a == 0:
                    break
        return best

    def solve() -> bool:
        nonlocal nodes
        e = pick()
        if e is None:
            return True
        for c in sorted(available(e)):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "edge-coloring search exceeded %d nodes" % budget
                )
            assignment[e] = c
            used[e.u].add(c)
            used[e.v].add(c)
            if solve():
                return True
            del assignment[e]
            used[e.u].discard(c)
            used[e.v].discard(c)
        return False

    return assignment if solve() else None


def one_factorize(g: CirculantGraph,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> Factorization:
    """Partition g's edges into deg(g) perfect matchings.

    Requires even n.  Components of odd order make a perfect matching
    impossible and raise FactorizationImpossible; connected circulants of
    even order always succeed.  ``budget`` bounds the nodes of the exact
    search on pooled distances.
    """
    n = g.n
    if n % 2:
        raise PreconditionFailed(
            "1-factorization needs even order, got n=%d" % n)

    factors: list[frozenset] = []
    involution, peelable, pooled = None, [], []
    for d in g.gens:
        if 2 * d == n:
            involution = d
        elif (n // math.gcd(n, d)) % 2 == 0:
            peelable.append(d)
        else:
            pooled.append(d)

    if pooled:
        # grow the pool until its components have even order; the
        # involution is a last-resort donor (it would otherwise be a
        # one-step factor on its own)
        peelable.sort()
        while (n // math.gcd(n, *pooled)) % 2:
            movable = [
                d for d in peelable
                if (n // math.gcd(n, d, *pooled)) % 2 == 0
            ]
            if movable:
                pooled.append(movable[0])
                peelable.remove(movable[0])
            elif involution is not None and (
                    n // math.gcd(n, involution, *pooled)) % 2 == 0:
                pooled.append(involution)
                involution = None
            else:
                raise FactorizationImpossible(
                    "distances %r span components of odd order %d"
                    % (sorted(pooled), n // math.gcd(n, *pooled))
                )

    if involution is not None:
        factors.append(
            frozenset(Edge.of(u, u + involution) for u in range(n // 2)))

    for d in peelable:
        fac_a, fac_b = set(), set()
        for cyc in _orbit_cycles(n, d):
            a, b = _alternate_cycle(cyc)
            fac_a |= a
            fac_b |= b
        factors.append(frozenset(fac_a))
        factors.append(frozenset(fac_b))

    if pooled:
        factors.extend(_factorize_pool(n, sorted(pooled), budget))

    fac = Factorization(tuple(Matching(f) for f in factors))
    return fac


def _factorize_pool(n: int, pool: list[int], budget: int) -> list[frozenset]:
    """Joint factorization of the pooled distances via exact search.

    The pool's components are cosets of the subgroup generated by the
    pooled distances; one component is solved and the solution is
    translated to the others.
    """
    d0 = math.gcd(n, *pool)
    m = n // d0  # component order, even by construction
    comp = build_circulant(m, [p // d0 for p in pool])
    num_colors = comp.degree
    solution = _exact_edge_coloring(comp.edges, num_colors, budget)
    if solution is None:
        raise FactorizationImpossible(
            "no %d-edge-coloring of component circulant C_%d(%r)"
            % (num_colors, m, [p // d0 for p in pool])
        )
    factors = []
    for c in range(1, num_colors + 1):
        fac = set()
        for e, col in solution.items():
            if col != c:
                continue
            for coset in range(d0):
                fac.add(Edge.of((coset + e.u * d0) % n, (coset + e.v * d0) % n))
        factors.append(frozenset(fac))
    return factors


# -- constructive Vizing -----------------------------------------------------

def edge_color_delta_plus_one(edges) -> EdgeColoring:
    """Proper edge coloring with at most Delta+1 colors (fan rotation plus
    alternating-path recoloring).  Deterministic for a fixed edge order."""
    edges = sorted(Edge.of(*e) if not isinstance(e, Edge) else e for e in edges)
    adj = {}
    for e in edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    if not edges:
        return EdgeColoring({})
    delta = max(len(v) for v in adj.values())
    palette = list(range(1, delta + 2))
    color = {}
    used = {v: {} for v in adj}  # vertex -> color -> neighbor

    def set_color(a, b, c):
        e = Edge.of(a, b)
        old = color.get(e)
        if old is not None:
            del used[a][old]
            del used[b][old]
        color[e] = c
        used[a][c] = b
        used[b][c] = a

    def unset_color(a, b):
        e = Edge.of(a, b)
        old = color.pop(e, None)
        if old is not None:
            del used[a][old]
            del used[b][old]

    def free_color(x):
        for c in palette:
            if c not in used[x]:
                return c
        raise AssertionError("no free color at %d" % x)

    def build_fan(u, v):
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            for w in sorted(adj[u]):
                if w in in_fan:
                    continue
                cw = color.get(Edge.of(u, w))
                if cw is not None and cw not in used[last]:
                    fan.append(w)
                    in_fan.add(w)
                    break
            else:
                return fan

    def invert_path(u, c, d):
        # alternating path starting at u with color d, then c, ...
        flips = []
        x, cur = u, d
        visited = {u}
        while cur in used[x]:
            y = used[x][cur]
            flips.append((x, y, cur))
            if y in visited:
                break
            visited.add(y)
            x, cur = y, (c if cur == d else d)
        for a, b, col in flips:
            unset_color(a, b)
        for a, b, col in flips:
            set_color(a, b, c if col == d else d)

    def rotate_and_finish(u, fan, j, d):
        # unset first: shifting colors one step down the fan must not
        # transiently duplicate a color at u
        shifted = [color[Edge.of(u, fan[i + 1])] for i in range(j)]
        for i in range(j + 1):
            unset_color(u, fan[i])
        for i in range(j):
            set_color(u, fan[i], shifted[i])
        set_color(u, fan[j], d)

    def locally_proper(u, members):
        for x in [u] + members:
            cols = [color[Edge.of(x, w)] for w in adj[x] if Edge.of(x, w) in color]
            if len(cols) != len(set(cols)):
                return False
        return True

    for e in edges:
        u, v = e.u, e.v
        fan = build_fan(u, v)
        c = free_color(u)
        d = free_color(fan[-1])
        if c != d:
            invert_path(u, c, d)
        # choose the longest fan prefix that is still a fan after the
        # inversion and ends at a vertex where d is free
        snapshot = dict(color)
        done = False
        candidates = []
        for j in range(len(fan)):
            if j > 0:
                cw = color.get(Edge.of(u, fan[j]))
                if cw is None or cw in used[fan[j - 1]]:
                    break
            if d not in used[fan[j]]:
                candidates.append(j)
        for j in reversed(candidates):
            rotate_and_finish(u, fan, j, d)
            if locally_proper(u, fan):
                done = True
                break
            # undo and retry with a shorter prefix
            for ee, cc in list(color.items()):
                unset_color(ee.u, ee.v)
            for ee, cc in snapshot.items():
                set_color(ee.u, ee.v, cc)
        if not done:
            raise AssertionError("fan rotation failed at edge %s" % (e,))

    return EdgeColoring(dict(color))


# -- Hamiltonian cycles and rainbow matchings --------------------------------

def hamiltonian_cycle(g: CirculantGraph, gen: int) -> list[int]:
    """The cycle 0, gen, 2*gen, ... for a unit distance gen."""
    n = g.n
    if math.gcd(gen % n, n) != 1:
        raise PreconditionFailed("gcd(%d, %d) != 1" % (gen, n))
    folded = gen % n
    if folded > n // 2:
        folded = n - folded
    if folded not in g.gens:
        raise PreconditionFailed("%d is not a distance of the graph" % gen)
    return [(gen * t) % n for t in range(n)]


def split_rainbow_matchings(cycle: list[int], tc) -> tuple[Matching, Matching, tuple[bool, bool]]:
    """Alternate cycle edges into two matchings; each flag reports whether
    that matching is rainbow (pairwise distinct edge colors) under tc."""
    ln = len(cycle)
    if ln % 2:
        raise PreconditionFailed("cycle length %d is odd" % ln)
    first, second = set(), set()
    for t in range(ln):
        e = Edge.of(cycle[t], cycle[(t + 1) % ln])
        (first if t % 2 == 0 else second).add(e)

    def rainbow(edges):
        cols = [tc.edge_colors[e] for e in edges]
        return len(cols) == len(set(cols))

    m1, m2 = Matching(frozenset(first)), Matching(frozenset(second))
    return m1, m2, (rainbow(first), rainbow(second))
