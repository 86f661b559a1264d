"""1-factorization of even-order circulants, constructive Vizing edge
coloring, Hamiltonian cycles from unit generators, rainbow matchings.

The 1-factorization is structure-first: the involution distance gives one
factor directly and every distance whose cyclic orbits are even splits
into two factors by alternation.  Distances whose orbits are odd cycles
are pooled (topping the pool up with further distances until its
components have even order) and handled by an exact edge-coloring search;
existence is guaranteed for connected even-order circulants, so the node
budget only bounds time, never feasibility.  The search is iterative, on
an explicit stack with bitmask color domains, so its depth is not bound
by Python's recursion limit.  It cuts a placement at once when it leaves
a tight vertex (as many free colors as uncolored edges, as at every
vertex of the pooled search) a free color that none of its uncolored
edges can take.  Only subtrees without a solution are cut, so it finds
the same coloring as the plain backtracking search, never in more nodes.

The Delta+1 edge coloring is Misra-Gries fan rotation: one maximal fan,
one c/d path inversion and one rotation per edge, with no search, on a
color-indexed neighbor array and a used-color bitmask per vertex.

The factors come out as color columns in the layout of
TotalColoring.columns, each factor one color: a peeled distance d with
g = gcd(n, d) alternates its two colors in runs of g slots (n/g is even
and d/g odd, so the orbit position of u has the parity of u // g); the
involution's column is one color; a pooled component's columns are stretched to Z_n.  The
1-factorization builds no matching as a set of pairs.  An edge is the
pair (u, v) with u < v.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .coloring import TotalColoring
from .errors import (
    FactorizationImpossible,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from .graphs import CirculantGraph, build_circulant

# Node budget of each exact search in a build, unless the caller passes one.
DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Factorization:
    """A 1-factorization as color columns: columns[d][u] is the color of
    the pair {u, u + d mod n}, as in TotalColoring.columns, and each
    color class is a perfect matching.  ``factors`` is the range of those
    colors, one per factor; it stays so that len(factors) counts the
    factors without a scan of the columns (the benchmark trace reads it).
    """

    columns: dict
    factors: range


@dataclass(frozen=True)
class EdgeColoring:
    colors: dict  # (u, v) -> int


def _exact_edge_coloring(edges, num_colors: int, budget: int,
                         start=None) -> dict | None:
    """Backtracking proper edge coloring with colors 1..num_colors.

    Iterative, on an explicit stack of [edge index, colors not yet tried
    as a bitmask], with one used-color bitmask per vertex and a count of
    free colors per uncolored edge.  The next edge is the first in sorted
    order with the fewest free colors (MRV); its colors are tried in
    ascending order, one search node each.  Placing or undoing a color
    updates the counts of the edges at its two endpoints only.

    A vertex is tight when it has as many free colors as uncolored
    edges, so each free color must go on one of those edges; placing a
    color keeps a vertex tight or not.  A placement of color b on (u, v)
    is a dead end, counted as a node and undone at once, when u or v is
    tight and has a free color that none of its uncolored edges can
    take, or when the far end of an uncolored edge at u or v is tight,
    lacks b and has no uncolored edge left that can take b.  Such a
    subtree holds no coloring, so the first coloring found and its order
    are those of the plain search, in at most its nodes.

    With a partial total coloring ``start``, its edges are skipped and
    every other edge also avoids the colors already present at its
    endpoints.  Returns (u, v) -> color for the edges colored here, in the
    order they were colored, or None if the search space is exhausted;
    raises SearchBudgetExceeded when the node budget runs out.
    """
    edges = sorted(edges if start is None
                   else [e for e in edges if start.edge_color(*e) is None])
    n = max((v for _, v in edges), default=-1) + 1
    if start is not None:
        n = max(n, start.n)
    full = (1 << (num_colors + 1)) - 2  # bit c stands for color c
    used = [0] * n
    if start is not None:
        for u, c in enumerate(start.vertex_colors):
            used[u] |= 1 << c
        for (u, v), c in start.edge_items():
            used[u] |= 1 << c
            used[v] |= 1 << c
        used = [m & full for m in used]
    incident = [[] for _ in range(n)]  # vertex -> [(edge index, other end)]
    for j, (u, v) in enumerate(edges):
        incident[u].append((j, v))
        incident[v].append((j, u))
    # edge -> [(edge sharing an endpoint, that edge's far end)]
    near = [[kw for kw in incident[u] + incident[v] if kw[0] != j]
            for j, (u, v) in enumerate(edges)]
    color = [0] * len(edges)  # edge index -> bit of its color, 0 if none
    free = [bin(full & ~(used[u] | used[v])).count("1") for u, v in edges]
    tight = [bin(full & ~used[x]).count("1") == len(incident[x])
             for x in range(n)]

    def dead(j, bit) -> bool:
        """After bit went on edge j: a tight vertex has a free color that
        none of its uncolored edges can take."""
        for x in edges[j]:
            if tight[x]:
                need = full & ~used[x]
                for k, w in incident[x]:
                    if not color[k]:
                        need &= used[w]
                        if not need:
                            break
                if need:
                    return True
        for k, w in near[j]:
            if not color[k] and tight[w] and not used[w] & bit:
                for i, y in incident[w]:
                    if not color[i] and not used[y] & bit:
                        break
                else:
                    return True
        return False

    # Colored edges hold a count above every real one, so the first
    # uncolored edge with the fewest free colors is the first index of the
    # least count: memchr over a bytearray when counts fit a byte.
    done = num_colors + 1
    narrow = done < 256
    cnt = bytearray(free) if narrow else free

    def pick() -> int:
        if narrow:
            for c in range(done):
                j = cnt.find(c)
                if j >= 0:
                    return j
            return -1
        least = min(cnt, default=done)
        return cnt.index(least) if least < done else -1

    stack = []
    nodes = 0
    while True:
        j = pick()
        if j < 0:
            return {edges[i]: color[i].bit_length() - 1 for i, _ in stack}
        u, v = edges[j]
        stack.append([j, full & ~(used[u] | used[v])])
        while True:
            frame = stack[-1]
            j, untried = frame
            u, v = edges[j]
            bit = color[j]
            if bit:  # undo the color tried last
                used[u] ^= bit
                used[v] ^= bit
                color[j] = 0
                for k, w in near[j]:
                    if not color[k] and not used[w] & bit:
                        cnt[k] += 1
            if not untried:
                stack.pop()
                cnt[j] = bin(full & ~(used[u] | used[v])).count("1")
                if not stack:
                    return None
                continue
            bit = untried & -untried
            frame[1] = untried ^ bit
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "edge-coloring search exceeded %d nodes" % budget)
            color[j] = bit
            cnt[j] = done
            used[u] |= bit
            used[v] |= bit
            for k, w in near[j]:
                if not color[k] and not used[w] & bit:
                    cnt[k] -= 1
            if not dead(j, bit):
                break


def one_factorize(g: CirculantGraph, first_color: int = 1,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> Factorization:
    """Partition g's edges into deg(g) perfect matchings, colored
    first_color, first_color + 1, ... in order: the involution, then two
    per peeled distance, then the pooled distances.

    Requires even n.  Components of odd order make a perfect matching
    impossible and raise FactorizationImpossible; connected circulants of
    even order always succeed.  ``budget`` bounds the nodes of the exact
    search on pooled distances.
    """
    n = g.n
    if n % 2:
        raise PreconditionFailed(
            "1-factorization needs even order, got n=%d" % n)

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

    columns, c = {}, first_color
    if involution is not None:
        columns[involution] = [c] * (n // 2)
        c += 1

    for d in peelable:
        h = math.gcd(n, d)
        columns[d] = ([c] * h + [c + 1] * h) * (n // (2 * h))
        c += 2

    if pooled:
        columns.update(_factorize_pool(n, sorted(pooled), c, budget))

    return Factorization(columns, range(first_color, first_color + g.degree))


def _factorize_pool(n: int, pool: list[int], first_color: int,
                    budget: int) -> dict:
    """Joint factorization of the pooled distances via exact search, as
    columns colored from first_color.

    The pool's components are the cosets of the subgroup generated by the
    pooled distances, each a copy of C_m(pool / d0).  One component is
    solved, and each of its columns is stretched to Z_n: the slot of x
    takes the slot of x // d0 in the column of d / d0.
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
    shift = first_color - 1
    comp_columns = TotalColoring.from_pairs([None] * m, solution).columns
    return {p * d0: [c + shift for c in col for _ in range(d0)]
            for p, col in comp_columns.items()}


# -- constructive Vizing -----------------------------------------------------

def edge_color_delta_plus_one(edges) -> EdgeColoring:
    """Proper edge coloring with at most Delta+1 colors by Misra-Gries fan
    rotation (Misra & Gries, "A constructive proof of Vizing's theorem",
    IPL 41, 1992).

    Each vertex x keeps two structures: ``at[x][c]``, its neighbor across
    the edge of color c (None while c is free at x), and ``used[x]``, a
    bitmask with bit c set for each color at x.  Deterministic: edges are
    colored in sorted order; the next fan vertex is the smallest
    ``at[u][c]`` over the bits c of ``used[u] & ~used[last]`` not yet in
    the fan; c and d are the lowest free colors of u and of the last fan
    vertex; and the c/d path from u, starting with d, is inverted by
    swapping ``at[x][c]`` and ``at[x][d]`` along it, with mask changes at
    its two ends only.  The colors are read out of ``at`` at the end.
    """
    pairs = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    loop = next((e for e in pairs if e[0] == e[1]), None)
    if loop is not None:
        raise ValueError("self-loop edge (%d, %d)" % loop)
    if not pairs:
        return EdgeColoring({})
    degree = Counter(x for e in pairs for x in e)
    width = max(degree.values()) + 2  # colors 1..Delta+1
    at = {x: [None] * width for x in degree}
    used = dict.fromkeys(degree, 0)

    for u, v in pairs:
        at_u, mask_u = at[u], used[u]
        # maximal fan: each next neighbor's edge color is free at the last;
        # cols[t] is the color of (u, fan[t]), 0 for the uncolored (u, v)
        fan, cols, in_fan, last = [v], [0], 0, v
        while bits := mask_u & ~used[last] & ~in_fan:
            last = None
            while bits:
                bit = bits & -bits
                bits ^= bit
                w = at_u[bit.bit_length() - 1]
                if last is None or w < last:
                    last, last_bit = w, bit
            fan.append(last)
            cols.append(last_bit.bit_length() - 1)
            in_fan |= last_bit
        m = mask_u | 1
        c = (~m & (m + 1)).bit_length() - 1
        m = used[last] | 1
        d = (~m & (m + 1)).bit_length() - 1
        if c != d and at_u[d] is not None:
            # c is free at u, so the d/c path from u is a path, not a cycle
            y, cur = u, c
            while y is not None:
                at_y = at[y]
                at_y[c], at_y[d] = at_y[d], at_y[c]
                x, y, cur = y, at_y[cur], c + d - cur
            used[u] ^= 1 << c | 1 << d
            used[x] ^= 1 << c | 1 << d
            if in_fan >> d & 1:
                cols[cols.index(d)] = c
        # d is now free at u; the longest prefix that is still a fan and
        # ends where d is free exists and rotates properly (Misra-Gries)
        j = None
        for t, w in enumerate(fan):
            if t and used[fan[t - 1]] >> cols[t] & 1:
                break
            if not used[w] >> d & 1:
                j = t
        for w, old, new in zip(fan, cols, cols[1:j + 1] + [d]):
            at_w = at[w]
            at_w[old], at_w[new], at_u[new] = None, u, w
            used[w] = used[w] & ~(1 << old) | 1 << new
        used[u] |= 1 << d

    found = {(x, y): c for x, at_x in at.items()
             for c, y in enumerate(at_x) if y is not None and x < y}
    return EdgeColoring({e: found[e] for e in pairs})


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


def split_rainbow_matchings(cycle: list[int], tc) -> tuple[frozenset, frozenset, tuple[bool, bool]]:
    """Alternate cycle edges into two matchings; each flag reports whether
    that matching is rainbow (pairwise distinct edge colors) under tc."""
    if len(cycle) % 2:
        raise PreconditionFailed("cycle length %d is odd" % len(cycle))
    pairs = [(u, v) if u < v else (v, u)
             for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    first, second = frozenset(pairs[0::2]), frozenset(pairs[1::2])

    def rainbow(edges):
        cols = [tc.edge_color(u, v) for u, v in edges]
        return len(cols) == len(set(cols))

    return first, second, (rainbow(first), rainbow(second))
