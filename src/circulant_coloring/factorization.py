"""1-factorization of even-order circulants and constructive Vizing edge
coloring.

The 1-factorization is structure-first: the involution distance gives one
factor directly and every distance whose cyclic orbits are even splits
into two factors by alternation.  Distances whose orbits are odd cycles
are pooled with one donor distance, which gives the pool's components
even order, and handled by an exact edge-coloring search; existence is
guaranteed for connected even-order circulants, so the node budget only
bounds time, never feasibility.  thm21-even's fallback is the
pooled search over every residual distance: _factorize_pool on all of
them at once.  The search is iterative, on an explicit stack with bitmask
color domains, so its depth is not bound by Python's recursion limit.
Each placement is one pass over the edges that share an endpoint with
it: the pass lowers their free-color counts and, on the same edges,
tests for a dead end; _exact_edge_coloring states its two cut rules.
Only subtrees without a solution are cut, so it finds the same coloring
as the plain backtracking search, never in more nodes.

Both kernels color the edges of a circulant: the pool's component, or
thm21-odd's residual distances.  The Delta+1 edge coloring is Misra-Gries
fan rotation: one maximal fan, one c/d path inversion and one rotation
per edge, with no search, on a color-indexed neighbor list and a
used-color bitmask per vertex; the colors are read out once, in sorted
pair order, from first_color up.

The factors come out as color columns in the layout of
TotalColoring.columns, each factor one color: a peeled distance d with
g = gcd(n, d) alternates its two colors in runs of g slots (n/g is even
and d/g odd, so the orbit position of u has the parity of u // g); the
involution's column is one color; a pooled component's columns are
stretched to Z_n.  The 1-factorization builds no matching as a set of
pairs.  An edge is the pair (u, v) with u < v.
"""

from __future__ import annotations

import math
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

# The exact search keeps free-color counts below this in a bytearray.
_BYTE_LIMIT = 256


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
    """colors[(u, v)], u < v, in sorted order: keyed by pair, not column,
    as the benchmark trace counts the edges colored by len(colors)."""

    colors: dict


def _exact_edge_coloring(g: CirculantGraph, budget: int) -> dict | None:
    """Backtracking proper edge coloring of g.edges with colors
    1..g.degree.

    Iterative, on a stack held as two parallel lists (edge indices, and
    the colors each has not yet tried as a bitmask), with one used-color
    bitmask per vertex and a count of free colors per uncolored edge.
    The next edge is the first in g.edges with the fewest free colors
    (MRV); its colors are tried in ascending order, one search node each.

    g is Delta-regular and colored with Delta colors, so at every vertex
    each free color must go on one of its uncolored edges: the two cut
    rules rest on that.  Placing color b on (u, v) is one loop over the
    edges that share u or v.  It lowers the free count of each uncolored
    one whose far end w lacks b, and on that edge applies the far-end
    rule: the placement is a dead end if w has no uncolored edge left
    that can take b.  Every count is lowered even after the rule fires.
    The endpoint rule then runs at u, then at v: a dead end if the vertex
    has a free color that none of its uncolored edges can take.  A dead
    end is counted as a node and undone at once; undoing raises the same
    counts again.  Such a subtree holds no coloring, so the first
    coloring found and its order are those of the plain search, in at
    most its nodes.

    Returns (u, v) -> color, in the order the edges were colored, or None
    if the search space is exhausted; raises SearchBudgetExceeded when the
    node budget runs out.
    """
    edges, delta = g.edges, g.degree
    full = (1 << (delta + 1)) - 2  # bit c stands for color c
    used = [0] * g.n
    incident = [[] for _ in range(g.n)]  # vertex -> [(edge index, other end)]
    for j, (u, v) in enumerate(edges):
        incident[u].append((j, v))
        incident[v].append((j, u))
    # edge -> [(edge sharing an endpoint, that edge's far end)]
    near = [[kw for kw in incident[u] + incident[v] if kw[0] != j]
            for j, (u, v) in enumerate(edges)]
    color = [0] * len(edges)  # edge index -> bit of its color, 0 if none
    free = [delta] * len(edges)  # free colors per uncolored edge

    # Colored edges hold a count above every real one, so the first
    # uncolored edge with the fewest free colors is the first index of the
    # least count: memchr over a bytearray when counts fit a byte.
    done = delta + 1
    narrow = done < _BYTE_LIMIT
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

    stack, untried_at = [], []  # edge indices, and their untried colors
    nodes = 0
    while True:
        j = pick()
        if j < 0:
            return {edges[i]: color[i].bit_length() - 1 for i in stack}
        u, v = edges[j]
        stack.append(j)
        untried_at.append(full & ~(used[u] | used[v]))
        while True:
            j = stack[-1]
            untried = untried_at[-1]
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
                untried_at.pop()
                cnt[j] = (full & ~(used[u] | used[v])).bit_count()
                if not stack:
                    return None
                continue
            bit = untried & -untried
            untried_at[-1] = untried ^ bit
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "edge-coloring search exceeded %d nodes" % budget)
            color[j] = bit
            cnt[j] = done
            used[u] |= bit
            used[v] |= bit
            dead = False
            for k, w in near[j]:
                if not color[k] and not used[w] & bit:
                    cnt[k] -= 1
                    if not dead:  # the far-end rule
                        for i, y in incident[w]:
                            if not color[i] and not used[y] & bit:
                                break
                        else:
                            dead = True
            if dead:
                continue
            for x in u, v:  # the endpoint rule
                need = full & ~used[x]
                for k, w in incident[x]:
                    if not color[k]:
                        need &= used[w]
                        if not need:
                            break
                if need:
                    break
            else:  # no dead end: pick the next edge
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
        # d is pooled iff 2 divides it at least as often as n, and any
        # other distance as donor gives the pool components of even order:
        # the smallest peelable one, else the involution (which would
        # otherwise be a one-step factor on its own)
        if peelable:
            pooled.append(peelable.pop(0))
        elif involution is not None:
            pooled.append(involution)
            involution = None
        else:
            raise FactorizationImpossible(
                "distances %r span components of odd order %d"
                % (pooled, n // math.gcd(n, *pooled))
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
    solution = _exact_edge_coloring(comp, budget)
    if solution is None:
        raise FactorizationImpossible(
            "no %d-edge-coloring of component circulant C_%d(%r)"
            % (comp.degree, m, [p // d0 for p in pool])
        )
    shift = first_color - 1
    comp_columns = TotalColoring.from_pairs([None] * m, solution).columns
    return {p * d0: [c + shift for c in col for _ in range(d0)]
            for p, col in comp_columns.items()}


# -- constructive Vizing -----------------------------------------------------

def edge_color_delta_plus_one(g: CirculantGraph,
                              first_color: int = 1) -> EdgeColoring:
    """Proper edge coloring of g.edges with at most Delta+1 colors, from
    first_color up, by Misra-Gries fan rotation (Misra & Gries, "A
    constructive proof of Vizing's theorem", IPL 41, 1992).

    Vertex x keeps ``at[x][c]``, the vertex across the edge of color c
    (None while c is free at x), and ``used[x]``, a bitmask with bit c set
    for each color at x.  Deterministic: edges are colored in the sorted
    order of g.edges; the next fan vertex is the smallest ``at[u][c]``
    over the bits c of ``used[u] & ~used[last]`` not yet in the fan; c
    and d are the lowest free colors of u and of the last fan vertex; and
    the c/d path from u, starting with d, is inverted by swapping
    ``at[x][c]`` and ``at[x][d]`` along it.
    """
    n = g.n
    at = [[None] * (g.degree + 2) for _ in range(n)]  # colors 1..Delta+1
    used = [0] * n

    for u, v in g.edges:
        at_u, mask_u = at[u], used[u]
        # maximal fan: each next neighbor's edge color is free at the last;
        # cols[t] is the color of (u, fan[t]), 0 for the uncolored (u, v)
        fan, cols, in_fan, last = [v], [0], 0, v
        bits = mask_u & ~used[v]
        while bits:
            last = n
            while bits:
                bit = bits & -bits
                bits ^= bit
                w = at_u[bit.bit_length() - 1]
                if w < last:
                    last, last_bit = w, bit
            fan.append(last)
            cols.append(last_bit.bit_length() - 1)
            in_fan |= last_bit
            bits = mask_u & ~used[last] & ~in_fan
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
        cols[j + 1:] = (d,)
        for t in range(j + 1):
            w, old, new = fan[t], cols[t], cols[t + 1]
            at_w = at[w]
            at_w[old], at_w[new], at_u[new] = None, u, w
            used[w] = used[w] & ~(1 << old) | 1 << new
        used[u] |= 1 << d

    shift = first_color - 1
    return EdgeColoring({(u, v): at[u].index(v) + shift for u, v in g.edges})
