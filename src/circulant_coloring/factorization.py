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
It has one cut rule: with Delta colors on a Delta-regular graph, each
color must end as a perfect matching, so the search keeps one matching
per color on the uncolored edges it may still take, repairs it after
each placement by an augmenting path (Edmonds' blossom search, as
circulants have odd cycles), and calls the placement a dead end when a
repair fails.  Only subtrees without a solution are cut, so it finds the
same coloring as the plain backtracking search, never in more nodes.

Both kernels color the edges of a circulant: the pool's component,
thm21-odd's residual distances, or the whole graph for
oracle.exact_chromatic_index (the search at Delta colors, Misra-Gries
at Delta+1 when it finds none).  The Delta+1 edge coloring is Misra-Gries
fan rotation: one maximal fan, one c/d path inversion and one rotation
per edge, with no search, on a color-indexed neighbor list and a
used-color bitmask per vertex.  With no inversion the whole fan rotates,
unscanned; the uncolored first fan edge takes its color outright and
each later one moves by one bit toggle.  The colors are read out once,
in sorted pair order, from first_color up.

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
from .errors import PreconditionFailed, SearchBudgetExceeded
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


def _exact_edge_coloring(g: CirculantGraph, budget: int):
    """Backtracking proper edge coloring of g.edges with colors
    1..g.degree, for a pool and for the oracle's chromatic index.

    Iterative, on a stack held as two parallel lists (edge indices, and
    the colors each has not yet tried as a bitmask), with one used-color
    bitmask per vertex and a count of free colors per uncolored edge.
    The next edge is the first in g.edges with the fewest free colors
    (MRV); its colors are tried in ascending order, one search node each.

    g is Delta-regular and colored with Delta colors, so in any
    completion each color c, restricted to the uncolored edges, is a
    perfect matching of the vertices that still miss c: c's graph.  The
    cut rule rests on that.  ``mate[c]`` keeps a perfect matching of c's
    graph; at the start it is the alternate edges of each cycle of one
    distance with even orbits, and with no such distance every component
    has odd order, so there is no coloring, found at 0 nodes.  Placing c
    on (u, v) takes u and v out of c's graph, so their old partners are
    re-matched; every other color free at both ends that matched u to v
    loses that edge, so u and v are re-matched.  A repair tries the
    direct edge, then a 3-edge alternating path, then Edmonds' blossom
    search from one exposed vertex (circulants have odd cycles, so a
    search without blossoms could miss a path).  The placement is a dead
    end, counted as a node and undone at once, when a repair fails.  A
    failed repair leaves its matching as it was, and a placed edge stays
    matched in its color's array, so undoing a color changes no matching.
    Only subtrees without a coloring are cut, so the first coloring found
    and its order are those of the plain search, in at most its nodes.

    Returns ((u, v) -> color in the order the edges were colored, or None
    if the search space is exhausted; the nodes spent), or raises
    SearchBudgetExceeded when the node budget runs out.
    """
    edges, delta, n = g.edges, g.degree, g.n
    for d in g.gens:
        h = math.gcd(n, d)
        if n // h % 2 == 0:  # the orbit position of x has the parity of x // h
            start = [(x + d) % n if x // h % 2 == 0 else (x - d) % n
                     for x in range(n)]
            break
    else:
        return None, 0
    mate = [None] + [start[:] for _ in range(delta)]  # color -> partners
    full = (1 << (delta + 1)) - 2  # bit c stands for color c
    used = [0] * n
    incident = [[] for _ in range(n)]  # vertex -> [(edge index, other end)]
    for j, (u, v) in enumerate(edges):
        incident[u].append((j, v))
        incident[v].append((j, u))
    index = [dict((w, j) for j, w in inc) for inc in incident]
    # edge -> [(edge sharing an endpoint, that edge's far end)]
    near = [[kw for kw in incident[u] + incident[v] if kw[0] != j]
            for j, (u, v) in enumerate(edges)]
    color = [0] * len(edges)  # edge index -> bit of its color, 0 if none
    free = [delta] * len(edges)  # free colors per uncolored edge
    # Edmonds' labels, reset after each search: tree parent, blossom base,
    # and whether the vertex is outer (at even distance from the root)
    parent, base, outer = [-1] * n, list(range(n)), [False] * n

    def augment(m: list, bit: int, root: int) -> bool:
        """Augment m, a matching of bit's graph, along an alternating path
        from the exposed vertex root by Edmonds' blossom search; False if
        there is none."""
        queue, tree = [root], [root]
        members = {}  # blossom base -> its vertices, while it has others
        outer[root] = True
        end = -1
        for v in queue:
            partner = m[v]
            for k, w in incident[v]:
                if color[k] or used[w] & bit or w == partner \
                        or base[v] == base[w]:
                    continue
                if outer[w]:  # an odd cycle: shrink it into its top base
                    # climb from both ends in turn; the first base met
                    # twice is the top
                    seen, x, y = set(), base[v], base[w]
                    while x < 0 or x not in seen:
                        if x >= 0:
                            seen.add(x)
                            x = base[parent[m[x]]] if m[x] >= 0 else -1
                        x, y = y, x
                    top = x
                    inside = set()
                    for x, child in (v, w), (w, v):
                        while base[x] != top:
                            inside.add(base[x])
                            inside.add(base[m[x]])
                            parent[x] = child
                            child = m[x]
                            x = parent[child]
                    inside.discard(top)
                    into = members.setdefault(top, [top])
                    for b in inside:
                        for x in members.pop(b, (b,)):
                            base[x] = top
                            into.append(x)
                            if not outer[x]:
                                outer[x] = True
                                queue.append(x)
                elif parent[w] < 0:
                    parent[w] = v
                    tree.append(w)
                    x = m[w]
                    if x < 0:
                        end = w
                        break
                    outer[x] = True
                    queue.append(x)
                    tree.append(x)
            if end >= 0:
                break
        for x in tree:
            outer[x] = False
            base[x] = x
        found = end >= 0
        while end >= 0:
            x = parent[end]
            m[end], m[x], end = x, end, m[x]
        for x in tree:
            parent[x] = -1
        return found

    def repair(m: list, bit: int, a: int, b: int) -> bool:
        """Make m perfect on bit's graph again, where it leaves exactly a
        and b exposed (their entries still hold their old partners); False,
        with m unchanged, if bit's graph has no perfect matching."""
        k = index[a].get(b)
        if k is not None and not color[k]:
            m[a], m[b] = b, a
            return True
        at_b = index[b]
        for k, x in incident[a]:
            if not color[k] and not used[x] & bit:
                y = m[x]
                k = at_b.get(y)
                if k is not None and not color[k]:
                    m[a], m[x], m[y], m[b] = x, a, b, y
                    return True
        old_a, old_b = m[a], m[b]
        m[a] = m[b] = -1
        if augment(m, bit, a):
            return True
        m[a], m[b] = old_a, old_b
        return False

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
            return {edges[i]: color[i].bit_length() - 1 for i in stack}, nodes
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
                    return None, nodes
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
            for k, w in near[j]:
                if not color[k] and not used[w] & bit:
                    cnt[k] -= 1
            m = mate[bit.bit_length() - 1]
            a, b = m[u], m[v]
            if a != v:  # u and v leave bit's graph
                if not repair(m, bit, a, b):
                    continue
                m[u], m[v] = v, u
            others = full & ~(used[u] | used[v])
            while others:  # the colors that lose the edge (u, v)
                c = others & -others
                others ^= c
                m = mate[c.bit_length() - 1]
                if m[u] == v and not repair(m, c, u, v):
                    break
            else:  # no dead end: pick the next edge
                break


def one_factorize(g: CirculantGraph, first_color: int = 1,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> Factorization:
    """Partition g's edges into deg(g) perfect matchings, colored
    first_color, first_color + 1, ... in order: the involution, then two
    per peeled distance, then the pooled distances.

    Requires even n.  Components of odd order make a perfect matching
    impossible and raise PreconditionFailed; connected circulants of
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
            raise PreconditionFailed(
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
    solution, _ = _exact_edge_coloring(comp, budget)
    if solution is None:
        raise PreconditionFailed(
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
    ``at[x][c]`` and ``at[x][d]`` along it when d is used at u.  Only then
    is the fan scanned for the longest prefix that still rotates; with no
    inversion the whole fan rotates.  The rotation colors the uncolored
    edge (u, fan[0]) outright and moves each later fan edge by one bit
    toggle.
    """
    n, width = g.n, g.degree + 2  # colors 1..Delta+1
    at = [[None] * width for _ in range(n)]
    used = [0] * n

    for u, v in g.edges:
        at_u, mask_u = at[u], used[u]
        # maximal fan: each next neighbor's edge color is free at the last;
        # cols[t] is the color of (u, fan[t]), 0 for the uncolored (u, v)
        fan, cols, in_fan, last = [v], [0], 0, v
        bits = mask_u & ~used[v]
        while bits:
            last_bit = bits & -bits
            bits ^= last_bit
            last = at_u[last_bit.bit_length() - 1]
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
        m = used[last] | 1
        d = (~m & (m + 1)).bit_length() - 1
        if at_u[d] is not None:
            m = mask_u | 1
            c = (~m & (m + 1)).bit_length() - 1
            # d is used at u and c is free there, so c != d and the d/c
            # path from u is a path, not a cycle
            y, cur = u, c
            while y is not None:
                at_y = at[y]
                at_y[c], at_y[d] = at_y[d], at_y[c]
                x, y, cur = y, at_y[cur], c + d - cur
            used[u] ^= 1 << c | 1 << d
            used[x] ^= 1 << c | 1 << d
            if in_fan >> d & 1:
                cols[cols.index(d)] = c
            # d is now free at u; the longest prefix that is still a fan
            # and ends where d is free exists and rotates (Misra-Gries)
            j = None
            for t, w in enumerate(fan):
                if t and used[fan[t - 1]] >> cols[t] & 1:
                    break
                if not used[w] >> d & 1:
                    j = t
            del cols[j + 1:]
        # with no inversion nothing changed since the fan was built and d
        # is free at its last vertex, so the whole fan rotates
        cols.append(d)
        new = cols[1]
        at[v][new], at_u[new] = u, v
        used[v] |= 1 << new
        # each later fan edge moves from its color, used at w, to the next
        # one, free at w (the fan property; d for the last, by choice of j)
        for t in range(1, len(cols) - 1):
            w, old, new = fan[t], cols[t], cols[t + 1]
            at_w = at[w]
            at_w[old], at_w[new], at_u[new] = None, u, w
            used[w] ^= 1 << old | 1 << new
        used[u] |= 1 << d

    shift = first_color - 1
    return EdgeColoring({(u, v): at[u].index(v) + shift for u, v in g.edges})
