"""Circulant graph model: Cayley graphs on Z_n and powers of cycles.

Generators are stored as a canonical half-set: a sorted tuple of distances
d with 1 <= d <= n//2.  A distance d > n/2 given by the caller is folded to
n - d on construction, so d and its negation are stored once.  Adjacency is
answered arithmetically; the edge list is materialized lazily for iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import PreconditionFailed


@dataclass(frozen=True, order=True)
class Edge:
    """Undirected edge with endpoints ordered u < v."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("self-loop edge (%d, %d)" % (self.u, self.v))
        if self.u > self.v:
            raise ValueError("edge endpoints must satisfy u < v")

    @staticmethod
    def of(a: int, b: int) -> "Edge":
        return Edge(a, b) if a < b else Edge(b, a)


def normalize_half_set(n: int, ds) -> tuple[int, ...]:
    """Fold distances into [1, n//2] and sort.

    A distance d and its negation n-d are the same symmetric generator and
    merge silently; listing the same residue twice is a duplicate.
    """
    seen_residues = set()
    folded = set()
    for d in ds:
        d = d % n
        if d == 0:
            raise PreconditionFailed("generator 0 (mod %d) would be a self-loop" % n)
        if d in seen_residues:
            raise PreconditionFailed("generator %d listed twice" % d)
        seen_residues.add(d)
        folded.add(min(d, n - d))
    return tuple(sorted(folded))


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric generating set of Z_n in canonical half-set form."""

    n: int
    gens: tuple[int, ...]

    def __post_init__(self):
        if not self.gens:
            raise PreconditionFailed("generator set must be non-empty")
        for d in self.gens:
            if not 1 <= d <= self.n // 2:
                raise PreconditionFailed(
                    "generator %d outside [1, %d]" % (d, self.n // 2)
                )
        if len(set(self.gens)) != len(self.gens):
            raise PreconditionFailed("duplicate generators: %r" % (self.gens,))
        object.__setattr__(self, "gens", tuple(sorted(self.gens)))

    @property
    def full(self) -> tuple[int, ...]:
        """Full symmetric set {d, n-d} as residues in (0, n)."""
        out = set()
        for d in self.gens:
            out.add(d)
            out.add(self.n - d)
        return tuple(sorted(out))

    def degree_contribution(self) -> int:
        # the involution n/2 contributes a single edge per vertex
        return sum(1 if 2 * d == self.n else 2 for d in self.gens)

    def issubset(self, other: "GeneratorSet") -> bool:
        return self.n == other.n and set(self.gens) <= set(other.gens)


@dataclass(frozen=True)
class CirculantGraph:
    """Cay(Z_n, S): vertices 0..n-1, x ~ y iff (x - y) mod n in S."""

    n: int
    generators: GeneratorSet

    def __post_init__(self):
        if self.n != self.generators.n:
            raise ValueError("generator set order mismatch")

    @property
    def gens(self) -> tuple[int, ...]:
        return self.generators.gens

    @property
    def degree(self) -> int:
        return self.generators.degree_contribution()

    def adjacent(self, x: int, y: int) -> bool:
        d = (x - y) % self.n
        if d > self.n // 2:
            d = self.n - d
        return d in self._gen_lookup

    @cached_property
    def _gen_lookup(self) -> frozenset:
        return frozenset(self.gens)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = []
        for d in self.gens:
            if 2 * d == self.n:
                # involution: each edge seen once from the smaller endpoint
                for u in range(self.n // 2):
                    out.append(Edge.of(u, u + d))
            else:
                for u in range(self.n):
                    out.append(Edge.of(u, (u + d) % self.n))
        return tuple(sorted(set(out)))

    def neighbors(self, u: int) -> list[int]:
        out = set()
        for d in self.generators.full:
            out.add((u + d) % self.n)
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": list(self.gens)}


def build_circulant(n: int, ds) -> CirculantGraph:
    """Circulant graph on Z_n; distances above n/2 are folded to n - d."""
    if n < 3:
        raise PreconditionFailed("need n >= 3, got %d" % n)
    ds = list(ds)
    if not ds:
        raise PreconditionFailed("generator set must be non-empty")
    gens = normalize_half_set(n, ds)
    return CirculantGraph(n, GeneratorSet(n, gens))


def power_of_cycle(n: int, k: int) -> CirculantGraph:
    """C_n^k: the circulant with distances {1, ..., k}; degree 2k."""
    if not 1 <= k < n / 2:
        raise PreconditionFailed("need 1 <= k < n/2, got k=%d n=%d" % (k, n))
    return build_circulant(n, range(1, k + 1))


def induced_by_generators(g: CirculantGraph, sub: GeneratorSet) -> CirculantGraph:
    """Spanning subgraph of g keeping only the edges of the sub-distances."""
    if not sub.issubset(g.generators):
        raise PreconditionFailed("%r is not a subset of %r" % (sub.gens, g.gens))
    return CirculantGraph(g.n, sub)


def generates_group(sub: GeneratorSet) -> bool:
    """True iff the symmetric set generates all of Z_n (gcd test)."""
    return math.gcd(sub.n, *sub.gens) == 1


def classify_sum_free_half(sub: GeneratorSet) -> bool:
    """True iff no two elements of the full symmetric set (repetition
    allowed) sum to n/2 mod n, and n/2 itself is absent.  Only defined for
    even n."""
    n = sub.n
    if n % 2:
        raise PreconditionFailed("sum-free classification needs even n, got %d" % n)
    half = n // 2
    if half in sub.gens:
        return False
    full = sub.full
    for s in full:
        for t in full:
            if (s + t) % n == half:
                return False
    return True
