"""Circulant graph model: Cayley graphs on Z_n and powers of cycles.

One type, ``CirculantGraph(n, gens)``, stores the generators as a
canonical half-set: a sorted tuple of distances d with 1 <= d <= n//2, so
d and its negation are stored once.  The spanning subgraph of Cay(Z_n, S)
on a subset S1 of its distances is itself the circulant (n, S1), so the
theorem builders take their subsets as circulants.  ``build_circulant``
folds a distance d > n/2 given by the caller to n - d.  Adjacency is
listed by ``neighbors``; the edge list is materialized lazily for
iteration.  An edge is the plain int pair ``(u, v)`` with u < v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionFailed


@dataclass(frozen=True)
class CirculantGraph:
    """Cay(Z_n, S): vertices 0..n-1, x ~ y iff (x - y) mod n in S, with S
    given by its half-set ``gens``."""

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
        return tuple(sorted({*self.gens, *(self.n - d for d in self.gens)}))

    @property
    def degree(self) -> int:
        # the involution n/2 contributes a single edge per vertex
        return sum(1 if 2 * d == self.n else 2 for d in self.gens)

    def issubset(self, other: CirculantGraph) -> bool:
        """True iff self is a spanning subcirculant of other."""
        return self.n == other.n and set(self.gens) <= set(other.gens)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, sorted: from each u, the offsets s of the full
        symmetric set in increasing order while u + s < n."""
        n, full = self.n, self.full
        return tuple([(u, u + s)
                      for u in range(n) for s in full if u + s < n])

    def neighbors(self, u: int) -> list[int]:
        return sorted({(u + d) % self.n for d in self.full})

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": list(self.gens)}


def build_circulant(n: int, ds) -> CirculantGraph:
    """Circulant graph on Z_n from any distances.

    A distance d and its negation n-d are the same symmetric generator and
    merge silently; listing the same residue twice is a duplicate.
    """
    if n < 3:
        raise PreconditionFailed("need n >= 3, got %d" % n)
    seen = set()
    for d in ds:
        d = d % n
        if d == 0:
            raise PreconditionFailed("generator 0 (mod %d) would be a self-loop" % n)
        if d in seen:
            raise PreconditionFailed("generator %d listed twice" % d)
        seen.add(d)
    # an empty set fails in CirculantGraph: "generator set must be non-empty"
    return CirculantGraph(n, tuple({min(d, n - d) for d in seen}))


def power_of_cycle(n: int, k: int) -> CirculantGraph:
    """C_n^k: the circulant with distances {1, ..., k}; degree 2k."""
    if not 1 <= k < n / 2:
        raise PreconditionFailed("need 1 <= k < n/2, got k=%d n=%d" % (k, n))
    return build_circulant(n, range(1, k + 1))


def generates_group(g: CirculantGraph) -> bool:
    """True iff the symmetric set generates all of Z_n (gcd test)."""
    return math.gcd(g.n, *g.gens) == 1


def classify_sum_free_half(g: CirculantGraph) -> bool:
    """True iff no two elements of the full symmetric set (repetition
    allowed) sum to n/2 mod n, and n/2 itself is absent.  Only defined for
    even n.  One lookup per element s: is its partner n/2 - s in the set?"""
    n = g.n
    if n % 2:
        raise PreconditionFailed("sum-free classification needs even n, got %d" % n)
    half, full = n // 2, set(g.full)
    return half not in full and not any((half - s) % n in full for s in full)
