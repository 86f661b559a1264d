"""Commutative idempotent anti-circulant Latin squares of odd order.

The closed form (1-indexed, order q = 2k+1, entries reduced into 1..q):

    l[i][j] = m        if i + j = 2m
    l[i][j] = k+1+m    if i + j = 2m+1

Both branches depend on (i + j) mod 2q only, which makes every row a left
cyclic shift of the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionFailed


def _reduce(x: int, q: int) -> int:
    return (x - 1) % q + 1


@dataclass(frozen=True)
class LatinSquare:
    """Order-q square; entries[i][j] holds l_{i+1,j+1} in 1..q."""

    order: int
    entries: tuple[tuple[int, ...], ...]

    def cell(self, i: int, j: int) -> int:
        """1-indexed access, matching the closed-form notation."""
        return self.entries[i - 1][j - 1]

    def rows(self):
        return [list(r) for r in self.entries]


def build_commutative_idempotent(q: int) -> LatinSquare:
    """The closed-form square of odd order q; raises PreconditionFailed
    otherwise.

    No idempotent commutative Latin square of even order exists, so even q
    is rejected rather than approximated.
    """
    if q < 1 or q % 2 == 0:
        raise PreconditionFailed("order must be odd and positive, got %d" % q)
    k = (q - 1) // 2
    rows = []
    for i in range(1, q + 1):
        row = []
        for j in range(1, q + 1):
            s = i + j
            if s % 2 == 0:
                val = s // 2
            else:
                val = k + 1 + (s - 1) // 2
            row.append(_reduce(val, q))
        rows.append(tuple(row))
    return LatinSquare(q, tuple(rows))


def closed_form_entry(q: int, i: int, j: int) -> int:
    """Single cell of the order-q square without building the whole array."""
    if q % 2 == 0:
        raise PreconditionFailed("order must be odd, got %d" % q)
    k = (q - 1) // 2
    s = (i + j - 2) % (2 * q) + 2  # closed form depends on (i+j) mod 2q
    if s % 2 == 0:
        return _reduce(s // 2, q)
    return _reduce(k + 1 + (s - 1) // 2, q)


def is_latin(sq: LatinSquare) -> bool:
    q = sq.order
    want = set(range(1, q + 1))
    for i in range(q):
        if set(sq.entries[i]) != want:
            return False
        if {sq.entries[j][i] for j in range(q)} != want:
            return False
    return True


def is_commutative(sq: LatinSquare) -> bool:
    q = sq.order
    return all(
        sq.entries[i][j] == sq.entries[j][i] for i in range(q) for j in range(i + 1, q)
    )


def is_idempotent(sq: LatinSquare) -> bool:
    return all(sq.entries[i][i] == i + 1 for i in range(sq.order))


def is_anticirculant(sq: LatinSquare) -> bool:
    """Each row equals the previous row shifted one position to the left."""
    q = sq.order
    for i in range(1, q):
        if sq.entries[i] != sq.entries[i - 1][1:] + sq.entries[i - 1][:1]:
            return False
    return True
