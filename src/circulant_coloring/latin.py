"""The halving rule behind the Latin-square tiling and the canonical K_m row.

``half(s, q)`` is s/2 mod q shifted into 1..q: for odd q the factor
(q + 1) / 2 is the inverse of 2, so x∘y = half(x + y) is the commutative
idempotent quasigroup of order q.  Its table (1-indexed, l[i][j] =
half(i + j - 2)) is the anti-circulant Latin square the tilings use: it
depends on i + j only, so every row is a left cyclic shift of the previous
one.  For even q the floor makes an odd s land on q/2 + (s + 1)/2, the
canonical complete-graph row of even order.
"""

from __future__ import annotations


def half(s: int, q: int) -> int:
    """s/2 mod q in 1..q (the floor picks the odd-s value for even q)."""
    return s * (q + 1) // 2 % q + 1
