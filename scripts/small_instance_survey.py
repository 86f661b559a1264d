#!/usr/bin/env python3
"""Survey builders against the exact oracle on every power-of-cycle
instance C_n^k with n <= 12.

For each instance the table lists the exact total chromatic number, its
Type (I: Delta+1 colors, II: Delta+2) and the oracle's search nodes,
which read 0 where a verified closed-form coloring (the Latin tiling,
the K_{n+1} fold of an even complete graph, or a bipartite
1-factorization) decided the first palette the partition rule left, as
that rule refutes a palette with no search.
Where Theorem 2.1 admits a builder (some odd k+i dividing n), it also
lists i, the builder's color count and the gap; elsewhere those columns
read ``-``.  The builder should always land within one color of the
optimum (and exactly at Delta+1 on even n).  A closing line gives the
oracle's total nodes and its nodes per second, its time spent on
constructions included.

Usage:
    python3 scripts/small_instance_survey.py [--max-n N]

N defaults to 12, the oracle's size limit; a larger N exits 2 before any
row is printed.
"""

import argparse
import time

from circulant_coloring import (
    color_power_cycle_even,
    color_power_cycle_odd,
    exact_total_chromatic,
    power_of_cycle,
)
from circulant_coloring.oracle import DEFAULT_SIZE_LIMIT


def admissible(n, k):
    for i in range(1, k + 2):
        q = k + i
        if q % 2 == 1 and n % q == 0:
            return i
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=DEFAULT_SIZE_LIMIT)
    args = ap.parse_args()
    if args.max_n > DEFAULT_SIZE_LIMIT:
        ap.error("--max-n must be at most %d, the oracle's size limit"
                 % DEFAULT_SIZE_LIMIT)

    row = "%4s %3s %3s %8s %4s %8s %8s %4s"
    print(row % ("n", "k", "i", "oracle", "type", "nodes", "builder", "gap"))
    nodes = seconds = 0
    for n in range(3, args.max_n + 1):
        for k in range(1, (n - 1) // 2 + 1):
            g = power_of_cycle(n, k)
            start = time.perf_counter()
            result = exact_total_chromatic(g)
            seconds += time.perf_counter() - start
            nodes += result.nodes_explored
            exact = result.value
            kind = "I" if exact == g.degree + 1 else "II"
            i = admissible(n, k)
            if i is None:
                print(row % (n, k, "-", exact, kind, result.nodes_explored,
                             "-", "-"))
                continue
            if n % 2 == 0:
                rep = color_power_cycle_even(n, k, i)
            else:
                rep = color_power_cycle_odd(n, k, i)
            print(row % (n, k, i, exact, kind, result.nodes_explored,
                         rep.colors_used, rep.colors_used - exact))
    print("oracle: %d nodes in %.3f s (%.0f nodes/s)"
          % (nodes, seconds, nodes / seconds if seconds else 0))


if __name__ == "__main__":
    main()
