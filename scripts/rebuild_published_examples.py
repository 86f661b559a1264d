#!/usr/bin/env python3
"""Rebuild every worked example shipped as a golden fixture, verify each
coloring independently, and (optionally) write the color matrices out.

Usage:
    python3 scripts/rebuild_published_examples.py [--out DIR]
"""

import argparse
import os
import time

from circulant_coloring import (
    build_circulant,
    color_thm31,
    color_thm33,
    verify_nsd,
    verify_total_coloring,
)
from circulant_coloring.coloring import write_matrix_csv
from circulant_coloring.golden import TABLE_IDS, rebuild_table, reproduce_table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None, help="directory for matrix CSVs")
    args = ap.parse_args()
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    graphs = {
        1: build_circulant(21, range(1, 7)),
        2: build_circulant(18, range(1, 5)),
        3: build_circulant(18, range(1, 5)),
        4: build_circulant(24, [1, 3, 4, 5, 10]),
        5: build_circulant(18, [1, 2, 4, 6, 7, 8]),
        6: build_circulant(18, [1, 2, 4, 6, 7, 8]),
    }
    for tid in TABLE_IDS:
        t0 = time.time()
        checked = reproduce_table(tid)
        tc = rebuild_table(tid)
        g = graphs[tid]
        report = verify_total_coloring(g, tc)
        assert report.proper
        extras = ""
        if tid in (2, 5):
            extras = " equitable=%s" % report.equitable
        if tid in (3, 6):
            extras = " nsd=%s" % verify_nsd(g, tc).nsd
        print("fixture %d: %d cells match, %d colors,%s %.2fs"
              % (tid, checked, report.colors_used, extras, time.time() - t0))
        if args.out:
            write_matrix_csv(tc, os.path.join(args.out, "table%d.csv" % tid))

    # the two examples without printed tables
    g20 = build_circulant(20, [1, 2, 3, 4, 5, 7, 8])
    r31 = color_thm31(g20)
    print("Z_20 dense example: %d colors (bound %d, fallback=%s)"
          % (r31.colors_used, r31.bound_claimed, r31.fallback_used))
    g24 = build_circulant(24, [1, 2, 3, 4, 5, 7, 10])
    r33 = color_thm33(g24, build_circulant(24, [1, 3, 4, 5, 10]))
    print("Z_24 near-complete-plus-rest example: %d colors (bound %d)"
          % (r33.colors_used, r33.bound_claimed))


if __name__ == "__main__":
    main()
