"""Benchmark of the circulant-coloring toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiled --seed 1 --seconds 10 --trace 0

One run sets the workload up five times (``setup_s`` is the median), runs
passes over its ops, each pass in a seed-drawn order, until ``--seconds``
have been measured and at least five passes have run, checks every output,
and prints as its last stdout line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced pass and reports the
per-layer metrics instead.  Per-op seconds and exit statuses, and the spans
of a traced pass, are written to ``.bench_out/`` as diagnostics.

``wall_s`` is the sum over ops of each op's median seconds across the
passes, and every time is scaled to a reference machine speed measured
alongside (``harness.Speed``).  On the shared two-core machine the
benchmark was tuned on, the same op runs up to 2x slower for tens of
seconds at a time.  Across ten seeds per workload, unscaled per-op medians
spread by 14-40% (quartile distance over median), unscaled per-op minima
by 4-17%, and the scaled medians reported here by 4-13%.

``failed`` counts ops whose output the benchmark rejects, or that changed
from the reference outputs in ``expected.json`` (see ``record.py``).  Ops
that end in an error they also ended in when the reference was recorded
(the pooled search's RecursionError, an exhausted oracle budget) are not
failures of the benchmark; ``solved_frac`` counts them against the ops
attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import harness
import ops as opsmod

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
MIN_PASSES = 5


def pass_wall(attempts) -> tuple[float, int]:
    """(seconds, elements) of a typical pass: the sum over ops of each op's
    median scaled seconds, and of the elements its accepted outputs hold."""
    seconds, elements = {}, {}
    for a in attempts:
        seconds.setdefault(a.op, []).append(a.scaled)
        elements.setdefault(a.op, []).append(a.elements if a.verdict else 0)
    return (sum(statistics.median(v) for v in seconds.values()),
            sum(statistics.median(v) for v in elements.values()))


def end_to_end(res: harness.RunResult) -> dict:
    untraced = [a for a in res.attempts if not a.traced]
    wall, elements = pass_wall(untraced)
    solved = sum(1 for a in untraced if a.verdict)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "elements_per_s": {"value": elements / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
        "solved_frac": {"value": solved / len(untraced), "unit": "ratio"},
        "setup_s": {"value": res.setup_s, "unit": "s"},
    }


def write_diagnostics(args, res: harness.RunResult) -> Path:
    out_dir = harness.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    attempted = len(res.attempts)
    unsolved = sum(1 for a in res.attempts if not a.verdict)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": res.setup_s, "pass_walls": res.pass_walls,

        "traced_wall": res.traced_wall,
        # the share of ops that failed: non-zero exit, uncaught error,
        # budget exhaustion or a rejected output, over ops attempted
        "failed_frac": unsolved / attempted,
        "ops": [vars(a) for a in res.attempts],
    }
    if res.tracer is not None:
        doc.update(res.tracer.dump())
    path.write_text(json.dumps(doc, indent=1))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(opsmod.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workload = opsmod.workload(args.workload)
    try:
        res = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                          harness.load_expected(), SETUP_REPEATS, MIN_PASSES)
    except harness.PackageMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    for a in res.attempts:
        print("%-28s pass %-4d %9.4f s  %-22s %s" % (
            a.op, a.pass_no, a.seconds, a.status,
            {True: "ok", False: "FAILED " + a.reason, None: "unsolved"}
            [a.verdict]), file=sys.stderr)
    diag = write_diagnostics(args, res)
    print("perfbench: diagnostics in %s" % diag, file=sys.stderr)

    failed = sum(1 for a in res.attempts if a.verdict is False)
    if args.trace:
        # one traced pass against a typical untraced one
        metrics = res.tracer.metrics(res.traced_wall, pass_wall(
            [a for a in res.attempts if not a.traced])[0])
    else:
        metrics = end_to_end(res)
    print(json.dumps({"correct": failed == 0, "attempted": len(res.attempts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
