"""Quick self-test of the benchmark itself (about half a minute):

    python3 perfbench/selftest.py

- runs every workload, traced, on a tiny instance list, and checks that
  every metric BENCHMARK.json names is reported with its unit;
- corrupts one saved output and gives another op a wrong reference digest,
  and checks that both are counted as failed while the rest pass;
- runs the benchmark in a directory that holds only BENCHMARK.json and the
  benchmark's files, and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
import ops as opsmod
import run

PROBLEMS: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        PROBLEMS.append(what)


def declared(section: str) -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def metrics_present() -> None:
    for name in sorted(opsmod.WORKLOADS):
        res = harness.run(opsmod.workload(name, tiny=True), seed=1, seconds=0,
                          trace=True, expected={}, setup_repeats=1)
        expect(units(run.end_to_end(res)) == declared("end_to_end"),
               "%s: end-to-end metrics differ from BENCHMARK.json" % name)
        layers = res.tracer.metrics(
            res.traced_wall,
            run.pass_wall([a for a in res.attempts if not a.traced])[0])
        expect(units(layers) == declared("per_layer"),
               "%s: per-layer metrics differ from BENCHMARK.json" % name)
        expect(not res.tracer.missing,
               "%s: unwrapped %s" % (name, res.tracer.missing))
        bad = [a.op for a in res.attempts if a.verdict is False]
        expect(not bad, "%s: tiny ops rejected: %s" % (name, bad))
        if name == "search":
            expect(any(a.status == "budget" for a in res.attempts),
                   "search: no oracle budget exhaustion counted")


CORRUPTED = "thm21-even-18-4-5"


def corrupt_json_coloring(runner) -> None:
    """Give vertex 1 the colour of its neighbour 0 in the saved stdout of
    one op that printed a coloring."""
    for (op_id, _digest), saved in runner.saved.items():
        if op_id == CORRUPTED:
            path = saved / "stdout"
            docs = harness._json_docs(path.read_text())
            docs[0]["vertex_colors"][1] = docs[0]["vertex_colors"][0]
            path.write_text("\n".join(json.dumps(d) for d in docs))


def corruption_counted() -> None:
    workload = opsmod.workload("tiled", tiny=True)
    wrong = "reproduce-all"
    res = harness.run(workload, seed=2, seconds=0, trace=False,
                      expected={wrong: {"status": "ok", "digest": "0" * 32}},
                      setup_repeats=1, tamper=corrupt_json_coloring)
    failed = {a.op for a in res.attempts if a.verdict is False}
    expect(failed == {CORRUPTED, wrong},
           "corrupted output and wrong digest not both failed: %s" % failed)
    expect(all(a.verdict for a in res.attempts if a.op not in failed),
           "an untouched op failed")


def fails_without_program() -> None:
    bare = harness.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "ran without the program: exit %d, stdout %r"
               % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    metrics_present()
    corruption_counted()
    fails_without_program()
    for problem in PROBLEMS:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if PROBLEMS else "ok"))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
