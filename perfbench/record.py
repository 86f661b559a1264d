"""Record what the program outputs now, as the reference later runs must
match: each op's status and output digest (oracle ops: the decided value).

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good; it refuses to record
an output the benchmark's own checks reject.  The file it writes,
``perfbench/expected.json``, was recorded at the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import sys

import harness
import ops as opsmod


def main() -> int:
    expected = {}
    for name in sorted(opsmod.WORKLOADS):
        res = harness.run(opsmod.workload(name), seed=0, seconds=0,
                          trace=False, expected={}, setup_repeats=1)
        for a in res.attempts:
            if a.verdict is False:
                print("%s: %s rejected: %s" % (name, a.op, a.reason),
                      file=sys.stderr)
                return 1
            entry = {"status": a.status, "digest": a.digest}
            if expected.setdefault(a.op, entry) != entry:
                print("%s: %s differs between workloads" % (name, a.op),
                      file=sys.stderr)
                return 1
        print("%s: %d ops recorded" % (name, len(res.attempts)),
              file=sys.stderr)
    harness.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
