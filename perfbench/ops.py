"""The benchmark's workloads: which operations each one runs, and why.

An operation ("op") is either one in-process call of the command line,
``circulant_coloring.cli.main(argv)``, or one direct call of a public oracle
function.  Each op carries what the benchmark needs to check its output:
the graph, the property every emitted coloring must have, and the colour
bound the theorem behind the builder promises.

The seed only reorders ops.  The instance lists are fixed, because run
times differ a lot between neighbouring instances of the same family (the
pooled search ranges from 0.05 s to more than 120 s), and a seed that
changed the instances would spread ``wall_s`` across seeds beyond its bound.

Instances are sized so that one pass over a workload takes 1.5-4 s, so
that a run can repeat each op at least five times (see ``run.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORK = "{work}"  # placeholder in argv for the run's scratch directory

# Per-instance node budget for the oracle ops, passed to the library
# because the CLI ``oracle`` command ignores ``--budget``.  The largest
# instance decided when the reference was recorded needs 22,105 nodes;
# 300k nodes decide no more instances and take six times as long on the
# undecided ones.
ORACLE_BUDGET = 50_000


@dataclass(frozen=True)
class Spec:
    """A coloring an op emits or reads: graph C(n; gens), the property it
    must have ("total", "equitable" or "nsd") and its colour bound."""

    n: int
    gens: tuple[int, ...]
    prop: str
    bound: int


@dataclass(frozen=True)
class CliOp:
    """``cli.main(argv)``; ``check`` names how its output is checked:

    - ``json``: stdout holds one JSON coloring per entry of ``specs``;
    - ``out``: ``--out`` wrote ``<prefix>.csv``, ``.json`` and
      ``.report.json`` for the single entry of ``specs``;
    - ``reproduce``: every stdout line reports a fixture as OK;
    - ``verify``: stdout is a verification report for ``specs[0]``;
    - ``export``: the file written must equal the set-up file ``ref``.
    """

    id: str
    argv: tuple[str, ...]
    check: str
    specs: tuple[Spec, ...] = ()
    ref: str | None = None


@dataclass(frozen=True)
class OracleOp:
    """An exact oracle query on C_n^k: ``total`` (total chromatic number),
    or ``equitable`` / ``nsd`` feasibility with ``palette`` colours."""

    id: str
    quantity: str
    n: int
    k: int
    palette: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    # Input files the set-up writes into the scratch directory:
    # file name -> (builder, n, k, which report) written through the library.
    inputs: tuple = ()


def _gens(ds) -> str:
    return ",".join(str(d) for d in ds)


def power(n: int, k: int, prop: str, bound: int) -> Spec:
    return Spec(n, tuple(range(1, k + 1)), prop, bound)


def color(id_, method, n, *, k=None, i=None, gens=None, s1=None,
          specs, fmt="json") -> CliOp:
    argv = ["color", "--method", method, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    if i is not None:
        argv += ["--i", str(i)]
    if gens is not None:
        argv += ["--gens", _gens(gens)]
    if s1 is not None:
        argv += ["--s1-gens", _gens(s1)]
    if fmt == "out":
        return CliOp(id_, tuple(argv + ["--out", WORK + "/" + id_]), "out",
                     specs)
    return CliOp(id_, tuple(argv + ["--format", fmt]), "json", specs)


def even(n, k, i) -> CliOp:
    return color("thm21-even-%d-%d-%d" % (n, k, i), "thm21-even", n, k=k, i=i,
                 specs=(power(n, k, "total", 2 * k + 1),))


def odd(n, k, i) -> CliOp:
    return color("thm21-odd-%d-%d-%d" % (n, k, i), "thm21-odd", n, k=k, i=i,
                 specs=(power(n, k, "total", 2 * k + 2),))


def thm22(n, k) -> CliOp:
    return color("thm22-%d-%d" % (n, k), "thm22", n, k=k,
                 specs=(power(n, k, "equitable", 2 * k + 1),
                        power(n, k, "nsd", 2 * k + 3)))


def thm34(n, s1, extra) -> CliOp:
    gens = tuple(sorted(set(s1) | set(extra)))
    deg = 2 * len(gens)  # no involution: m = n/2 is odd and outside S
    return color("thm34-%d" % n, "thm34", n, gens=gens, s1=s1,
                 specs=(Spec(n, gens, "equitable", deg + 1),
                        Spec(n, gens, "nsd", deg + 3)))


def thm32(n, gens) -> CliOp:
    return color("thm32-%d" % n, "thm32", n, gens=gens,
                 specs=(Spec(n, tuple(gens), "total", n // 2 + 1),))


def thm31(n) -> CliOp:
    gens = tuple(range(1, n // 2))  # dense: degree n - 2, no involution
    return color("thm31-%d" % n, "thm31", n, gens=gens,
                 specs=(Spec(n, gens, "total", (n - 2) + 2),))


def reproduce(table="all") -> CliOp:
    return CliOp("reproduce-%s" % table, ("reproduce", "--table", table),
                 "reproduce")


def verify(id_, spec: Spec, path, flag=None) -> CliOp:
    argv = ["verify", "--n", str(spec.n), "--gens", _gens(spec.gens),
            "--in", WORK + "/" + path]
    if flag:
        argv.append(flag)
    return CliOp(id_, tuple(argv), "verify", (spec,))


def export(id_, src, fmt, ref, spec) -> CliOp:
    return CliOp(id_, ("export", "--in", WORK + "/" + src, "--format", fmt,
                       "--out", WORK + "/" + id_ + "." + fmt), "export",
                 (spec,), ref)


def oracle_total(n, k) -> OracleOp:
    return OracleOp("oracle-total-%d-%d" % (n, k), "total", n, k)


def oracle_feasible(quantity, n, k, palette) -> OracleOp:
    return OracleOp("oracle-%s-%d-%d-%d" % (quantity, n, k, palette),
                    quantity, n, k, palette)


# Every workload ends with these three tiny ops, which together reach
# every layer the trace wraps (the fixtures, the tiling, Vizing, the
# 1-factorization, rainbow matchings, verification, file reading and the
# oracle).  A layer time that reads 0 would otherwise not tell an idle
# layer from a wrapper that no longer attaches.  Together they take well
# under 1% of each workload's wall time.
PROBE_SPEC = power(18, 4, "equitable", 9)
PROBE_INPUTS = (("probe-18.json", ("thm22", 18, 4, 0)),)


def _probes(skip=()):
    probes = (reproduce("all"),
              verify("probe-verify-18", PROBE_SPEC, "probe-18.json",
                     "--equitable"),
              oracle_total(7, 2))
    return tuple(op for op in probes if op.id not in skip)


def _tiled(tiny: bool) -> Workload:
    if tiny:
        ops = (even(18, 4, 5),
               color("thm21-even-out-18", "thm21-even", 18, k=4, i=5,
                     specs=(power(18, 4, "total", 9),), fmt="out"),
               thm22(18, 4),
               thm34(18, (1, 2, 4, 6), (7, 8)),
               thm32(24, (1, 3, 4, 5, 10)))
    else:
        ops = (even(4200, 10, 11),
               color("thm21-even-out-1050", "thm21-even", 1050, k=10, i=11,
                     specs=(power(1050, 10, "total", 21),), fmt="out"),
               thm22(1050, 10),
               thm34(142, tuple(range(1, 36)), (37,)),
               # 1..49 holds one of each pair {d, 100 - d}: sum-free with
               # respect to n/2 = 100, degree n/2 - 2.
               thm32(200, tuple(range(1, 50))))
    return Workload("tiled", ops + _probes(), PROBE_INPUTS)


def _vizing(tiny: bool) -> Workload:
    if tiny:
        ops = (odd(21, 6, 1), odd(45, 6, 3))
    else:
        ops = (odd(385, 10, 1), odd(495, 10, 1), odd(385, 6, 1),
               odd(715, 8, 3))
    return Workload("vizing", ops + _probes(), PROBE_INPUTS)


def _search(tiny: bool) -> Workload:
    if tiny:
        builders = (thm31(20), even(66, 10, 1))
        oracles = (oracle_total(7, 2), oracle_total(9, 3),
                   oracle_feasible("equitable", 8, 2, 5),
                   oracle_feasible("nsd", 8, 2, 7))
    else:
        builders = (thm31(20), thm31(24),
                    # pooled residual, finished by the fallback search
                    even(66, 10, 1), even(42, 13, 8), even(76, 17, 2),
                    # the pooled search recursed too deep when recorded
                    even(330, 10, 1), even(1100, 10, 1))
        oracles = tuple(oracle_total(n, k)
                        for n in range(5, 13) for k in range(1, (n + 1) // 2))
        oracles += tuple(oracle_feasible(q, n, 2, p)
                         for n in (8, 10, 12)
                         for q, p in (("equitable", 5), ("nsd", 7)))
    ops = builders + oracles
    return Workload("search", ops + _probes({op.id for op in ops}),
                    PROBE_INPUTS)


def _files(tiny: bool) -> Workload:
    big, small, k = (36, 18, 4) if tiny else (4200, 1050, 10)
    big_spec = power(big, k, "equitable", 2 * k + 1)
    nsd_spec = power(small, k, "nsd", 2 * k + 3)
    tot_spec = power(small, k, "total", 2 * k + 3)
    inputs = (("big.json", ("thm21-even", big, k, 0)),
              ("small.csv", ("thm22", small, k, 1)),
              ("small.json", ("thm22", small, k, 1))) + PROBE_INPUTS
    ops = (verify("verify-json-%d" % big, big_spec, "big.json", "--equitable"),
           verify("verify-csv-%d" % small, nsd_spec, "small.csv", "--nsd"),
           verify("verify-json-%d" % small, tot_spec, "small.json"),
           export("export-csv-json-%d" % small, "small.csv", "json",
                  "small.json", tot_spec),
           export("export-json-csv-%d" % small, "small.json", "csv",
                  "small.csv", tot_spec))
    return Workload("files", ops + _probes(), inputs)


WORKLOADS = {"tiled": _tiled, "vizing": _vizing, "search": _search,
             "files": _files}

# Instances left out only because of run length, for later work to target:
# - tiled: thm21-even at n=21000 (JSON) and n=4200 (--out), thm22 at n=4200,
#   thm34 at n=302; one pass took 13 s on a two-core Xeon VM, too long to
#   repeat five times in a run.  color --out at n=21000 writes a 442 MB CSV
#   at 6.8 GB peak RSS.
# - vizing: thm21-odd (1001,10,1), (1155,10,1), (1001,6,1), (2431,8,3); one
#   pass took 10 s.
# - files: verify and export at n=21000 and n=4200; one pass took 14 s and
#   set-up 12 s.
# - search: thm21-even (104,12,1), (90,14,1), (84,16,5) run over 120 s each
#   even with --budget 20000, because the fallback search has a hard-coded
#   budget of 500k nodes; thm31 at n=28 does not finish in 10 minutes;
#   exact_total_chromatic on C_10^3 needs 12.55M nodes (about 40 s) with the
#   default budget.  A 300k-node oracle budget decides the same 27 of 34
#   instances as 50k, in 8 s instead of 2 s.


def workload(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)


def pass_order(ops, rng: random.Random) -> list:
    """The ops of one pass, in the order the seed draws."""
    return rng.sample(list(ops), len(ops))
