"""Runs one workload in this process: set-up, timed passes, checks.

The program is imported from ``src/`` of the checkout the benchmark sits
in, never from an installed copy.  Ops run one after another in this
thread.  Each op's output is saved outside the timed region and checked
after the last pass, so the check's own memory does not show in the peak
RSS of the ops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import ops as opsmod
import spans

PKG = "circulant_coloring"
MODULES = ("cli", "coloring", "constructions", "errors", "factorization",
           "golden", "graphs", "latin", "oracle", "verifiers")
ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


class PackageMissing(Exception):
    """The checkout holds no importable ``src/circulant_coloring``."""


def require_package(root: Path = ROOT) -> Path:
    """The checkout's ``src`` directory, if it holds the package."""
    src = root / "src"
    if not (src / PKG / "__init__.py").is_file():
        raise PackageMissing("no %s package under %s" % (PKG, src))
    return src


def load_package(root: Path = ROOT) -> SimpleNamespace:
    """Import the package afresh from ``root/src``; returns its modules."""
    src = require_package(root)
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(PKG + "." + m)
                             for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise PackageMissing("%s was imported from %s, not from %s"
                             % (PKG, lib.cli.__file__, src))
    return lib


def reset_caches(lib) -> None:
    """Clear the package's memo caches, so every op starts as cold as a
    fresh command-line process would."""
    for mod in vars(lib).values():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def write_inputs(lib, workload, work: Path) -> None:
    """Build the workload's input colorings through the library and write
    them in the format their file name gives."""
    builders = {
        "thm21-even": lambda n, k: (
            lib.constructions.color_power_cycle_even(n, k, k + 1),),
        "thm22": lambda n, k: lib.constructions.equitable_nsd_power_cycle(n, k),
    }
    built = {}
    for name, (method, n, k, which) in workload.inputs:
        if (method, n, k) not in built:
            built[method, n, k] = builders[method](n, k)
        tc = built[method, n, k][which].coloring
        if name.endswith(".csv"):
            lib.coloring.write_matrix_csv(tc, work / name)
        else:
            lib.coloring.write_coloring_json(tc, work / name)


# -- machine speed ------------------------------------------------------------

@dataclass(frozen=True, order=True)
class _Pair:
    u: int
    v: int


def _calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now.  It does the kind
    of work the program does: small frozen dataclasses, a dict, a sort and
    a join."""
    t0 = time.perf_counter()
    seen = {}
    for i in range(12000):
        p = _Pair(i, i * 7919 % 12007)
        seen[p] = seen.get(_Pair(i - 1, (i - 1) * 7919 % 12007), 0) + 1
    ",".join(str(p.v) for p in sorted(seen))
    return time.perf_counter() - t0


class Speed:
    """How fast this machine runs right now, against a fixed reference.

    On a shared machine the speed of the same code drifts by up to 2x for
    tens of seconds at a time, as other tenants come and go.  Every time the
    benchmark reports is multiplied by ``REFERENCE_S`` over the calibration
    loop's current time, i.e. given in seconds of a machine on which the
    loop takes ``REFERENCE_S``.  The loop is benchmark code, so a change to
    the program moves the reported times exactly as it moves wall time.
    """

    REFERENCE_S = 0.027  # the loop on an idle 2.0 GHz Xeon vCPU
    MAX_AGE_S = 0.25  # tiny ops share one calibration

    def __init__(self):
        self._at = None
        self._factor = 1.0

    def factor(self, fresh: bool = False) -> float:
        now = time.monotonic()
        if fresh or self._at is None or now - self._at > self.MAX_AGE_S:
            loop = min(_calibration_loop() for _ in range(2))
            self._factor = self.REFERENCE_S / loop
            self._at = time.monotonic()
        return self._factor


def setup(workload, work: Path, repeats: int, speed: Speed):
    """Import the package and write the inputs ``repeats`` times; returns
    the modules of the last import and the median set-up seconds, scaled
    to the reference speed."""
    times = []
    for _ in range(repeats):
        factor = speed.factor(fresh=True)
        t0 = time.perf_counter()
        lib = load_package()
        write_inputs(lib, workload, work)
        times.append((time.perf_counter() - t0) * factor)
        gc.collect()
    return lib, statistics.median(times)


# -- running ops --------------------------------------------------------------

@dataclass
class Attempt:
    op: str
    pass_no: int
    traced: bool
    seconds: float
    status: str  # "ok", "exit:<code>", "exc:<type>" or "budget"
    scaled: float  # seconds at the reference speed; see Speed
    digest: str = ""
    detail: str = ""
    verdict: bool | None = None  # the check's verdict on the output
    reason: str = ""
    elements: int = 0


def _budget_errors(lib) -> tuple:
    return tuple(getattr(lib.errors, name) for name in
                 ("BudgetExceeded", "SearchBudgetExceeded")
                 if hasattr(lib.errors, name))


def _argv(op, work: Path) -> list[str]:
    return [a.replace(opsmod.WORK, str(work)) for a in op.argv]


def _output_files(op, work: Path) -> list[Path]:
    if op.check == "out":
        prefix = str(work / op.id)
        return [Path(prefix + s) for s in (".csv", ".json", ".report.json")]
    if op.check == "export":
        return [Path(_argv(op, work)[-1])]
    return []


def _run_cli(lib, op, work: Path, tracer):
    out, err = io.StringIO(), io.StringIO()
    main = lib.cli.main if tracer is None else tracer.span("cli", lib.cli.main)
    detail = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(op, work))
        status = "ok" if code == 0 else "exit:%s" % code
    except SystemExit as exc:
        status = "ok" if exc.code in (0, None) else "exit:%s" % exc.code
    except Exception as exc:  # an uncaught error fails the op, not the run
        status = "exc:" + type(exc).__name__
        detail = str(exc)[:200]
    seconds = time.perf_counter() - t0
    return seconds, status, out.getvalue(), detail or err.getvalue()[:200]


def _run_oracle(lib, op, tracer):
    mode = {"equitable": lib.oracle.Mode.EQUITABLE,
            "nsd": lib.oracle.Mode.NSD}.get(op.quantity)
    budget_errors = _budget_errors(lib)
    result, detail = None, ""
    t0 = time.perf_counter()
    try:
        g = lib.graphs.power_of_cycle(op.n, op.k)
        if op.quantity == "total":
            result = lib.oracle.exact_total_chromatic(
                g, budget=opsmod.ORACLE_BUDGET)
        else:
            result = lib.oracle.exact_feasible(
                g, op.palette, mode, budget=opsmod.ORACLE_BUDGET)
        status = "ok"
    except budget_errors:
        status = "budget"
    except Exception as exc:  # an uncaught error fails the op, not the run
        status = "exc:" + type(exc).__name__
        detail = str(exc)[:200]
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.note_oracle(result, status == "budget", opsmod.ORACLE_BUDGET)
    return seconds, status, result, detail


def _digest(stdout: str, files) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in files:
        h.update(b"\0" + path.name.encode() + b"\0")
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()[:32]


class Runner:
    """Runs passes over one workload's ops and keeps each distinct output
    until it is checked."""

    def __init__(self, lib, workload, work: Path, seed: int, speed: Speed):
        self.lib = lib
        self.speed = speed
        self.workload = workload
        self.work = work
        self.keep = work / "keep"
        self.keep.mkdir(exist_ok=True)
        self.rng = random.Random(seed)
        self.attempts: list[Attempt] = []
        self.saved: dict = {}  # (op id, digest) -> saved output
        self.pass_walls: list[float] = []  # untraced passes only
        self.passes = 0
        self.by_id = {op.id: op for op in workload.ops}

    def run_pass(self, tracer=None) -> float:
        pass_no, self.passes = self.passes, self.passes + 1
        wall = 0.0
        for op in opsmod.pass_order(self.workload.ops, self.rng):
            reset_caches(self.lib)
            gc.collect()
            factor = self.speed.factor()
            if tracer is not None:
                tracer.begin_op(op.id)
            if isinstance(op, opsmod.OracleOp):
                seconds, status, result, detail = _run_oracle(
                    self.lib, op, tracer)
                digest = "" if result is None else repr(result.value)
                key = (op.id, digest)
                if status == "ok" and key not in self.saved:
                    self.saved[key] = result
            else:
                seconds, status, stdout, detail = _run_cli(
                    self.lib, op, self.work, tracer)
                files = _output_files(op, self.work)
                digest = _digest(stdout, files) if status == "ok" else ""
                key = (op.id, digest)
                if status == "ok" and key not in self.saved:
                    self.saved[key] = self._save(op, digest, stdout, files)
                del stdout
            wall += seconds * factor
            self.attempts.append(Attempt(op.id, pass_no, tracer is not None,
                                         seconds, status, seconds * factor,
                                         digest, detail))
        if tracer is None:
            self.pass_walls.append(wall)
        return wall

    def _save(self, op, digest: str, stdout: str, files) -> Path:
        where = self.keep / ("%s.%s" % (op.id, digest))
        where.mkdir()
        (where / "stdout").write_text(stdout)
        for path in files:
            if path.is_file():
                shutil.copyfile(path, where / path.name)
        return where

    def check_all(self, expected: dict) -> None:
        """Give every attempt its verdict; outputs are checked once per
        distinct (op, digest)."""
        verdicts = {}
        for key, saved in self.saved.items():
            op = self.by_id[key[0]]
            try:
                verdicts[key] = check(self.lib, op, saved, self.work)
            except Exception as exc:  # a malformed output fails its op
                verdicts[key] = (False, "check raised %s: %s"
                                 % (type(exc).__name__, str(exc)[:200]), 0)
        for at in self.attempts:
            want = expected.get(at.op)
            if at.status != "ok":
                at.verdict = None
                if want and want["status"] == "ok":
                    at.verdict = False
                    at.reason = ("solved when the reference was recorded, "
                                 "now %s" % at.status)
                continue
            at.verdict, at.reason, at.elements = verdicts[(at.op, at.digest)]
            if at.verdict and want and want["status"] == "ok" \
                    and want["digest"] != at.digest:
                at.verdict = False
                at.reason = ("output differs from the recorded reference "
                             "(%s != %s)" % (at.digest, want["digest"]))


# -- checks -------------------------------------------------------------------

def _graph(lib, spec):
    return lib.graphs.build_circulant(spec.n, list(spec.gens))


def _elements(lib, spec) -> int:
    return spec.n + len(_graph(lib, spec).edges)


def _check_coloring(lib, spec, tc, claimed=None):
    """(ok, reason) for one coloring against its spec."""
    g = _graph(lib, spec)
    v = lib.verifiers
    if spec.prop == "nsd":
        try:
            report = v.verify_nsd(g, tc)
        except lib.errors.ImproperColoring as exc:
            return False, "not proper: %s" % exc
        ok = report.proper and report.nsd
    else:
        report = v.verify_total_coloring(g, tc)
        ok = report.proper and (report.equitable or spec.prop != "equitable")
    if not ok:
        return False, "coloring is not %s" % spec.prop
    if report.colors_used > spec.bound:
        return False, "%d colours, theorem bound %d" % (report.colors_used,
                                                       spec.bound)
    if claimed is not None and report.colors_used > claimed:
        return False, "%d colours, claimed bound %d" % (report.colors_used,
                                                       claimed)
    return True, ""


def _json_docs(text: str) -> list:
    dec, docs, pos = json.JSONDecoder(), [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)


REPRODUCE_LINE = re.compile(r"table \d+: OK \(\d+ cells checked\)")


def check(lib, op, saved, work: Path):
    """(ok, reason, elements) for one saved output of ``op``."""
    if isinstance(op, opsmod.OracleOp):
        return _check_oracle(lib, op, saved)
    stdout = (saved / "stdout").read_text()
    if op.check == "json":
        docs = _json_docs(stdout)
        if len(docs) != len(op.specs):
            return False, "%d colorings for %d expected" % (
                len(docs), len(op.specs)), 0
        elements = 0
        for doc, spec in zip(docs, op.specs):
            tc = lib.coloring.coloring_from_json_dict(doc)
            ok, why = _check_coloring(lib, spec, tc,
                                      doc["report"]["bound_claimed"])
            if not ok:
                return False, why, 0
            elements += _elements(lib, spec)
        return True, "", elements
    if op.check == "out":
        spec, = op.specs
        tc = lib.coloring.read_coloring_json(saved / (op.id + ".json"))
        report = json.loads((saved / (op.id + ".report.json")).read_text())
        ok, why = _check_coloring(lib, spec, tc, report["bound_claimed"])
        if not ok:
            return False, why, 0
        matrix, wild = lib.coloring.read_matrix_csv(saved / (op.id + ".csv"))
        if wild or lib.coloring.to_matrix(tc) != matrix:
            return False, "the CSV and JSON outputs differ", 0
        return True, "", _elements(lib, spec)
    if op.check == "reproduce":
        lines = stdout.splitlines()
        want = 1 if op.argv[-1] != "all" else len(lib.golden.TABLE_IDS)
        if len(lines) != want or not all(REPRODUCE_LINE.fullmatch(x)
                                         for x in lines):
            return False, "fixture report: %r" % stdout[:200], 0
        return True, "", 0
    if op.check == "verify":
        spec, = op.specs
        report = json.loads(stdout)
        flag = {"equitable": "equitable", "nsd": "nsd"}.get(spec.prop)
        if report["proper"] is not True or (flag and report[flag] is not True):
            return False, "verify reported %s" % stdout[:200], 0
        if report["colors_used"] > spec.bound:
            return False, "verify counted %d colours, bound %d" % (
                report["colors_used"], spec.bound), 0
        return True, "", _elements(lib, spec)
    if op.check == "export":
        spec, = op.specs
        out = saved / Path(_argv(op, work)[-1]).name
        if out.read_bytes() != (work / op.ref).read_bytes():
            return False, "exported file differs from %s" % op.ref, 0
        return True, "", _elements(lib, spec)
    raise ValueError("unknown check %r" % op.check)


def _check_oracle(lib, op, result):
    """The witness must be a coloring of the kind the value claims; the
    value itself is compared with the recorded one through the digest."""
    gens = tuple(range(1, op.k + 1))
    if op.quantity == "total":
        spec = opsmod.Spec(op.n, gens, "total", result.value)
    elif result.value:
        spec = opsmod.Spec(op.n, gens, op.quantity, op.palette)
    else:
        return True, "", 0  # "infeasible" has no witness
    ok, why = _check_coloring(lib, spec, result.witness)
    if not ok:
        return False, "oracle witness: " + why, 0
    return True, "", _elements(lib, spec)


# -- a whole run --------------------------------------------------------------

@dataclass
class RunResult:
    setup_s: float
    pass_walls: list
    attempts: list
    peak_rss_mb: float
    tracer: object = None
    traced_wall: float | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def run(workload, seed: int, seconds: float, trace: bool, expected: dict,
        setup_repeats: int, min_passes: int = 1, tamper=None) -> RunResult:
    """Set up, run passes until ``seconds`` have been measured and at least
    ``min_passes`` have run, then one traced pass when ``trace`` is set,
    then check.

    ``tamper(runner)`` may alter saved outputs before the check; the
    self-test uses it to show that a corrupted output fails its op.
    """
    require_package()
    work = ROOT / ".bench_work" / ("%s-%d-%d"
                                   % (workload.name, seed, os.getpid()))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        speed = Speed()
        lib, setup_s = setup(workload, work, setup_repeats, speed)
        runner = Runner(lib, workload, work, seed, speed)
        start = time.monotonic()
        while len(runner.pass_walls) < min_passes \
                or time.monotonic() - start < seconds:
            runner.run_pass()
        tracer, traced_wall = None, None
        if trace:
            tracer = spans.Tracer(lib)
            with tracer.installed():
                traced_wall = runner.run_pass(tracer)
        rss = peak_rss_mb()
        if tamper is not None:
            tamper(runner)
        runner.check_all(expected)
        return RunResult(setup_s, runner.pass_walls, runner.attempts, rss,
                         tracer, traced_wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
