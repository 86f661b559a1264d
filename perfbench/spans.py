"""Per-layer tracing from outside the program.

For the traced pass only, each layer's public functions are replaced by
wrappers under the names through which the calling module looks them up
(``constructions.verify_total_coloring``, ``cli.write_matrix_csv``, ...).
A wrapper records a span: name, start, end, parent span and op id.  Spans
stay in memory and are written out when the run ends.  A few hot helpers
are only counted, because a span per call would cost more than the call.

A span's self time is its duration minus the time its child spans cover.
Layer times are plain seconds of the one traced pass, not scaled to the
reference speed the end-to-end times use.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

BUILDERS = ("color_power_cycle_even", "color_power_cycle_odd",
            "equitable_nsd_power_cycle", "color_thm31", "color_thm32",
            "color_thm33", "color_thm34", "canonical_complete_coloring")

# (module, attribute, span name).  Builders looked up by the CLI and the
# fixture code are the top-level builds; the ones looked up inside
# ``constructions`` are builds nested in another builder.
SPANS = (
    [("cli", b, "constructions.build") for b in BUILDERS]
    + [("golden", b, "constructions.build")
       for b in ("color_power_cycle_odd", "color_thm32", "color_thm34",
                 "equitable_nsd_power_cycle")]
    + [("constructions", b, "constructions.build") for b in BUILDERS]
    + [(m, f, "verifiers.verify")
       for m, fs in (("constructions", ("verify_total_coloring",
                                        "verify_equitable", "verify_nsd")),
                     ("cli", ("verify_total_coloring", "verify_nsd")),
                     ("oracle", ("verify_total_coloring",)))
       for f in fs]
    + [("constructions", "one_factorize", "factorization.one_factorize"),
       ("constructions", "edge_color_delta_plus_one", "factorization.vizing"),
       ("constructions", "split_rainbow_matchings", "factorization.rainbow"),
       ("cli", "_emit", "coloring.write"),
       ("cli", "write_matrix_csv", "coloring.write"),
       ("cli", "write_coloring_json", "coloring.write"),
       ("cli", "_load_coloring", "coloring.read"),
       ("cli", "read_matrix_csv", "coloring.read"),
       ("cli", "read_coloring_json", "coloring.read"),
       ("golden", "reproduce_table", "golden.reproduce"),
       ("oracle", "exact_total_chromatic", "oracle"),
       ("oracle", "exact_feasible", "oracle")]
)

# (module, attribute, counter name): counted, not spanned.
COUNTED = (
    ("constructions", "closed_form_entry", "latin.entry_calls"),
    ("constructions", "canonical_first_row", "constructions.first_row_calls"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("graphs.edges_s", "s"), ("graphs.edges_built", "count"),
    ("graphs.edge_count", "count"),
    ("latin.entry_calls", "count"), ("constructions.first_row_calls", "count"),
    ("constructions.self_s", "s"), ("constructions.builds", "count"),
    ("constructions.fallbacks", "count"),
    ("factorization.vizing_s", "s"), ("factorization.vizing_edges", "count"),
    ("factorization.one_factorize_s", "s"), ("factorization.factors", "count"),
    ("factorization.rainbow_s", "s"),
    ("verifiers.verify_s", "s"), ("verifiers.verify_calls", "count"),
    ("verifiers.elements_checked", "count"),
    ("coloring.write_s", "s"), ("coloring.bytes_written", "B"),
    ("coloring.read_s", "s"), ("coloring.bytes_read", "B"),
    ("oracle.s", "s"), ("oracle.nodes", "count"), ("oracle.nodes_per_s", "1/s"),
    ("oracle.undecided", "count"),
    ("cli.self_s", "s"), ("golden.reproduce_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _stdout_pos() -> int:
    """Characters written so far to the captured stdout."""
    try:
        return sys.stdout.tell()
    except (OSError, ValueError, AttributeError):
        return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Holds the spans and counts of one traced pass."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.missing: list[str] = []  # wrap targets the program lacks

    def begin_op(self, op_id: str) -> None:
        self.op = op_id

    def span(self, name, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, result, mark)``
        adds to the counts once the call has returned, where ``mark`` is
        the captured stdout's length when the call began."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = _stdout_pos()
            rec = [name, time.perf_counter(), None,
                   tracer.stack[-1] if tracer.stack else None, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result, mark)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # what a wrapper adds to the counts once its call has returned
    def _after(self, module: str, attr: str, name: str):
        c = self.counts
        if name == "constructions.build" and module != "constructions":
            def after(args, result, mark):
                reports = result if isinstance(result, tuple) else (result,)
                for rep in reports:
                    c["constructions.builds"] += 1
                    c["constructions.fallbacks"] += bool(
                        getattr(rep, "fallback_used", False))
            return after
        if name == "verifiers.verify":
            def after(args, result, mark):
                g = args[0]
                c["verifiers.verify_calls"] += 1
                c["verifiers.elements_checked"] += g.n + len(g.edges)
            return after
        if name == "factorization.one_factorize":
            return lambda args, result, mark: c.update(
                {"factorization.factors": len(result.factors)})
        if name == "factorization.vizing":
            return lambda args, result, mark: c.update(
                {"factorization.vizing_edges": len(result.colors)})
        if attr in ("write_matrix_csv", "write_coloring_json"):
            return lambda args, result, mark: c.update(
                {"coloring.bytes_written": _file_size(args[1])})
        if attr in ("read_matrix_csv", "read_coloring_json"):
            return lambda args, result, mark: c.update(
                {"coloring.bytes_read": _file_size(args[0])})
        if attr == "_emit":
            # stdout only: file output is counted by the writers
            return lambda args, result, mark: c.update(
                {"coloring.bytes_written": _stdout_pos() - mark})
        return None

    def note_oracle(self, result, undecided: bool, budget: int) -> None:
        """An undecided instance counts its whole node budget."""
        if undecided:
            self.counts["oracle.undecided"] += 1
            self.counts["oracle.nodes"] += budget
        elif result is not None:
            self.counts["oracle.nodes"] += result.nodes_explored

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        targets = [t + (False,) for t in SPANS] + [t + (True,) for t in COUNTED]
        try:
            for module, attr, name, counted in targets:
                mod = getattr(self.lib, module)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append("%s.%s" % (module, attr))
                    continue
                restore.append((mod, attr, fn))
                setattr(mod, attr, self._counted(name, fn) if counted else
                        self.span(name, fn, self._after(module, attr, name)))
            self._wrap_edges(restore)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap_edges(self, restore) -> None:
        cls = self.lib.graphs.CirculantGraph
        prop = cls.__dict__.get("edges")
        if not isinstance(prop, functools.cached_property):
            self.missing.append("graphs.CirculantGraph.edges")
            return
        c = self.counts

        def after(args, result, mark):
            c["graphs.edges_built"] += 1
            c["graphs.edge_count"] += len(result)
        wrapped = functools.cached_property(
            self.span("graphs.edges", prop.func, after))
        wrapped.__set_name__(cls, "edges")
        restore.append((cls, "edges", prop))
        setattr(cls, "edges", wrapped)

    # -- aggregation ------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent is not None:
                child[parent] += end - start
        total, self_time = Counter(), Counter()
        for idx, (name, start, end, parent, _op) in enumerate(spans):
            self_time[name] += (end - start) - child[idx]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:  # outermost span of its name
                total[name] += end - start
        c = self.counts
        values = {
            "graphs.edges_s": total["graphs.edges"],
            "constructions.self_s": self_time["constructions.build"],
            "factorization.vizing_s": total["factorization.vizing"],
            "factorization.one_factorize_s":
                total["factorization.one_factorize"],
            "factorization.rainbow_s": total["factorization.rainbow"],
            "verifiers.verify_s": total["verifiers.verify"],
            "coloring.write_s": total["coloring.write"],
            "coloring.read_s": total["coloring.read"],
            "oracle.s": total["oracle"],
            "oracle.nodes_per_s": (c["oracle.nodes"] / total["oracle"]
                                   if total["oracle"] else 0.0),
            "cli.self_s": self_time["cli"],
            "golden.reproduce_s": total["golden.reproduce"],
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        return {name: {"value": values[name] if name in values else c[name],
                       "unit": unit}
                for name, unit in PER_LAYER}

    def dump(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p,
                           "op": op} for n, s, e, p, op in self.spans],
                "counts": dict(self.counts), "unwrapped": self.missing}
