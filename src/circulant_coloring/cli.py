"""Command-line surface: build graphs, run the theorem builders, verify
colorings, query the exact oracles, convert matrix files, and
reproduce the shipped fixtures.

Every subcommand exits with one of:

    0  success
    1  any other toolkit error (a missing fixture), a fixture mismatch,
       stdout closed early (a broken pipe), a failed write or other system
       error (a full disk: one ``error:`` line on stderr), or the process
       ran out of memory (the output may be partial)
    2  precondition failed: a bad or missing argument (a --budget below
       0 included), a malformed or unreadable file, an instance too
       large for the oracle
    3  verification failed (``color``, ``verify``)
    4  search budget exceeded (``color``, ``oracle``)

``--budget N`` bounds every exact search in a run: each search a builder
makes (the pooled 1-factorization, thm21-even's fallback, which is the
pooled search over every residual distance, the thm31 power-part
search) and the oracle.  Without it, the CLI passes no budget and each
library function's own default applies.  All runs are deterministic.

A call builds only the parser of the command ``argv[0]`` names, so it
pays for none of the other five; ``--budget`` before the command, or
``-h``, builds the parsers of all six.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import factorization, golden, oracle
from .coloring import (
    TotalColoring,
    _opened,
    coloring_from_csv_text,
    coloring_json_chunks,
    matrix_csv_lines,
    read_coloring_json,
    read_matrix_csv,
    write_coloring_json,
    write_matrix_csv,
)
from .constructions import (
    canonical_complete_coloring,
    color_power_cycle_even,
    color_power_cycle_odd,
    color_thm31,
    color_thm32,
    color_thm33,
    color_thm34,
    equitable_nsd_power_cycle,
)
from .errors import (
    CirculantColoringError,
    MismatchFound,
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from .graphs import CirculantGraph, build_circulant
from .oracle import (
    Mode,
    exact_chromatic_index,
    exact_feasible,
    exact_total_chromatic,
)
from .verifiers import verify_nsd, verify_total_coloring

EXIT_OK = 0
EXIT_FAIL = CirculantColoringError.exit_code
EXIT_PRECONDITION = PreconditionFailed.exit_code
EXIT_VERIFICATION = VerificationFailed.exit_code
EXIT_BUDGET = SearchBudgetExceeded.exit_code


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PreconditionFailed("generator list %r is not comma-separated integers" % text)


def _graph(args, text: str | None = None) -> CirculantGraph:
    """The circulant on Z_n with the distances of text, of --gens when
    text is None: an empty option is an empty set, not --gens."""
    return build_circulant(
        args.n, _parse_gens(args.gens if text is None else text))


def _report_dict(rep) -> dict:
    return {
        "colors_used": rep.colors_used,
        "bound_claimed": rep.bound_claimed,
        "fallback_used": rep.fallback_used,
        "notes": rep.notes,
    }


def _emit(tc: TotalColoring, fmt: str | None, out: str | None, suffix: str,
          extra: dict) -> None:
    if out:
        base = out + suffix
        if fmt != "json":
            write_matrix_csv(tc, base + ".csv")
        if fmt != "csv":
            write_coloring_json(tc, base + ".json")
        with _opened(base + ".report.json", "w") as fh:
            json.dump(extra, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    if fmt == "json":
        sys.stdout.writelines(coloring_json_chunks(tc, extra))
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(map("%s\n".__mod__, matrix_csv_lines(tc)))
        print("# " + json.dumps(extra, sort_keys=True))


def cmd_build(args) -> int:
    g = _graph(args)
    json.dump(g.to_json_dict(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _one(rep) -> list:
    return [("", rep.coloring, _report_dict(rep))]


def _pair(reps) -> list:
    eq, nsd = reps
    return [("-equitable", eq.coloring, _report_dict(eq)),
            ("-nsd", nsd.coloring, _report_dict(nsd))]


# Registries: name -> (options the entry requires, call(args, **budget)).
# An option another entry reads is refused.  ``budget`` holds --budget
# when it was given, so without it each library default applies.  The
# calls look each builder up through this module's globals when they
# run, so a wrapper installed on the module attribute sees every call.
# A color call returns [(file suffix, coloring, report dict)].
COLOR_METHODS = {
    "thm21-even": (("k", "i"), lambda a, **budget: _one(
        color_power_cycle_even(a.n, a.k, a.i, **budget))),
    "thm21-odd": (("k", "i"), lambda a, **budget: _one(
        color_power_cycle_odd(a.n, a.k, a.i))),
    "thm22": (("k",), lambda a, **budget: _pair(
        equitable_nsd_power_cycle(a.n, a.k))),
    "thm31": (("gens",), lambda a, **budget: _one(
        color_thm31(_graph(a), **budget))),
    "thm32": (("gens",), lambda a, **budget: _one(color_thm32(_graph(a)))),
    "thm33": (("gens", "m_gens"), lambda a, **budget: _one(color_thm33(
        _graph(a), _graph(a, a.m_gens), **budget))),
    "thm34": (("gens", "s1_gens"), lambda a, **budget: _pair(color_thm34(
        _graph(a), _graph(a, a.s1_gens), **budget))),
    "canonical": ((), lambda a, **budget: _one(
        canonical_complete_coloring(a.n))),
}

ORACLE_QUANTITIES = {
    "total-chromatic": ((), lambda a, **budget: exact_total_chromatic(
        _graph(a), **budget)),
    "chromatic-index": ((), lambda a, **budget: exact_chromatic_index(
        _graph(a), **budget)),
    "equitable-feasible": (("k",), lambda a, **budget: exact_feasible(
        _graph(a), a.k, Mode.EQUITABLE, **budget)),
    "nsd-feasible": (("k",), lambda a, **budget: exact_feasible(
        _graph(a), a.k, Mode.NSD, **budget)),
}


def _call(registry: dict, name: str, args):
    requires, call = registry[name]
    others = {opt for r, _ in registry.values() for opt in r}
    missing = [opt for opt in requires if getattr(args, opt) is None]
    foreign = [opt for opt in sorted(others - set(requires))
               if getattr(args, opt) is not None]
    for problem, opts in (("requires", missing), ("does not take", foreign)):
        if opts:
            raise PreconditionFailed("%s %s %s" % (name, problem, ", ".join(
                "--" + opt.replace("_", "-") for opt in opts)))
    if args.budget is None:
        return call(args)
    return call(args, budget=args.budget)


def cmd_color(args) -> int:
    for suffix, tc, report in _call(COLOR_METHODS, args.method, args):
        _emit(tc, args.format, args.out, suffix, report)
    return EXIT_OK


def _load_coloring(path: str) -> TotalColoring:
    if path.endswith(".json"):
        return read_coloring_json(path)
    return read_matrix_csv(path, coloring_from_csv_text)


def cmd_verify(args) -> int:
    g = _graph(args)
    tc = _load_coloring(args.infile)
    report = (verify_nsd if args.nsd else verify_total_coloring)(g, tc)
    # every check a flag asks for must pass
    ok = (report.proper and (report.equitable or not args.equitable)
          and (report.nsd or not args.nsd))
    json.dump(report.to_json_dict(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_oracle(args) -> int:
    res = _call(ORACLE_QUANTITIES, args.quantity, args)
    print(json.dumps({
        "quantity": res.quantity.value,
        "value": res.value,
        "nodes_explored": res.nodes_explored,
    }, sort_keys=True))
    return EXIT_OK


def cmd_export(args) -> int:
    tc = _load_coloring(args.infile)
    if args.format == "json":
        write_coloring_json(tc, args.out)
    else:
        write_matrix_csv(tc, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ids = golden.TABLE_IDS if args.table == "all" else (int(args.table),)
    status = EXIT_OK
    for tid in ids:
        try:
            checked = golden.reproduce_table(tid)
            print("table %d: OK (%d cells checked)" % (tid, checked))
        except MismatchFound as exc:
            print("table %d: MISMATCH: %s" % (tid, exc))
            status = EXIT_FAIL
    return status


COMMANDS = ("build", "color", "verify", "oracle", "export", "reproduce")


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``command`` when given."""
    p = argparse.ArgumentParser(
        prog="circulant-coloring",
        description="Total, equitable, and NSD total colorings of "
                    "circulant graphs, with verification and oracles.")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of each exact search, the oracle's "
                        "included (default: {:,} per builder search, "
                        "{:,} for the oracle)".format(
                            factorization.DEFAULT_SEARCH_BUDGET,
                            oracle.DEFAULT_NODE_BUDGET))
    # one command's parser still prints every name in the top-level usage
    sub = p.add_subparsers(dest="command", required=True, metavar=(
        command and "{%s}" % ",".join(COMMANDS)))
    in_help = ("coloring file, JSON if its name ends in .json, else CSV "
               "(so /dev/stdin is CSV: pipe JSON through a FIFO *.json)")

    if command in (None, "build"):
        b = sub.add_parser("build", help="print a circulant graph as JSON")
        b.add_argument("--n", type=int, required=True)
        b.add_argument("--gens", required=True, help="comma-separated distances")
        b.set_defaults(func=cmd_build)

    if command in (None, "color"):
        c = sub.add_parser("color", help="run a theorem builder")
        c.add_argument("--method", required=True, choices=list(COLOR_METHODS))
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--k", type=int, default=None)
        c.add_argument("--i", type=int, default=None)
        c.add_argument("--gens", default=None)
        c.add_argument("--s1-gens", dest="s1_gens", default=None)
        c.add_argument("--m-gens", dest="m_gens", default=None)
        c.add_argument("--format", choices=["csv", "json"], default=None,
                       help="output format (default: csv to stdout, or with "
                            "--out both files)")
        c.add_argument("--out", default=None,
                       help="output path prefix: writes .report.json and the "
                            "--format file, or .csv and .json without --format")
        c.set_defaults(func=cmd_color)

    if command in (None, "verify"):
        v = sub.add_parser("verify", help="verify a coloring file")
        v.add_argument("--n", type=int, required=True)
        v.add_argument("--gens", required=True)
        v.add_argument("--in", dest="infile", required=True, help=in_help)
        v.add_argument("--equitable", action="store_true")
        v.add_argument("--nsd", action="store_true")
        v.set_defaults(func=cmd_verify)

    if command in (None, "oracle"):
        o = sub.add_parser(
            "oracle", help="exact value on a tiny instance: a verified "
            "closed-form coloring, the partition rule or bounded search")
        o.add_argument("--quantity", required=True,
                       choices=list(ORACLE_QUANTITIES))
        o.add_argument("--n", type=int, required=True)
        o.add_argument("--gens", required=True)
        o.add_argument("--k", type=int, default=None,
                       help="palette size for the feasibility quantities")
        o.set_defaults(func=cmd_oracle)

    if command in (None, "export"):
        e = sub.add_parser("export", help="convert a coloring between csv and json")
        e.add_argument("--in", dest="infile", required=True, help=in_help)
        e.add_argument("--format", choices=["csv", "json"], required=True)
        e.add_argument("--out", required=True)
        e.set_defaults(func=cmd_export)

    if command in (None, "reproduce"):
        r = sub.add_parser("reproduce", help="rebuild and diff a shipped fixture")
        r.add_argument("--table", default="all",
                       choices=["all"] + [str(t) for t in golden.TABLE_IDS],
                       help="fixture number, or 'all'")
        r.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv and argv[0] in COMMANDS
                       else None).parse_args(argv)
    try:
        if args.budget is not None and args.budget < 0:
            raise PreconditionFailed("--budget must be at least 0, got %d"
                                     % args.budget)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # a failed write (a full disk) or a closed stdout (``| head``, which
        # stays silent).  If stdout still fails, the rest of its output, the
        # final flush included, goes to the null device and cannot raise
        if not isinstance(exc, BrokenPipeError):
            print("error: %s" % exc, file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except CirculantColoringError as exc:
        print("%s: %s" % (exc.label, exc), file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        # the writers stream, so what was written before stays written
        print("out of memory: the run needs more memory than this process "
              "may allocate", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
