import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring import (
    cli,
    constructions,
    factorization,
    golden,
    oracle,
)
from circulant_coloring.cli import (
    COLOR_METHODS,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFICATION,
    ORACLE_QUANTITIES,
    main,
)
from circulant_coloring.coloring import (
    TotalColoring,
    coloring_from_json_dict,
    read_coloring_json,
    write_coloring_json,
    write_matrix_csv,
)
from circulant_coloring.constructions import (
    color_power_cycle_even,
    equitable_nsd_power_cycle,
)
from circulant_coloring.errors import (
    CirculantColoringError,
    MismatchFound,
    PreconditionFailed,
    SearchBudgetExceeded,
    VerificationFailed,
)
from circulant_coloring.graphs import power_of_cycle
from circulant_coloring.verifiers import verify_total_coloring


class TestBuild:
    def test_normalizes_and_prints(self, capsys):
        assert main(["build", "--n", "24",
                     "--gens", "1,3,4,5,10,14"]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{"generators": [1, 3, 4, 5, 10], "n": 24}\n')

    def test_bad_gens(self, capsys):
        assert main(["build", "--n", "10", "--gens", "1,x"]) == EXIT_PRECONDITION


class TestColor:
    def test_csv_to_stdout(self, capsys):
        assert main(["color", "--method", "thm21-even",
                     "--n", "18", "--k", "4", "--i", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "," + ",".join(str(v) for v in range(18))
        assert lines[-1].startswith("# ")
        report = json.loads(lines[-1][2:])
        assert report["colors_used"] == 9

    def test_json_to_stdout(self, capsys):
        assert main(["color", "--method", "thm21-odd", "--format", "json",
                     "--n", "9", "--k", "1", "--i", "2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 9
        assert payload["report"]["colors_used"] == 3

    def test_out_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["color", "--method", "thm21-even", "--n", "18",
                     "--k", "4", "--i", "5", "--out", prefix]) == EXIT_OK
        assert (tmp_path / "run.csv").is_file()
        assert (tmp_path / "run.json").is_file()
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["bound_claimed"] == 9
        tc = read_coloring_json(tmp_path / "run.json")
        assert tc == color_power_cycle_even(18, 4, 5).coloring

    def test_two_output_methods(self, tmp_path, capsys):
        prefix = str(tmp_path / "pair")
        assert main(["color", "--method", "thm22", "--n", "18",
                     "--k", "4", "--out", prefix]) == EXIT_OK
        for suffix in ("-equitable", "-nsd"):
            for ext in (".csv", ".json", ".report.json"):
                assert (tmp_path / ("pair%s%s" % (suffix, ext))).is_file()
        # each file passes its checks, and the NSD CSV goes to JSON and
        # back unchanged
        verify = ["verify", "--n", "18", "--gens", "1,2,3,4", "--in"]
        assert main(verify + [prefix + "-equitable.csv",
                              "--equitable"]) == EXIT_OK
        assert main(verify + [prefix + "-nsd.csv", "--nsd",
                              "--equitable"]) == EXIT_OK
        for src, fmt, dst in [("pair-nsd.csv", "json", "y.json"),
                              ("y.json", "csv", "y.csv")]:
            assert main(["export", "--in", str(tmp_path / src), "--format",
                         fmt, "--out", str(tmp_path / dst)]) == EXIT_OK
        assert ((tmp_path / "y.csv").read_bytes()
                == (tmp_path / "pair-nsd.csv").read_bytes())

    def test_precondition_exit(self, capsys):
        assert main(["color", "--method", "thm21-even",
                     "--n", "9", "--k", "1", "--i", "2"]) == EXIT_PRECONDITION
        assert "precondition" in capsys.readouterr().err
        assert main(["color", "--method", "thm21-even",
                     "--n", "20", "--k", "4", "--i", "2"]) == EXIT_PRECONDITION
        assert capsys.readouterr() == (
            "", "precondition failed: k+i = 6 must be odd\n")

    def test_missing_gens(self, capsys):
        assert main(["color", "--method", "thm32",
                     "--n", "24"]) == EXIT_PRECONDITION

    def test_budget_exit(self, capsys):
        assert main(["--budget", "10", "color", "--method", "thm31",
                     "--n", "20", "--gens", "1,2,3,4,5,7,8"]) == EXIT_BUDGET

    def test_thm34(self, capsys):
        assert main(["color", "--method", "thm34", "--format", "json",
                     "--n", "18", "--gens", "1,2,4,6,7,8",
                     "--s1-gens", "1,2,4,6"]) == EXIT_OK


class TestVerify:
    def _write_good(self, tmp_path):
        tc = color_power_cycle_even(18, 4, 5).coloring
        path = tmp_path / "good.csv"
        write_matrix_csv(tc, path)
        return tc, str(path)

    def test_ok(self, tmp_path, capsys):
        _, path = self._write_good(tmp_path)
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["proper"] is True

    def test_equitable_flag(self, tmp_path, capsys):
        _, path = self._write_good(tmp_path)
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", path, "--equitable"]) == EXIT_OK

    def test_corrupted_rejected(self, tmp_path, capsys):
        tc, _ = self._write_good(tmp_path)
        e = next(tc.edge_items())[0]
        bad = tc.with_edge_colors({e: tc.vertex_colors[e[0]]})
        path = tmp_path / "bad.csv"
        write_matrix_csv(bad, path)
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", str(path)]) == EXIT_VERIFICATION
        report = json.loads(capsys.readouterr().out)
        assert report["violations"]

    def test_nsd_flag(self, tmp_path, capsys):
        _, path = self._write_good(tmp_path)
        # the plain equitable coloring is not sum-distinguishing
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", path, "--nsd"]) == EXIT_VERIFICATION

    def test_every_flag_required(self, tmp_path, capsys):
        # C_6 with distinct sums but four vertices of colour 1 against one
        # cell each of 2, 3, 4 and the edge colours: NSD, not equitable
        path = tmp_path / "c6.json"
        write_coloring_json(TotalColoring.from_pairs(
            (1, 2, 1, 3, 1, 4),
            dict(zip(power_of_cycle(6, 1).edges,
                     [10, 20, 40, 80, 160, 320]))), path)
        argv = ["verify", "--n", "6", "--gens", "1", "--in", str(path)]
        assert main(argv + ["--nsd"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["nsd"] is True and report["equitable"] is False
        assert main(argv + ["--equitable"]) == EXIT_VERIFICATION
        assert main(argv + ["--nsd", "--equitable"]) == EXIT_VERIFICATION
        assert main(argv + ["--equitable", "--nsd"]) == EXIT_VERIFICATION

    # n = 21,000 has 210,000 edges, and a copy whose edge (20990, 20991)
    # takes vertex 20990's colour fails: a verifier that reads one period
    # of the tiling sees no fault; n = 22,000's residual distances 6..10
    # take the peeled 1-factorization's columns; thm21-odd n = 2431 colours
    # its distances 6, 7 and 8 by Vizing
    @pytest.mark.parametrize("argv,flags,late", [
        ("thm21-even --n 21000 --k 10 --i 11", ["--equitable"], 20990),
        ("thm21-even --n 22000 --k 10 --i 1", [], None),
        ("thm21-odd --n 2431 --k 8 --i 3", [], None)],
        ids=["21000-equitable", "22000", "2431-odd"])
    def test_at_scale(self, argv, flags, late, tmp_path, capsys):
        assert main(["color", "--method"] + argv.split()
                    + ["--format", "json"]) == EXIT_OK
        path = tmp_path / "big.json"
        path.write_text(capsys.readouterr().out)
        n, k = argv.split()[2:5:2]
        verify = ["verify", "--n", n, "--gens", ",".join(
            map(str, range(1, int(k) + 1))), "--in", str(path)] + flags
        assert main(verify) == EXIT_OK
        if late is not None:
            d = json.loads(path.read_text())
            e = next(e for e in d["edges"]
                     if e["u"] == late and e["v"] == late + 1)
            e["c"] = d["vertex_colors"][late]
            path.write_text(json.dumps(d))
            assert main(verify) == EXIT_VERIFICATION


class TestOracle:
    def test_total_chromatic(self, capsys):
        assert main(["oracle", "--quantity", "total-chromatic",
                     "--n", "6", "--gens", "1"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 3

    def test_feasibility(self, capsys):
        assert main(["oracle", "--quantity", "nsd-feasible",
                     "--n", "6", "--gens", "1", "--k", "4"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] is True

    @pytest.mark.parametrize("argv,code,out,err", [
        # 16 nodes refute 5 colors, 393 more find 6
        (["oracle", "--quantity", "total-chromatic", "--n", "8",
          "--gens", "1,3"], EXIT_OK,
         '{"nodes_explored": 409, "quantity": "TotalChromatic", '
         '"value": 6}\n', ""),
        # runs out in the second palette, and names the whole budget
        (["--budget", "100", "oracle", "--quantity", "total-chromatic",
          "--n", "8", "--gens", "1,3"], EXIT_BUDGET, "",
         "search budget exceeded: oracle search exceeded 100 nodes\n"),
        (["oracle", "--quantity", "chromatic-index", "--n", "9",
          "--gens", "1,2"], EXIT_OK,
         '{"nodes_explored": 29, "quantity": "ChromaticIndex", '
         '"value": 5}\n', ""),
        (["oracle", "--quantity", "equitable-feasible", "--n", "10",
          "--gens", "1,2", "--k", "5"], EXIT_OK,
         '{"nodes_explored": 47, "quantity": "EquitableTotalFeasible", '
         '"value": true}\n', ""),
        (["oracle", "--quantity", "total-chromatic", "--n", "12",
          "--gens", "1,2,3,4"], EXIT_OK,
         '{"nodes_explored": 71, "quantity": "TotalChromatic", '
         '"value": 9}\n', ""),
        (["--budget", "5", "oracle", "--quantity", "total-chromatic",
          "--n", "12", "--gens", "1,2,3,4"], EXIT_BUDGET, "",
         "search budget exceeded: oracle search exceeded 5 nodes\n"),
        (["oracle", "--quantity", "nsd-feasible", "--n", "7",
          "--gens", "1,2,3", "--k", "7"], EXIT_OK,
         '{"nodes_explored": 38016, "quantity": "NsdTotalFeasible", '
         '"value": false}\n', "")])
    def test_pinned_output(self, argv, code, out, err, capsys):
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)


class TestExport:
    def test_round_trip_byte_identical(self, tmp_path, capsys):
        tc = color_power_cycle_even(18, 4, 5).coloring
        a = tmp_path / "a.csv"
        write_matrix_csv(tc, a)
        j = tmp_path / "b.json"
        assert main(["export", "--in", str(a), "--format", "json",
                     "--out", str(j)]) == EXIT_OK
        c = tmp_path / "c.csv"
        assert main(["export", "--in", str(j), "--format", "csv",
                     "--out", str(c)]) == EXIT_OK
        assert a.read_bytes() == c.read_bytes()

    def test_blank_diagonal_round_trip(self, tmp_path, capsys):
        # vertex 0 has no colour: a blank diagonal cell, null in JSON
        a = tmp_path / "a.csv"
        a.write_bytes(b",0,1,2,3,4\r\n0,,1,,,2\r\n1,1,2,3,,\r\n2,,3,1,1,\r\n"
                      b"3,,,1,2,3\r\n4,2,,,3,1\r\n")
        j, c = tmp_path / "b.json", tmp_path / "c.csv"
        assert main(["export", "--in", str(a), "--format", "json",
                     "--out", str(j)]) == EXIT_OK
        assert json.loads(j.read_text())["vertex_colors"][0] is None
        assert main(["export", "--in", str(j), "--format", "csv",
                     "--out", str(c)]) == EXIT_OK
        assert a.read_bytes() == c.read_bytes()
        capsys.readouterr()
        for path in (a, j):
            assert main(["verify", "--n", "5", "--gens", "1",
                         "--in", str(path)]) == EXIT_VERIFICATION
            assert ("vertex 0 has no valid color"
                    in capsys.readouterr().err)

    def test_color_stdout_reads_back(self, tmp_path, capsys):
        # the stdout CSV ends in a '# {report}' comment line, which verify
        # and export skip; export gives back the bytes of --out's CSV
        argv = ["color", "--method", "thm21-even", "--n", "18", "--k", "4",
                "--i", "5"]
        assert main(argv) == EXIT_OK
        stdout = tmp_path / "stdout.csv"
        stdout.write_text(capsys.readouterr().out)
        assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_OK
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", str(stdout)]) == EXIT_OK
        again = tmp_path / "again.csv"
        assert main(["export", "--in", str(stdout), "--format", "csv",
                     "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == (tmp_path / "run.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_onto_its_own_input(self, tmp_path, fmt):
        # the other format's file exports to this one's bytes; this one
        # is read to its end and closed before the writer truncates it.
        # At n = 1050 each spans many reads of either reader
        assert main(["color", "--method", "thm21-even", "--n", "1050",
                     "--k", "10", "--i", "11",
                     "--out", str(tmp_path / "a")]) == EXIT_OK
        path = tmp_path / ("a." + fmt)
        written = path.read_bytes()
        other = tmp_path / ("a." + ("json" if fmt == "csv" else "csv"))
        assert main(["export", "--in", str(other), "--format", fmt,
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "b").read_bytes() == written
        assert main(["export", "--in", str(path), "--format", fmt,
                     "--out", str(path)]) == EXIT_OK
        assert path.read_bytes() == written

    def test_wildcards_refused(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text(",0,1\n0,1,*\n1,*,2\n")
        assert main(["verify", "--n", "3", "--gens", "1",
                     "--in", str(path)]) == EXIT_PRECONDITION


class TestReproduce:
    def test_single_table(self, capsys):
        assert main(["reproduce", "--table", "2"]) == EXIT_OK
        assert "table 2: OK" in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["reproduce"]) == EXIT_OK
        out = capsys.readouterr().out
        for tid in range(1, 7):
            assert ("table %d: OK" % tid) in out

    def test_package_runs_as_a_module(self, capsys):
        argv = ["reproduce", "--table", "all"]
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_coloring"] + argv,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(argv) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out


class TestDeterminism:
    def test_repeat_color_runs_identical(self, capsys):
        main(["color", "--method", "thm34", "--format", "json",
              "--n", "18", "--gens", "1,2,4,6,7,8", "--s1-gens", "1,2,4,6"])
        first = capsys.readouterr().out
        main(["color", "--method", "thm34", "--format", "json",
              "--n", "18", "--gens", "1,2,4,6,7,8", "--s1-gens", "1,2,4,6"])
        assert capsys.readouterr().out == first


def exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitContract:
    @pytest.mark.parametrize("argv", [
        ["color", "--method", "thm21-even", "--n", "18"],
        ["color", "--method", "thm22", "--n", "18", "--k", "0"],
        ["build", "--n", "2", "--gens", "1"],
        ["oracle", "--quantity", "total-chromatic", "--n", "13", "--gens", "1"],
        ["oracle", "--quantity", "equitable-feasible", "--n", "8",
         "--gens", "1,2"],
        ["oracle", "--quantity", "equitable-feasible", "--n", "8",
         "--gens", "1,2", "--k", "0"],
        ["--budget", "-1", "oracle", "--quantity", "total-chromatic",
         "--n", "6", "--gens", "1"],
        ["--budget", "-5", "color", "--method", "thm21-even", "--n", "12",
         "--k", "2", "--i", "1"],
    ])
    def test_precondition(self, argv, capsys):
        assert exit_code(argv) == EXIT_PRECONDITION
        assert "precondition failed" in capsys.readouterr().err

    def test_thm34_involution(self, capsys):
        # the subset part colors u and u + n/2 alike: never a verification
        # failure (exit 3), always a precondition
        argv = ("color --method thm34 --n 18 --gens 1,2,4,6,7,9 "
                "--s1-gens 1,2,4,6").split()
        assert exit_code(argv) == EXIT_PRECONDITION
        assert "involution n/2 = 9 must be absent" in capsys.readouterr().err

    # every precondition of thm31, thm33 and thm34, the complement's
    # included, with its exact line on stderr; thm34's "the complement of
    # the subset is empty" cannot be reached, because its degree > n/2
    # and its subset's n/2 - 1 symmetric distances leave a distance out
    @pytest.mark.parametrize("argv,message", [
        ("thm31 --n 15 --gens 1,2,3,4,5,6", "n must be even"),
        ("thm31 --n 3 --gens 1", "n must be even"),
        ("thm31 --n 18 --gens 1,2,3,4,5,6,7,8",
         "the inner power of cycle needs 4 | n"),
        ("thm31 --n 20 --gens 1,2", "need degree >= n/2"),
        ("thm31 --n 20 --gens 1,2,3,4,5,6,7,8,9,10",
         "the involution n/2 must be absent"),
        ("thm31 --n 20 --gens 1,2,3,4,6,7,8,9",
         "inner subset must lie inside S"),
        ("thm31 --n 20 --gens 1,2,3,4,5",
         "the complement of the inner subset is empty"),
        ("thm31 --n 20 --gens 1,2,3,4,5,8",
         "the complement of the inner subset must generate the whole group"),
        ("thm33 --n 23 --gens 1,2 --m-gens 1", "n must be even"),
        ("thm33 --n 24 --gens 1,12 --m-gens 1",
         "the involution n/2 must be absent"),
        ("thm33 --n 24 --gens 1,3,4,5,10 --m-gens 1,2,3,4,5",
         "M must lie inside S"),
        ("thm33 --n 24 --gens 1,3,4,5,10,11 --m-gens 1,3",
         "M must induce degree n/2 - 2"),
        ("thm33 --n 24 --gens 1,2,3,4,6,7,10 --m-gens 1,2,3,4,6",
         "M must be sum-free with respect to n/2"),
        ("thm33 --n 24 --gens 1,3,4,5,10 --m-gens 1,3,4,5,10",
         "the complement of M in S is empty"),
        ("thm33 --n 24 --gens 1,2,3,4,5,10 --m-gens 1,3,4,5,10",
         "the complement of M in S must generate the whole group"),
        ("thm34 --n 16 --gens 1,2,3,4,5 --s1-gens 1,2,3",
         "need n = 2m with m odd"),
        ("thm34 --n 18 --gens 1,2,4,6 --s1-gens 1,2,4,6",
         "need degree > n/2"),
        ("thm34 --n 18 --gens 1,2,4,6,7,8 --s1-gens 1,2,3,4",
         "subset must lie inside S"),
        ("thm34 --n 18 --gens 1,2,4,6,7,8 --s1-gens 1,2,4",
         "subset must have m - 1 symmetric distances"),
        ("thm34 --n 18 --gens 1,2,4,6,7,8,9 --s1-gens 1,2,4,6",
         "the involution n/2 = 9 must be absent"),
        ("thm34 --n 18 --gens 1,2,4,8,7 --s1-gens 1,2,4,8",
         "subset distances must be pairwise distinct and nonzero mod n/2"),
        ("thm34 --n 18 --gens 2,4,6,8,1 --s1-gens 2,4,6,8",
         "subset must contain a group generator"),
        ("thm34 --n 18 --gens 1,2,3,4,6 --s1-gens 1,2,4,6",
         "the complement of the subset must generate the whole group"),
    ])
    def test_theorem_precondition(self, argv, message, capsys):
        assert exit_code(["color", "--method"] + argv.split()) == (
            EXIT_PRECONDITION)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "precondition failed: %s\n" % message

    # an empty subset option is an empty set, never --gens
    @pytest.mark.parametrize("argv", [
        "thm33 --n 24 --gens 1,2,3,4,5,7,10 --m-gens",
        "thm34 --n 18 --gens 1,2,4,6,7,8 --s1-gens",
    ])
    def test_empty_subset_option(self, argv, capsys):
        assert exit_code(["color", "--method"] + argv.split() + [""]) == (
            EXIT_PRECONDITION)
        assert capsys.readouterr().err == (
            "precondition failed: generator set must be non-empty\n")

    THM22 = "color --method thm22 --n 18 --k 4"
    THM34 = "color --method thm34 --n 18 --gens 1,2,4,6,7,8 --s1-gens 1,2,4,6"

    # a builder verifies its candidate and refuses it (exit 3), with
    # nothing on stdout, when the tiling is corrupted (flags None) or the
    # NSD step leaves the base coloring as it is and reports these flags
    @pytest.mark.parametrize("argv,flags,message", [
        ("color --method thm21-even --n 18 --k 4 --i 5", None,
         "construction rejected: 2 violations, first (0, 1, 2)"),
        (THM22, (True, True), "recoloring failed the NSD check"),
        (THM22, (False, True), "matchings not rainbow under the base "
         "coloring and the recoloring is not sum-distinguishing"),
        (THM34, (True, True), "recoloring failed the NSD check"),
        (THM34, (True, False), "matchings not rainbow under the base "
         "coloring and the recoloring is not sum-distinguishing"),
    ], ids=["thm21-even", "thm22-nsd", "thm22-rainbow", "thm34-nsd",
            "thm34-rainbow"])
    def test_builder_rejects_its_candidate(self, argv, flags, message,
                                           monkeypatch, capsys):
        if flags is None:
            real = constructions._tiling

            def clash(*args):  # vertex 0 takes vertex 1's colour
                tc = real(*args)
                return TotalColoring(
                    tc.vertex_colors[1:2] + tc.vertex_colors[1:], tc.columns)

            monkeypatch.setattr(constructions, "_tiling", clash)
        else:
            monkeypatch.setattr(constructions, "_recolor_unit_cycle",
                                lambda tc, d, a: (tc, flags))
        assert exit_code(argv.split()) == EXIT_VERIFICATION
        assert capsys.readouterr() == (
            "", "verification failed: %s\n" % message)

    def test_reproduce_mismatch(self, monkeypatch, capsys):
        # a forged cell fails its table, and the tables after it still run
        real = golden.load_table

        def forged(tid):
            matrix, wildcards = real(tid)
            if tid == 2:
                matrix = [row[:] for row in matrix]
                matrix[0][1] = 99
            return matrix, wildcards

        monkeypatch.setattr(golden, "load_table", forged)
        assert exit_code(["reproduce"]) == EXIT_FAIL
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert [line.split()[2] for line in lines] == [
            "OK", "MISMATCH:", "OK", "OK", "OK", "OK"]
        assert lines[1].startswith(
            "table 2: MISMATCH: table 2: 1 cells differ, first "
            "CellMismatch(row=0, col=1, expected=99, actual=")
        assert err == ""

    @pytest.mark.parametrize("cls,code,label", [
        (CirculantColoringError, 1, "error"),
        (PreconditionFailed, 2, "precondition failed"),
        (VerificationFailed, 3, "verification failed"),
        (SearchBudgetExceeded, 4, "search budget exceeded"),
        (MismatchFound, 1, "error"),
    ])
    def test_class_carries_code_and_label(self, cls, code, label,
                                          monkeypatch, capsys):
        # main's one handler prints the class's label and returns its code
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_build", fail)
        assert main(["build", "--n", "5", "--gens", "1"]) == cls.exit_code
        assert (cls.exit_code, cls.label) == (code, label)
        assert capsys.readouterr() == ("", "%s: boom\n" % label)

    def test_other_toolkit_error(self, monkeypatch, capsys):
        def missing(tid):
            raise CirculantColoringError("no fixture for table %d" % tid)

        monkeypatch.setattr(golden, "reproduce_table", missing)
        assert exit_code(["reproduce", "--table", "3"]) == EXIT_FAIL
        assert capsys.readouterr() == ("", "error: no fixture for table 3\n")

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_canonical_below_three(self, n, capsys):
        # the smallest order accepted is 3, and every smaller one says so
        assert exit_code(["color", "--method", "canonical",
                          "--n", str(n)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition failed: need n >= 3, got %d\n" % n)

    def test_missing_option_named(self, capsys):
        main(["color", "--method", "thm33", "--n", "24", "--gens", "1"])
        assert "thm33 requires --m-gens" in capsys.readouterr().err

    # One option per method and per quantity that it does not read.  The
    # two feasibility quantities read every option of ``oracle``.
    FOREIGN = [
        ("color --method thm21-even --n 18 --k 4 --i 5 --gens 3", "--gens"),
        ("color --method thm21-odd --n 21 --k 6 --i 1 --gens 3", "--gens"),
        ("color --method thm22 --n 18 --k 4 --i 1", "--i"),
        ("color --method thm31 --n 20 --gens 1,2 --m-gens 1", "--m-gens"),
        ("color --method thm32 --n 24 --gens 1,2 --s1-gens 1", "--s1-gens"),
        ("color --method thm33 --n 24 --gens 1 --m-gens 2 --k 3", "--k"),
        ("color --method thm34 --n 18 --gens 1,2 --s1-gens 1 --i 1", "--i"),
        ("color --method canonical --n 8 --k 2", "--k"),
        ("oracle --quantity total-chromatic --n 7 --gens 1,2 --k 5", "--k"),
        ("oracle --quantity chromatic-index --n 7 --gens 1,2 --k 5", "--k"),
        # thm31 builds its own inner subset, even one equal to the default
        ("color --method thm31 --n 20 --gens 1,2,3,4,5,7,8 "
         "--s1-gens 1,2,3,4,5", "--s1-gens"),
    ]

    # a case is named by its method or quantity, the second of thm31 by
    # its flag too
    @pytest.mark.parametrize("argv,flag", FOREIGN, ids=[
        a.split()[2] for a, _ in FOREIGN[:-1]] + ["thm31-s1-gens"])
    def test_foreign_option_refused(self, argv, flag, capsys):
        assert exit_code(argv.split()) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        name = argv.split()[2]
        assert out == ""
        assert err == "precondition failed: %s does not take %s\n" % (
            name, flag)

    def test_foreign_option_cases_cover_every_method(self):
        names = {a.split()[2] for a, _ in self.FOREIGN}
        assert set(COLOR_METHODS) <= names
        assert names - set(COLOR_METHODS) == set(ORACLE_QUANTITIES) - {
            "equitable-feasible", "nsd-feasible"}

    def test_nsd_of_improper_coloring(self, tmp_path, capsys):
        tc = color_power_cycle_even(18, 4, 5).coloring
        e = next(tc.edge_items())[0]
        path = tmp_path / "bad.csv"
        write_matrix_csv(tc.with_edge_colors({e: tc.vertex_colors[e[0]]}), path)
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", str(path), "--nsd"]) == EXIT_VERIFICATION
        assert "only defined for proper" in capsys.readouterr().err

    def test_missing_edge_color(self, tmp_path, capsys):
        tc = color_power_cycle_even(18, 4, 5).coloring
        edges = dict(tc.edge_items())
        del edges[min(edges)]
        path = tmp_path / "partial.json"
        write_coloring_json(
            TotalColoring.from_pairs(tc.vertex_colors, edges), path)
        assert main(["verify", "--n", "18", "--gens", "1,2,3,4",
                     "--in", str(path)]) == EXIT_VERIFICATION
        assert "uncolored edges" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_non_edge_color(self, suffix, tmp_path, capsys):
        # a proper total coloring of C_5 plus the chord (0, 2)
        tc = TotalColoring.from_pairs((1, 2, 3, 1, 3), {
            (0, 1): 3, (0, 4): 2, (1, 2): 1, (2, 3): 2, (3, 4): 4})
        argv = ["verify", "--n", "5", "--gens", "1", "--in"]
        path = tmp_path / ("extra" + suffix)
        (write_coloring_json if suffix == ".json" else write_matrix_csv)(
            tc.with_edge_colors({(0, 2): 9}), path)
        assert main(argv + [str(path)]) == EXIT_VERIFICATION
        assert capsys.readouterr().err == (
            "verification failed: non-edge (0, 2) has a color\n")
        if suffix == ".json":  # with "n": 6 it is malformed first (exit 2)
            path.write_text(path.read_text().replace('"n": 5', '"n": 6'))
            assert main(argv + [str(path)]) == EXIT_PRECONDITION
        write_coloring_json(tc, tmp_path / "ok.json")
        assert main(argv + [str(tmp_path / "ok.json")]) == EXIT_OK

    def test_oracle_honours_budget(self, capsys):
        # C_10^3 has 40 elements, so 20 nodes cannot color it
        assert main(["--budget", "20", "oracle", "--quantity",
                     "total-chromatic", "--n", "10",
                     "--gens", "1,2,3"]) == EXIT_BUDGET
        assert "exceeded 20 nodes" in capsys.readouterr().err

    def test_budget_error_names_the_budget_set(self, capsys):
        # Delta colors take 79 of the 200 nodes; the Delta + 1 search then
        # runs out, and the message names 200, not the 121 left
        assert main(["--budget", "200", "oracle", "--quantity",
                     "chromatic-index", "--n", "9",
                     "--gens", "1,2,3,4"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "oracle search exceeded 200 nodes" in err
        assert "121" not in err

    def test_budget_help_reads_the_defaults(self, monkeypatch):
        # --help spells out the two library defaults, read where they live
        monkeypatch.setattr(factorization, "DEFAULT_SEARCH_BUDGET", 1234567)
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 7654321)
        text = " ".join(cli.make_parser().format_help().split())
        assert ("(default: 1,234,567 per builder search, 7,654,321 for the "
                "oracle)") in text

    def test_zero_budget_is_valid(self, capsys):
        # thm21-even n=12 k=2 i=1 needs no search; C_6 does
        assert main(["--budget", "0", "color", "--method", "thm21-even",
                     "--n", "12", "--k", "2", "--i", "1"]) == EXIT_OK
        assert main(["--budget", "0", "oracle", "--quantity",
                     "total-chromatic", "--n", "6",
                     "--gens", "1"]) == EXIT_BUDGET
        assert "exceeded 0 nodes" in capsys.readouterr().err

    def test_budget_does_not_leak(self, capsys):
        # a small budget in one call must not reach the next one
        assert main(["--budget", "10", "color", "--method", "thm21-even",
                     "--n", "22", "--k", "10", "--i", "1"]) == EXIT_BUDGET
        assert main(["color", "--method", "thm21-even", "--n", "22",
                     "--k", "10", "--i", "1"]) == EXIT_OK

    @pytest.mark.parametrize("flags,forwarded", [
        ([], {}), (["--budget", "0"], {"budget": 0})])
    def test_budget_forwarded_only_when_given(self, flags, forwarded,
                                              monkeypatch, capsys):
        # without --budget the CLI passes no budget, so each library
        # function's own default applies
        seen = []
        for name in ("color_thm33", "exact_total_chromatic"):
            def record(*args, real=getattr(cli, name), **kwargs):
                seen.append(kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        main(flags + ["color", "--method", "thm33", "--n", "24", "--gens",
                      "1,3,4,5,7,10,11", "--m-gens", "1,3,4,5,10"])
        main(flags + ["oracle", "--quantity", "total-chromatic", "--n", "6",
                      "--gens", "1"])
        assert seen == [forwarded, forwarded]

    def test_pooled_search_within_budget(self, capsys):
        # the pooled 1-factorization (252 edges, 12 colours) needs 13,566
        # nodes, the most of any pooled search a test runs; its colouring
        # is test_pinned_outputs' thm21-even-pooled
        argv = ["color", "--method", "thm21-even", "--n", "42", "--k", "20",
                "--i", "1", "--format", "json"]
        assert main(["--budget", "13566"] + argv) == EXIT_OK
        capsys.readouterr()
        assert main(["--budget", "13565"] + argv) == EXIT_BUDGET
        assert "exceeded 13565 nodes" in capsys.readouterr().err

    def test_report_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "d.report.json").mkdir()
        assert main(["color", "--method", "thm21-even", "--n", "18",
                     "--k", "4", "--i", "5", "--out",
                     str(tmp_path / "d")]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "precondition failed" in err and "d.report.json" in err

    def test_entry_point_prints_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_coloring.cli", "color",
             "--method", "thm21-even", "--n", "18"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_PRECONDITION
        assert "Traceback" not in proc.stderr

    def test_survey_beyond_the_oracle_limit(self):
        # n = 13 is past the oracle's size limit: rejected before any row
        script = Path(__file__).resolve().parent.parent / "scripts" / \
            "small_instance_survey.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--max-n", "13"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "at most 12" in proc.stderr

    @pytest.mark.parametrize("script", ["rebuild_published_examples.py",
                                        "small_instance_survey.py"])
    def test_script_default_run(self, script):
        # every fixture rebuilt and verified; every C_n^k with n <= 12
        # decided
        path = Path(__file__).resolve().parent.parent / "scripts" / script
        proc = subprocess.run([sys.executable, str(path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_no_runtime_dependency_imported(self):
        # in a fresh interpreter, so that pytest's own imports do not count
        script = (
            "import importlib, pkgutil, sys\n"
            "import circulant_coloring\n"
            "for mod in pkgutil.iter_modules(circulant_coloring.__path__):\n"
            "    importlib.import_module('circulant_coloring.' + mod.name)\n"
            "print(sorted({'numpy', 'networkx', 'pytest', 'hypothesis'}\n"
            "             & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, "[]\n"), \
            proc.stderr

    @pytest.mark.parametrize("argv,lines", [
        # like ``| head -1``: the 1050 x 1050 matrix is far larger than
        # the pipe buffer, so the writer is still writing when it closes
        (["color", "--method", "thm22", "--n", "1050", "--k", "10",
          "--format", "csv"], 1),
        # one short line, still in the buffer when the command returns
        (["oracle", "--quantity", "total-chromatic", "--n", "5",
          "--gens", "1"], 0)])
    def test_stdout_closed_early(self, argv, lines):
        proc = subprocess.Popen(
            [sys.executable, "-m", "circulant_coloring.cli"] + argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_FAIL
        assert err == ""

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["build", "--n", "5", "--gens", "1"],
        # far larger than the stdout buffer: the writer fails mid-run
        ["color", "--method", "canonical", "--n", "301"]])
    def test_stdout_write_fails(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "circulant_coloring.cli"] + argv,
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == EXIT_FAIL
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    def test_unreadable_fixture_keeps_earlier_output(self):
        # an OSError off stdout: the lines already buffered still print
        script = (
            "import sys; from circulant_coloring import cli, golden\n"
            "load = golden.load_table\n"
            "def failing(tid):\n"
            "    if tid == 2: raise PermissionError(13, 'Permission denied')\n"
            "    return load(tid)\n"
            "golden.load_table = failing\n"
            "sys.exit(cli.main(sys.argv[1:]))")
        # stdout block-buffered, as it is by default on a pipe
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", script, "reproduce", "--table", "all"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == EXIT_FAIL
        assert proc.stdout.startswith("table 1: OK (")
        assert proc.stdout.count("\n") == 1
        assert proc.stderr == "error: [Errno 13] Permission denied\n"

    # sha256 of the JSON stdout printed by the recursive edge-coloring
    # search this kernel replaced, run under a raised recursion limit
    @pytest.mark.parametrize("n,digest", [
        (330, "4c7d6972bb420819f6a697b2b1a6f6c0"
              "af1c20b202dbb1b96efa0b5b4255812c"),
        (1100, "8ecd38c991af0b1239366ec2417cfa83"
               "d90a0d42a68ed3494b6fcf8e9d15df3e")])
    def test_pooled_search_without_recursion(self, n, digest, capsys):
        # the pooled residual has 1,320 (n=330) and 1,100 (n=1100) edges
        # in one component, more than Python's default recursion depth
        assert main(["color", "--method", "thm21-even", "--n", str(n),
                     "--k", "10", "--i", "1", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        tc = coloring_from_json_dict(json.loads(out))
        report = verify_total_coloring(power_of_cycle(n, 10), tc)
        assert report.proper and report.colors_used <= 21

    def test_pooled_search_under_low_recursion_limit(self):
        script = ("import sys; sys.setrecursionlimit(200); "
                  "from circulant_coloring.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "color", "--method", "thm21-even",
             "--n", "1100", "--k", "10", "--i", "1", "--format", "json"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["report"]["colors_used"] == 21


class TestMemory:
    """``color`` in a child that lowers its own address-space limit (MiB,
    its first argument) once the package is imported."""

    SCRIPT = ("import resource, sys\n"
              "from circulant_coloring.cli import main\n"
              "limit = int(sys.argv.pop(1)) << 20\n"
              "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
              "sys.exit(main(sys.argv[1:]))")

    @staticmethod
    def run(limit_mib, n):
        """(exit code, sha256 of stdout, stderr) of thm21-even (n, 10, 11)
        as JSON; stdout is hashed as it arrives, never held."""
        pytest.importorskip("resource")
        proc = subprocess.Popen(
            [sys.executable, "-c", TestMemory.SCRIPT, str(limit_mib),
             "color", "--method", "thm21-even", "--n", str(n), "--k", "10",
             "--i", "11", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        digest = hashlib.sha256()
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
        err = proc.stderr.read().decode()
        proc.stdout.close()
        proc.stderr.close()
        return proc.wait(timeout=60), digest.hexdigest(), err

    def test_out_of_memory_is_an_exit_code(self):
        # the columns of n = 21,000,000 alone take 1.7 GB
        code, _, err = self.run(128, 21_000_000)
        assert code == EXIT_FAIL
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("out of memory")

    def test_json_writer_streams(self):
        # 107 MB of JSON from 17 MB of columns, well inside 192 MiB
        code, digest, err = self.run(192, 210_000)
        assert (code, err) == (EXIT_OK, "")
        assert digest == ("5eb46ec0186f49a3d7d4e452a930eea3"
                          "b8c1c63bc9dfab85f0af651ca4bd0aa1")


class TestMalformedInput:
    @staticmethod
    def read(command, path, *flags, n="3", fmt="csv"):
        """main's code for verify of path as C_n with flags, or for export
        of it to out.<fmt> beside it."""
        if command == "export":
            return main(["export", "--in", str(path), "--format", fmt,
                         "--out", str(path.with_name("out." + fmt))])
        return main(["verify", "--n", n, "--gens", "1", "--in", str(path),
                     *flags])

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_json_nested_past_the_recursion_limit(self, command, tmp_path,
                                                   capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert self.read(command, path, n="5") == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith(
            "precondition failed: malformed coloring file %s: RecursionError: "
            % path)

    def test_json_self_loop_edge(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                                    "edges": [{"u": 1, "v": 1, "c": 2}]}))
        assert self.read("verify", path) == EXIT_PRECONDITION
        assert "self-loop" in capsys.readouterr().err

    def test_json_reversed_edge(self, tmp_path, capsys):
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                                    "edges": [{"u": 2, "v": 1, "c": 3}]}))
        assert self.read("export", path) == EXIT_PRECONDITION
        assert "u < v" in capsys.readouterr().err

    # an object or a string iterates as an array of no edges or colours
    @pytest.mark.parametrize("key,value", [
        ("edges", {}), ("edges", ""), ("vertex_colors", {}),
        ("vertex_colors", "")])
    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_json_member_not_an_array(self, command, key, value, tmp_path,
                                      capsys):
        doc = {"n": 3, "vertex_colors": [1, 2, 3], "edges": []}
        doc[key] = value
        path = tmp_path / "members.json"
        path.write_text(json.dumps(doc))
        assert self.read(command, path) == EXIT_PRECONDITION
        assert capsys.readouterr() == ("", (
            "precondition failed: malformed coloring file %s: TypeError: "
            '"%s" must be an array, not %s\n'
            % (path, key, type(value).__name__)))
        assert not (tmp_path / "out.csv").exists()

    def test_json_without_vertex_colors(self, tmp_path, capsys):
        path = tmp_path / "no_vertices.json"
        path.write_text(json.dumps({"n": 3, "edges": []}))
        assert self.read("verify", path) == EXIT_PRECONDITION
        assert "KeyError: 'vertex_colors'" in capsys.readouterr().err

    @pytest.mark.parametrize("where,value", [
        ("vertex", "x"), ("edge", "x"), ("vertex", True), ("edge", False),
        ("edge", 2.0), ("edge", None)])
    def test_json_non_integer_color(self, where, value, tmp_path, capsys):
        doc = {"n": 3, "vertex_colors": [1, 2, 3],
               "edges": [{"u": 0, "v": 1, "c": 3}]}
        if where == "vertex":
            doc["vertex_colors"][1] = value
        else:
            doc["edges"][0]["c"] = value
        path = tmp_path / "text_color.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--n", "3", "--gens", "1", "--in", str(path),
                     "--nsd"]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "must be integers" in err

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_json_endpoint_out_of_range(self, command, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                                    "edges": [{"u": 1, "v": 7, "c": 3}]}))
        assert self.read(command, path, "--nsd") == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "endpoint 7 outside 0..2" in err

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_json_edge_listed_twice(self, command, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(
            {"n": 3, "vertex_colors": [1, 2, 3],
             "edges": [{"u": 0, "v": 1, "c": 3}, {"u": 0, "v": 1, "c": 9},
                       {"u": 0, "v": 2, "c": 2}, {"u": 1, "v": 2, "c": 1}]}))
        assert self.read(command, path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "edge (0, 1) listed twice" in err

    @pytest.mark.parametrize("n", [7, 2, "3", 3.0, True, None])
    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_json_wrong_n(self, command, n, tmp_path, capsys):
        # a proper coloring of C_3 whose "n" is not 3
        path = tmp_path / "wrong_n.json"
        path.write_text(json.dumps(
            {"n": n, "vertex_colors": [1, 2, 3],
             "edges": [{"u": 0, "v": 1, "c": 3}, {"u": 0, "v": 2, "c": 2},
                       {"u": 1, "v": 2, "c": 1}]}))
        assert self.read(command, path, fmt="json") == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert '"n" is %r, but vertex_colors holds 3' % (n,) in err
        assert not (tmp_path / "out.json").exists()

    def test_csv_asymmetric(self, tmp_path, capsys):
        path = tmp_path / "asymmetric.csv"
        path.write_text(",0,1,2\n0,1,3,2\n1,9,2,1\n2,2,1,3\n")
        assert self.read("verify", path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "cell (0, 1) = 3 differs from cell (1, 0) = 9" in err

    def test_json_edge_colors_below_one(self, tmp_path, capsys):
        path = tmp_path / "nonpositive.json"
        path.write_text(json.dumps(
            {"n": 3, "vertex_colors": [1, 2, 3],
             "edges": [{"u": 0, "v": 1, "c": 0}, {"u": 0, "v": 2, "c": -1},
                       {"u": 1, "v": 2, "c": -2}]}))
        assert self.read("verify", path) == EXIT_VERIFICATION
        assert "edge (0, 1) has no valid color" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (",0,1,2\n0,1,3,2,7\n1,3,2,1\n2,2,1,3\n",
         "row 0 has a cell past column 2"),
        (",5,6,7\n9,1,3,2\n8,3,2,1\n7,2,1,3\n", "header row"),
        (",0,1,2\n9,1,3,2\n1,3,2,1\n2,2,1,3\n",
         "row labels are not 0,1,...,n-1"),
    ])
    def test_csv_frame(self, text, message, tmp_path, capsys):
        path = tmp_path / "frame.csv"
        path.write_text(text)
        assert self.read("verify", path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert message in err

    def test_csv_text_cell(self, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text(",0,1,2\n0,1,x,3\n1,x,2,1\n2,3,1,3\n")
        assert self.read("verify", path) == EXIT_PRECONDITION
        assert "invalid literal for int()" in capsys.readouterr().err

    def test_reproduce_table_not_a_number(self, capsys):
        assert exit_code(["reproduce", "--table", "x"]) == EXIT_PRECONDITION
        assert "invalid choice" in capsys.readouterr().err

    def test_reproduce_table_out_of_range(self, capsys):
        assert exit_code(["reproduce", "--table", "7"]) == EXIT_PRECONDITION
        assert "invalid choice" in capsys.readouterr().err


class TestFileEncoding:
    """Coloring files are read as UTF-8; a leading byte-order mark, as
    spreadsheet tools write it, is allowed."""

    CSV = ",0,1,2\n0,1,3,2\n1,3,2,1\n2,2,1,3\n"
    JSON = json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                       "edges": [{"u": 0, "v": 1, "c": 3},
                                 {"u": 0, "v": 2, "c": 2},
                                 {"u": 1, "v": 2, "c": 1}]})

    def verify(self, path):
        return main(["verify", "--n", "3", "--gens", "1", "--in", str(path),
                     "--equitable"])

    @pytest.mark.parametrize("name", ["c.csv", "c.json"])
    def test_byte_order_mark(self, name, tmp_path, capsys):
        text = self.CSV if name.endswith(".csv") else self.JSON
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert self.verify(path) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["proper"]
        out = tmp_path / "out.csv"
        assert main(["export", "--in", str(path), "--format", "csv",
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == self.CSV

    @pytest.mark.parametrize("name", ["c.csv", "c.json"])
    def test_not_utf8(self, name, tmp_path, capsys):
        text = self.CSV if name.endswith(".csv") else self.JSON
        path = tmp_path / name
        path.write_bytes(text.encode().replace(b"3", b"\xff", 1))
        assert self.verify(path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "UnicodeDecodeError" in err


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    equitable, nsd = equitable_nsd_power_cycle(18, 4)
    write_matrix_csv(equitable.coloring, work / "equitable.csv")
    write_coloring_json(nsd.coloring, work / "nsd.json")
    tc = equitable.coloring
    e = next(tc.edge_items())[0]
    write_matrix_csv(tc.with_edge_colors({e: tc.vertex_colors[e[0]]}),
                     work / "improper.csv")
    edges = dict(tc.edge_items())
    del edges[e]
    write_coloring_json(TotalColoring.from_pairs(tc.vertex_colors, edges),
                        work / "partial.json")
    (work / "loop.json").write_text(json.dumps(
        {"n": 3, "vertex_colors": [1, 2, 3],
         "edges": [{"u": 1, "v": 1, "c": 2}]}))
    (work / "no_vertices.json").write_text('{"n": 3, "edges": []}')
    (work / "text_color.json").write_text(json.dumps(
        {"n": 3, "vertex_colors": [1, 2, 3],
         "edges": [{"u": 0, "v": 1, "c": "x"}]}))
    (work / "far.json").write_text(json.dumps(
        {"n": 3, "vertex_colors": [1, 2, 3],
         "edges": [{"u": 1, "v": 7, "c": 3}]}))
    (work / "twice.json").write_text(json.dumps(
        {"n": 3, "vertex_colors": [1, 2, 3],
         "edges": [{"u": 0, "v": 1, "c": 3}, {"u": 0, "v": 1, "c": 9}]}))
    (work / "text.csv").write_text(",0,1\n0,1,x\n1,x,2\n")
    (work / "asymmetric.csv").write_text(",0,1\n0,1,3\n1,9,2\n")
    (work / "wildcard.csv").write_text(",0,1\n0,1,*\n1,*,2\n")
    (work / "broken.json").write_text('{"n": ')
    return work


# Input files the fuzz test names as "@<file>": colorings of C_18^4, good
# and bad, malformed files, and one that does not exist.
FUZZ_FILES = ("equitable.csv", "nsd.json", "improper.csv", "partial.json",
              "loop.json", "no_vertices.json", "text_color.json", "far.json",
              "twice.json", "text.csv", "asymmetric.csv", "wildcard.csv",
              "broken.json", "absent.json")

_gens_text = st.one_of(
    st.lists(st.integers(0, 45), max_size=8).map(
        lambda ds: ",".join(map(str, ds))),
    st.integers(1, 19).map(lambda k: ",".join(map(str, range(1, k + 1)))),
    st.just("1,x"))
_small = st.integers(-1, 12)


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def cli_argv(draw):
    argv = ["--budget", str(draw(st.integers(0, 2000)))]
    command = draw(st.sampled_from(
        ["build", "color", "verify", "oracle", "export", "reproduce"]))
    n = str(draw(st.integers(3, 40)))
    if command == "build":
        argv += ["build", "--n", n, "--gens", draw(_gens_text)]
    elif command == "color":
        method = draw(st.sampled_from(list(COLOR_METHODS)))
        requires, _ = COLOR_METHODS[method]
        argv += ["color", "--method", method,
                 "--n", n, "--format", draw(st.sampled_from(["csv", "json"]))]
        # an option the method does not read is refused (exit 2), so it
        # comes in one example of ten, to leave the builders most of them
        for opt, values in (("k", _small), ("i", _small), ("gens", _gens_text),
                            ("s1_gens", _gens_text), ("m_gens", _gens_text)):
            if opt in requires or not draw(st.integers(0, 9)):
                argv += draw(_option("--" + opt.replace("_", "-"), values))
    elif command == "verify":
        n, gens = draw(st.one_of(st.just(("18", "1,2,3,4")),
                                 st.tuples(st.just(n), _gens_text)))
        argv += ["verify", "--n", n, "--gens", gens,
                 "--in", "@" + draw(st.sampled_from(FUZZ_FILES))]
        argv += draw(st.sampled_from([[], ["--equitable"], ["--nsd"]]))
    elif command == "oracle":
        argv += ["oracle", "--quantity",
                 draw(st.sampled_from(list(ORACLE_QUANTITIES))),
                 "--n", n, "--gens", draw(_gens_text)]
        argv += draw(_option("--k", _small))
    elif command == "export":
        fmt = draw(st.sampled_from(["csv", "json"]))
        argv += ["export", "--in", "@" + draw(st.sampled_from(FUZZ_FILES)),
                 "--format", fmt, "--out", "@out." + fmt]
    else:
        argv += ["reproduce", "--table", draw(st.sampled_from(
            ["all", "1", "2", "3", "4", "5", "6", "0", "7", "x"]))]
    return argv


class TestFuzz:
    """Every subcommand, method and quantity, with n <= 40 and a budget of
    at most 2000 nodes, so that each example is short."""

    @given(argv=cli_argv())
    @settings(max_examples=120, deadline=None)
    def test_exit_code_without_traceback(self, fuzz_files, argv):
        argv = [str(fuzz_files / a[1:]) if a.startswith("@") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = exit_code(argv)
        assert code in {0, 1, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
