import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from circulant_coloring.graphs import power_of_cycle
from circulant_coloring.verifiers import verify_total_coloring


class TestBuild:
    def test_normalizes_and_prints(self, capsys):
        assert main(["build", "--n", "24",
                     "--gens", "1,3,4,5,10,14"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out == {"generators": [1, 3, 4, 5, 10], "n": 24}

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

    def test_precondition_exit(self, capsys):
        assert main(["color", "--method", "thm21-even",
                     "--n", "9", "--k", "1", "--i", "2"]) == EXIT_PRECONDITION
        assert "precondition" in capsys.readouterr().err

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

    def test_missing_option_named(self, capsys):
        main(["color", "--method", "thm33", "--n", "24", "--gens", "1"])
        assert "thm33 requires --m-gens" in capsys.readouterr().err

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
        assert "non-edge (0, 2) has a color" in capsys.readouterr().err
        write_coloring_json(tc, tmp_path / "ok.json")
        assert main(argv + [str(tmp_path / "ok.json")]) == EXIT_OK

    def test_oracle_honours_budget(self, capsys):
        # C_10^3 has 40 elements, so 20 nodes cannot color it
        assert main(["--budget", "20", "oracle", "--quantity",
                     "total-chromatic", "--n", "10",
                     "--gens", "1,2,3"]) == EXIT_BUDGET
        assert "exceeded 20 nodes" in capsys.readouterr().err

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

    def test_pooled_search_within_budget(self, capsys):
        # the pooled 1-factorization needs 13,566 nodes; without the
        # dead-end rule at tight vertices it needed 136,332 and the run
        # exited 4
        assert main(["--budget", "20000", "color", "--method", "thm21-even",
                     "--n", "42", "--k", "20", "--i", "1",
                     "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["colors_used"] == 41

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


class TestMalformedInput:
    def verify(self, path):
        return main(["verify", "--n", "3", "--gens", "1", "--in", str(path)])

    def test_json_self_loop_edge(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                                    "edges": [{"u": 1, "v": 1, "c": 2}]}))
        assert self.verify(path) == EXIT_PRECONDITION
        assert "self-loop" in capsys.readouterr().err

    def test_json_reversed_edge(self, tmp_path, capsys):
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps({"n": 3, "vertex_colors": [1, 2, 3],
                                    "edges": [{"u": 2, "v": 1, "c": 3}]}))
        assert main(["export", "--in", str(path), "--format", "csv",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_PRECONDITION
        assert "u < v" in capsys.readouterr().err

    def test_json_without_vertex_colors(self, tmp_path, capsys):
        path = tmp_path / "no_vertices.json"
        path.write_text(json.dumps({"n": 3, "edges": []}))
        assert self.verify(path) == EXIT_PRECONDITION
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
        if command == "verify":
            argv = ["verify", "--n", "3", "--gens", "1", "--in", str(path),
                    "--nsd"]
        else:
            argv = ["export", "--in", str(path), "--format", "csv",
                    "--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_PRECONDITION
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
        argv = (["verify", "--n", "3", "--gens", "1", "--in", str(path)]
                if command == "verify" else
                ["export", "--in", str(path), "--format", "csv",
                 "--out", str(tmp_path / "out.csv")])
        assert main(argv) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "edge (0, 1) listed twice" in err

    def test_csv_asymmetric(self, tmp_path, capsys):
        path = tmp_path / "asymmetric.csv"
        path.write_text(",0,1,2\n0,1,3,2\n1,9,2,1\n2,2,1,3\n")
        assert self.verify(path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert "cell (0, 1) = 3 differs from cell (1, 0) = 9" in err

    def test_json_edge_colors_below_one(self, tmp_path, capsys):
        path = tmp_path / "nonpositive.json"
        path.write_text(json.dumps(
            {"n": 3, "vertex_colors": [1, 2, 3],
             "edges": [{"u": 0, "v": 1, "c": 0}, {"u": 0, "v": 2, "c": -1},
                       {"u": 1, "v": 2, "c": -2}]}))
        assert self.verify(path) == EXIT_VERIFICATION
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
        assert self.verify(path) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "malformed coloring file" in err
        assert message in err

    def test_csv_text_cell(self, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text(",0,1,2\n0,1,x,3\n1,x,2,1\n2,3,1,3\n")
        assert self.verify(path) == EXIT_PRECONDITION
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
        argv += ["color", "--method", draw(st.sampled_from(list(COLOR_METHODS))),
                 "--n", n, "--format", draw(st.sampled_from(["csv", "json"]))]
        for flag in ("--k", "--i"):
            argv += draw(_option(flag, _small))
        for flag in ("--gens", "--s1-gens", "--m-gens"):
            argv += draw(_option(flag, _gens_text))
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
