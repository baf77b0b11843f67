"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcbc
from rcbc import parse_graph, parse_matrix, verify, weight, girth, graph_from_code
from rcbc import CodeParams
from rcbc.cli import main
from helpers import MANY_FILES_TEXT, TALL_TEXT, MAX_BATCH_TEXT, TALL_PARAMS


# Files on servers {1}, {1, 2} and {2}; not a code for (3, 2, 3, 1).
FAILING_TEXT = "3 3\n110\n011\n000\n"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


def matrix_part(text: str) -> str:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return "\n".join(lines) + "\n"


class TestConstruct:
    def test_reference_matrix(self, capsys):
        code, out, err = run(capsys, "construct", "--params", "4,3,6,3")
        assert code == 0, err
        assert "# regime: circulant" in out
        assert "# weight: 16" in out
        assert matrix_part(out) == TALL_TEXT

    def test_packed_params(self, capsys):
        code, out, _ = run(capsys, "construct", "--params", "7,3,6,3")
        assert code == 0
        assert "# regime: max-k" in out
        assert "# weight: 30" in out
        assert matrix_part(out) == MAX_BATCH_TEXT

    def test_large_n_regime(self, capsys):
        code, out, _ = run(capsys, "construct", "--params", "8,2,4,1")
        assert code == 0
        assert "# regime: large-n" in out
        built = parse_matrix(matrix_part(out))
        assert weight(built) == 18
        assert verify(built, CodeParams(8, 2, 4, 1)).ok

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "code.txt"
        code, out, _ = run(
            capsys, "construct", "--params", "4,3,6,3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert matrix_part(target.read_text()) == TALL_TEXT

    def test_deterministic_output(self, capsys):
        a = run(capsys, "construct", "--params", "10,3,5,0")
        b = run(capsys, "construct", "--params", "10,3,5,0")
        assert a == b
        assert a[0] == 0

    def test_uncovered_regime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--params", "7,3,5,1")
        assert code == 2
        assert "no construction regime covers" in err

    def test_budget_limited_exit(self, capsys):
        code, _, err = run(
            capsys, "construct", "--params", "42,4,8,1", "--node-limit", "5"
        )
        assert code == 3
        assert "within the search budget" in err

    def test_closed_form_base_is_not_budget_limited(self, capsys):
        # The (3, 8, 1) base is Mantel's closed form, exact under any
        # budget, and it does not reach n = 30: uncovered, not cut short.
        code, _, err = run(
            capsys, "construct", "--params", "30,3,8,1", "--node-limit", "5"
        )
        assert code == 2
        assert "no construction regime covers" in err
        assert "within the search budget" not in err

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "construct", "--params", "4,4,6,3")
        assert code == 2
        assert "m-r" in err

    def test_tuple_only_as_params(self, capsys):
        # --n/--k/--m/--r are ranges of `table` only.
        code, out, _ = run(
            capsys, "construct", "--n", "4", "--k", "3", "--m", "6", "--r", "3"
        )
        assert (code, out) == (2, "")

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "construct", "--node-limit", "5")
        assert code == 2
        assert "required: --params" in err

    def test_malformed_params(self, capsys):
        code, _, err = run(capsys, "construct", "--params", "4,3,6")
        assert code == 2
        assert "four comma-separated integers" in err
        code, _, err = run(capsys, "construct", "--params", "a,b,c,d")
        assert code == 2


class TestVerify:
    def test_ok(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        code, out, _ = run(capsys, "verify", "--params", "4,3,6,3", str(path))
        assert code == 0
        assert out.startswith("ok (")

    def test_each_strategy_named(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        for strategy in ("definitional", "column-union", "row-containment"):
            code, out, _ = run(
                capsys,
                "verify",
                "--params",
                "4,3,6,3",
                "--strategy",
                strategy,
                str(path),
            )
            assert code == 0
            assert out == f"ok ({strategy})\n"

    def test_strategy_all_cross_checks(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(MANY_FILES_TEXT)
        code, out, _ = run(
            capsys, "verify", "--params", "8,2,4,1", "--strategy", "all", str(path)
        )
        assert code == 0
        assert out == "ok (all strategies agree)\n"

    def test_failure_exit_and_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n11\n00\n00\n")
        code, out, err = run(capsys, "verify", "--params", "2,2,3,1", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("fail (")
        assert "columns [1]" in err

    def test_row_containment_witness_message(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(FAILING_TEXT)
        code, out, err = run(
            capsys,
            "verify",
            "--params",
            "3,2,3,1",
            "--strategy",
            "row-containment",
            str(path),
        )
        assert code == 1
        assert out == ""
        assert err == (
            "fail (row-containment): servers [1] fully contain columns [1] "
            "(1 exceeds 1 - r)\n"
        )

    def test_definitional_witness_message(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(FAILING_TEXT)
        code, out, err = run(
            capsys,
            "verify",
            "--params",
            "3,2,3,1",
            "--strategy",
            "definitional",
            str(path),
        )
        assert code == 1
        assert out == ""
        assert err == (
            "fail (definitional): demand [1, 2] with servers [1, 3] available: "
            "files [1, 2] reach fewer than 2 servers\n"
        )

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TALL_TEXT))
        code, out, _ = run(capsys, "verify", "--params", "4,3,6,3", "-")
        assert code == 0
        assert out.startswith("ok")

    def test_malformed_matrix_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n10\n1x\n")
        code, _, err = run(capsys, "verify", "--params", "2,2,2,0", str(path))
        assert code == 2
        assert "line 3, column 2" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--params", "4,3,6,3", str(tmp_path / "nope.txt")
        )
        assert code == 2
        assert "error:" in err


class TestRetrieve:
    def test_reference_plan(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        code, out, _ = run(
            capsys,
            "retrieve",
            "--params",
            "4,3,6,3",
            "--demand",
            "1,4",
            "--down",
            "1,2,3",
            str(path),
        )
        assert code == 0
        assert out == "1->4 4->5\n"

    def test_no_outage(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        code, out, _ = run(
            capsys, "retrieve", "--params", "4,3,6,3", "--demand", "1,2,3", str(path)
        )
        assert code == 0
        assert out == "1->1 2->2 3->3\n"

    def test_infeasible(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n11\n00\n00\n")
        code, out, err = run(
            capsys,
            "retrieve",
            "--params",
            "2,2,3,1",
            "--demand",
            "1,2",
            "--down",
            "3",
            str(path),
        )
        assert code == 1
        assert out == ""
        assert "infeasible" in err
        assert "files [1, 2]" in err

    def test_infeasible_message(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(FAILING_TEXT)
        code, out, err = run(
            capsys,
            "retrieve",
            "--params",
            "3,2,3,1",
            "--demand",
            "1,3",
            "--down",
            "2",
            str(path),
        )
        assert code == 1
        assert out == ""
        assert err == (
            "infeasible: files [3] reach fewer than 1 of the available servers\n"
        )

    def test_bad_demand_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        code, _, err = run(
            capsys, "retrieve", "--params", "4,3,6,3", "--demand", "9", str(path)
        )
        assert code == 2
        code, _, err = run(
            capsys, "retrieve", "--params", "4,3,6,3", "--demand", "1;2", str(path)
        )
        assert code == 2

    def test_too_many_down_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        code, _, err = run(
            capsys,
            "retrieve",
            "--params",
            "4,3,6,3",
            "--demand",
            "1",
            "--down",
            "1,2,3,4",
            str(path),
        )
        assert code == 2
        assert "need at least" in err

    def test_down_outside_servers_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        for down, named in [("7,8,9", "[7, 8, 9]"), ("0,-1", "[-1, 0]")]:
            code, out, err = run(
                capsys,
                "retrieve",
                "--params",
                "4,3,6,3",
                "--demand",
                "1,4",
                "--down",
                down,
                str(path),
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:")
            assert named in err


class TestOptimal:
    def test_exact_result(self, capsys):
        code, out, _ = run(capsys, "optimal", "--params", "4,2,4,1")
        assert code == 0
        assert "# weight: 8" in out
        assert "# exact: yes" in out
        built = parse_matrix(matrix_part(out))
        assert weight(built) == 8
        assert verify(built, CodeParams(4, 2, 4, 1)).ok

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--params", "10,3,6,1", "--node-limit", "100"
        )
        assert code == 3
        assert "# exact: no" in out
        assert "# weight-lower-bound: 20" in out

    def test_cut_short_run_prints_its_best_code(self, capsys):
        # The search starts from the top-of-band code, so even a run stopped
        # at its first node has a code to print.
        code, out, _ = run(
            capsys, "optimal", "--params", "10,3,6,1", "--node-limit", "1"
        )
        assert code == 3
        assert "# weight-lower-bound: 20" in out
        assert "# best-found-weight: 30" in out
        built = parse_matrix(matrix_part(out))
        assert (built.m, built.n, weight(built)) == (6, 10, 30)
        assert verify(built, CodeParams(10, 3, 6, 1)).ok

    def test_time_limit_exhausted(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--params", "30,4,7,1", "--time-limit", "1e-9"
        )
        assert code == 3
        assert "# weight-lower-bound: 69" in out
        assert "# nodes: 4096" in out

    def test_nan_time_limit_rejected(self, capsys):
        code, out, err = run(
            capsys, "optimal", "--params", "10,3,6,1", "--time-limit", "nan"
        )
        assert code == 2 and out == ""
        assert "time_limit must be positive, got nan" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "opt.txt"
        code, out, _ = run(
            capsys, "optimal", "--params", "4,2,4,1", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert "# weight: 8" in target.read_text()


class TestTable:
    def test_header_and_agreement(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "1:6", "--k", "1:2", "--m", "4", "--r", "0:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,m,r,regime,predicted,oracle,exact"
        assert len(lines) > 1
        for line in lines[1:]:
            n, k, m, r, regime, predicted, oracle, exact = line.split(",")
            assert exact == "true"
            if predicted:
                assert predicted == oracle, line
            assert regime != "unknown" or predicted == ""

    def test_unknown_regime_row(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "7", "--k", "3", "--m", "5", "--r", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "7,3,5,1,unknown,,15,true"

    def test_invalid_tuples_skipped(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "2", "--k", "3", "--m", "3", "--r", "0:5"
        )
        assert code == 0
        assert out.strip() == "n,k,m,r,regime,predicted,oracle,exact"

    @pytest.mark.parametrize(
        "argv",
        [
            # An empty --n range used to leave the malformed --k unparsed.
            ("--n", "5:1", "--k", "x", "--m", "4", "--r", "1"),
            ("--n", "3", "--k", "1", "--m", "4", "--r", "1", "--node-limit", "0"),
        ],
    )
    def test_bad_flags_print_nothing(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_k0_tuples_skipped(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "1:3", "--k", "0:1", "--m", "3", "--r", "0"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            [str(n), "1", "3", "0", "k1"] for n in (1, 2, 3)
        ]

    def test_comma_lists(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "2,4", "--k", "2", "--m", "4", "--r", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["2", "4"]

    def test_jobs_matches_serial(self, capsys):
        argv = ["table", "--n", "1:5", "--k", "1:3", "--m", "4", "--r", "0:2"]
        serial = run(capsys, *argv)
        parallel = run(capsys, *argv, "--jobs", "2")
        assert serial[0] == parallel[0] == 0
        assert serial[1] == parallel[1]

    def test_jobs_capped_at_rows_and_at_least_one(self, capsys, monkeypatch):
        asked = []

        class SerialPool:  # records the worker count; starts no process
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(x) for x in items]

        monkeypatch.setattr("multiprocessing.Pool", SerialPool)
        argv = ["table", "--n", "2,4", "--k", "2", "--m", "4", "--r", "1"]
        serial = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "64") == serial
        assert asked == [2]
        one_row = ["table", "--n", "2", "--k", "2", "--m", "4", "--r", "1"]
        assert run(capsys, *one_row, "--jobs", "64")[0] == 0
        assert asked == [2]  # a single row runs without a pool
        for jobs in ("0", "-1"):
            code, out, err = run(capsys, *argv, "--jobs", jobs)
            assert (code, out) == (2, "")
            assert f"--jobs must be at least 1, got {jobs}" in err
        assert asked == [2]

    def test_budget_exhaustion_flags_row_and_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--n",
            "10",
            "--k",
            "3",
            "--m",
            "6",
            "--r",
            "1",
            "--node-limit",
            "100",
        )
        assert code == 3
        row = out.strip().splitlines()[1]
        assert row.endswith("false")

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "table", "--n", "1:x", "--k", "1", "--m", "4", "--r", "0"
        )
        assert code == 2
        assert "bad range" in err


class TestGirthSearch:
    def test_extremal_value_and_witness(self, capsys):
        code, out, _ = run(capsys, "girth-search", "--m", "5", "--girth", "4")
        assert code == 0
        assert "# max-edges: 6" in out
        assert "# exact: yes" in out
        graph = parse_graph(matrix_part(out))
        assert graph.edge_count == 6
        assert girth(graph) >= 4
        # K_50 has more edges than Python's recursion limit, but girth 3 is
        # a closed form that needs no search.
        code, out, _ = run(capsys, "girth-search", "--m", "50", "--girth", "3")
        assert code == 0
        assert "# max-edges: 1225" in out
        assert "# exact: yes" in out

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(
            capsys, "girth-search", "--m", "9", "--girth", "5", "--node-limit", "20"
        )
        assert code == 3
        assert "# exact: no" in out
        graph = parse_graph(matrix_part(out))
        assert girth(graph) >= 5


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "construct", "--params", "4,3,6,3", "--wat")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["construct", "--params", "4,3,6,3", "--node", "5"], "--node"),
            (["verify", "--params", "4,3,6,3", "--strat", "all", "FILE"], "--strat"),
            (["retrieve", "--params", "4,3,6,3", "--demand", "1", "--do", "2",
              "FILE"], "--do"),
            (["optimal", "--params", "10,3,6,1", "--node", "1"], "--node"),
            (["table", "--n", "2", "--k", "2", "--m", "4", "--r", "1", "--job",
              "2"], "--job"),
            (["girth-search", "--m", "7", "--girth", "5", "--n", "10"], "--n"),
        ],
        ids=["construct", "verify", "retrieve", "optimal", "table", "girth-search"],
    )
    def test_option_names_are_not_abbreviated(self, capsys, tmp_path, argv, prefix):
        # A prefix of an option is not that option: `--n` is not
        # `--node-limit`, and each line exits 2 before any search.
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {prefix} " in err

    @pytest.mark.parametrize("field", ["1_0", "+2", " 3"])
    def test_integers_are_decimal_digits_only(self, capsys, tmp_path, field):
        path = tmp_path / "tall.txt"
        path.write_text(TALL_TEXT)
        retrieve = ["retrieve", "--params", "4,3,6,3", str(path)]
        table = ["table", "--k", "2", "--m", "4", "--r", "1"]
        for argv in (
            ["construct", "--params", f"{field},3,6,3"],
            [*retrieve, "--demand", f"1,{field}"],
            [*retrieve, "--demand", "1", "--down", field],
            [*table, "--n", field],
            [*table, "--n", f"1:{field}"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:"), argv


def cli_env() -> dict[str, str]:
    """The environment, with the tested rcbc first on the child's path."""
    env = dict(os.environ)
    src = str(Path(rcbc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcbc.cli", "construct", "--params", "4,3,6,3"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "# regime: circulant" in proc.stdout

    def test_pipeline_constructs_verifies_retrieves(self, tmp_path):
        path = tmp_path / "code.txt"
        build = subprocess.run(
            [sys.executable, "-m", "rcbc.cli", "construct", "--params", "8,2,4,1",
             "--out", str(path)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert build.returncode == 0
        check = subprocess.run(
            [sys.executable, "-m", "rcbc.cli", "verify", "--params", "8,2,4,1",
             "--strategy", "all", str(path)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert check.returncode == 0
        assert check.stdout == "ok (all strategies agree)\n"
        fetch = subprocess.run(
            [sys.executable, "-m", "rcbc.cli", "retrieve", "--params", "8,2,4,1",
             "--demand", "1,8", "--down", "2", str(path)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert fetch.returncode == 0
        assert "->" in fetch.stdout


    @pytest.mark.parametrize(
        "argv",
        [
            ["optimal", "--params", "1100,3,16,1"],
        ],
    )
    def test_search_past_the_recursion_limit_exits_2(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "rcbc.cli", *argv],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "recurses past Python's recursion limit" in proc.stderr

class TestStrictIntegerFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimal", "--params", "4,2,4,1", "--node-limit", "1_0"],
            ["girth-search", "--m", "5", "--girth", "4", "--node-limit", "+5"],
            ["table", "--n", "5", "--k", "2", "--m", "4", "--r", "1", "--jobs", " 2"],
            ["construct", "--params", "4,3,6,3", "--node-limit", "1_000"],
            ["girth-search", "--m", " 5", "--girth", "4"],
            ["girth-search", "--m", "5", "--girth", "+4"],
            ["table", "--n", "5", "--k", "2", "--m", "4", "--r", "1", "--jobs", "+1"],
            ["table", "--n", "5", "--k", "2", "--m", "4", "--r", "1",
             "--node-limit", "1_000"],
        ],
    )
    def test_integer_flags_take_decimal_digits_only(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "expected an integer" in err

    def test_time_limit_still_takes_inf(self, capsys):
        code, out, _ = run(
            capsys, "girth-search", "--m", "5", "--girth", "4", "--time-limit", "inf"
        )
        assert code == 0
        assert "# max-edges: 6" in out


class TestSourceSyntax:
    def test_every_source_file_parses_as_python_3_10(self):
        # The oldest Python that pyproject.toml declares; syntax newer than
        # that fails here rather than only on a 3.10 interpreter.
        root = Path(__file__).resolve().parent.parent
        files = [
            path
            for top in ("src", "tests", "perfbench")
            for path in sorted((root / top).rglob("*.py"))
        ]
        assert len(files) > 20
        for path in files:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
