"""End-to-end CLI checks through real subprocesses.

Every invocation goes through `python -m lapcyl.cli` so the argument
parsing, exit codes, and report bytes are exercised exactly as a user
sees them.  Four checks are the exception.  The pool-size check and the
check that an unwritable --out stops the run before any task call
`main` in-process, with a fake executor or task, so that they start no
worker and can see which tasks ran.  The exit status of a group whose
integral does not converge calls `main` in-process, with a quadrature
budget cut too short.  The check of which cases
overlapping --case globs select calls `_select_cases`, so that it runs
none of them.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

CLI = [sys.executable, "-m", "lapcyl.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


class TestEval:
    @pytest.mark.parametrize("args, expected", [
        (["eval", "D", "--nu", "0", "--z", "2"], "0.36787944117144233"),
        (["eval", "erfc", "--x", "0"], "1"),
        (["eval", "2f1", "--a", "1", "--b", "1.5", "--c", "1.5", "--z", "0.5"], "2"),
    ])
    def test_pinned_values(self, args, expected):
        res = run_cli(*args)
        assert res.returncode == 0
        assert res.stdout.strip() == expected

    def test_missing_argument_is_config_error(self):
        res = run_cli("eval", "2f1", "--a", "1", "--b", "1")
        assert res.returncode == 2
        assert "--c" in res.stderr
        assert "--z" in res.stderr

    def test_extra_argument_is_config_error(self):
        res = run_cli("eval", "erfc", "--x", "0", "--nu", "1")
        assert res.returncode == 2

    def test_function_help_lists_its_flags_only(self):
        res = run_cli("eval", "erfc", "--help")
        assert res.returncode == 0
        assert "--x" in res.stdout
        assert "--nu" not in res.stdout

    def test_unknown_function_is_config_error(self):
        res = run_cli("eval", "bessel", "--x", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("args, reason", [
        (["D", "--nu", "0.5", "--z", "50"], "DomainError"),
        (["2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "2"], "DomainError"),
        (["gamma", "--z", "200"], "OverflowError"),
        (["phi", "--a", "1", "--b", "1", "--z", "710"], "OverflowError"),
        (["gamma", "--z=-inf"], "DomainError"),
        (["2f1", "--a", "nan", "--b", "1", "--c", "2", "--z", "0.3"], "DomainError"),
        (["2f1", "--a", "0.5", "--b", "1", "--c", "2", "--z", "nan"], "DomainError"),
        (["D", "--nu", "0.5", "--z", "nan"], "DomainError"),
        (["phi", "--a", "nan", "--b", "1", "--z", "1"], "DomainError"),
        (["phi", "--a", "1", "--b", "1", "--z", "nan"], "DomainError"),
        (["2f2", "--a1", "1", "--a2", "1", "--b1", "2", "--b2", "2", "--z", "nan"],
         "DomainError"),
        (["f1", "--a", "0.5", "--b1", "0.3", "--b2", "0.3", "--c", "1.5", "--z1", "nan",
          "--z2", "0.1"], "DomainError"),
        # b1 b2 underflows to 0 in the series' ratio table
        (["2f2", "--a1", "1", "--a2", "1", "--b1", "1e-200", "--b2", "1e-200", "--z", "0.5"],
         "ZeroDivisionError"),
        (["D", "--nu", "400.5", "--z", "5"], "OverflowError"),
        # e^scale itself overflows, not only its product with the value
        (["phi", "--a", "1", "--b", "1", "--z", "1200"], "OverflowError"),
    ])
    def test_bad_argument_is_reported_cleanly(self, args, reason):
        res = run_cli("eval", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: eval ")
        assert reason in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("z", ["142.6", "150"])
    def test_gamma_where_its_power_overflows(self, z):
        # base^(z - 1/2) passes double range before e^-base brings the
        # product back; Gamma(142.6) printed (nan+nanj) and Gamma(150) raised
        res = run_cli("eval", "gamma", "--z", z)
        assert res.returncode == 0
        got = float(res.stdout)
        assert math.isfinite(got)
        with mpmath.workdps(30):
            want = float(mpmath.gamma(float(z)))
        assert abs(got - want) <= 1e-14 * want

    def test_pcf_integral_route_below_order_minus_127(self):
        # t^130.5 overflowed at the far nodes: NaN panels, a numpy
        # RuntimeWarning and NonConvergence, where D is 1.75e-125
        res = run_cli("eval", "D", "--nu", "-130.5", "--z", "3",
                      env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert res.returncode == 0, res.stderr
        with mpmath.workdps(30):
            want = float(mpmath.pcfd(-130.5, 3.0))
        assert abs(float(res.stdout) - want) <= 1e-12 * want

    def test_non_finite_value_prints(self):
        res = run_cli("eval", "erf", "--x", "nan")
        assert res.returncode == 0
        assert res.stdout.strip() == "nan"


class TestList:
    def test_lists_whole_catalog(self):
        res = run_cli("list")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 38
        assert lines[0].startswith("ILT-PCF-BLOCK")
        assert any(line.startswith("NEG-T42") for line in lines)

    def test_kind_filter(self):
        res = run_cli("list", "--kind", "direct_integral")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 7
        assert all(" direct_integral" in line for line in lines)


class TestVerifyExitCodes:
    def test_control_pair_exits_zero(self):
        res = run_cli("verify", "--case", "T41-CORRECTED", "--case", "NEG-T41",
                      "--format", "text")
        assert res.returncode == 0
        assert "NEG-T41" in res.stdout and "fail" in res.stdout

    def test_raw_verdict_recorded_for_control(self):
        # report keeps the honest "fail"; only the exit layer flips it
        res = run_cli("verify", "--case", "NEG-T41")
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert rows and all(r["verdict"] == "fail" for r in rows)

    def test_unachievable_tol_exits_one(self):
        res = run_cli("verify", "--case", "RED-GAUSS-SUM", "--tol", "1e-17")
        assert res.returncode == 1

    def test_unknown_case_exits_two(self):
        res = run_cli("verify", "--case", "NOT-A-CASE")
        assert res.returncode == 2
        assert "NOT-A-CASE" in res.stderr

    def test_later_pattern_matching_nothing_exits_two(self):
        res = run_cli("verify", "--case", "T3*", "--case", "NOT-A-CASE*")
        assert res.returncode == 2
        assert "no case matches 'NOT-A-CASE*'" in res.stderr

    def test_overlapping_globs_select_each_case_once_in_registry_order(self):
        from lapcyl import cli

        args = cli.build_parser().parse_args(
            ["verify", "--case", "T3*", "--case", "T31-DIFF-HALF", "--case", "T31-*"])
        want = [row[0] for row in cli.list_cases() if row[0].startswith("T3")]
        assert len(want) > 2
        assert cli._select_cases(args) == want

    def test_no_selection_exits_two(self):
        res = run_cli("verify")
        assert res.returncode == 2

    def test_all_with_case_exits_two(self):
        # --all and --case exclude each other: a usage error, running nothing
        res = run_cli("verify", "--all", "--case", "NOT-A-CASE")
        assert res.returncode == 2
        assert "not allowed with argument --all" in res.stderr
        assert res.stdout == ""

    def test_bad_jobs_exits_two(self):
        res = run_cli("verify", "--case", "RED-*", "--jobs", "0")
        assert res.returncode == 2

    def test_bad_tol_exits_two(self):
        res = run_cli("verify", "--case", "RED-*", "--tol", "-1")
        assert res.returncode == 2

    def test_unwritable_out_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        res = run_cli("verify", "--case", "RED-ERFC-REFLECT", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot write {out}")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_unwritable_out_fails_before_any_task(self, tmp_path, monkeypatch, capsys):
        from lapcyl import cli

        ran = []
        monkeypatch.setattr(cli, "_eval_task", ran.append)
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["verify", "--case", "C361-NG69", "--out", str(out)]) == 2
        assert ran == []
        assert "error: cannot write" in capsys.readouterr().err


class TestReportFormats:
    def test_json_schema(self):
        res = run_cli("verify", "--case", "C361-NG69")
        assert res.returncode == 0
        assert res.stdout.endswith("\n")
        rows = json.loads(res.stdout)
        assert len(rows) == 4
        for row in rows:
            assert list(row) == ["id", "kind", "params", "lhs", "rhs",
                                 "rel_error", "verdict", "evaluations"]
            assert list(row["params"]) == ["mu", "nu", "x", "y", "p"]
            assert len(row["lhs"]) == 2 and len(row["rhs"]) == 2
            assert row["verdict"] == "pass"

    def test_csv_layout(self):
        res = run_cli("verify", "--case", "C361-NG69", "--format", "csv")
        assert res.returncode == 0
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert rows[0] == ["id", "kind", "mu", "nu", "x", "y", "p",
                           "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                           "rel_error", "verdict", "evaluations"]
        assert len(rows) == 5

    def test_text_summary(self):
        res = run_cli("verify", "--case", "RED-ERFC-REFLECT", "--format", "text")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1].startswith("summary: cases=1 pass=1")


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            res = run_cli("verify", "--case", "C321-*", "--out", str(out))
            assert res.returncode == 0
            assert res.stdout == ""
        assert out1.read_bytes() == out2.read_bytes()

    def test_timing_sidecar_written_separately(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("verify", "--case", "RED-RECURRENCE", "--out", str(out))
        assert res.returncode == 0
        timing = json.loads((tmp_path / "r.json.timing.json").read_text())
        assert timing["jobs"] == 1
        assert timing["total_ms"] > 0.0
        assert "RED-RECURRENCE" in timing["cases"]
        # and no timing leaked into the report itself
        assert "timing" not in out.read_text()

    def test_parallel_sidecar_times_every_case(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("verify", "--case", "RED-*", "--jobs", "2", "--out", str(out))
        assert res.returncode == 0
        timing = json.loads((tmp_path / "r.json.timing.json").read_text())
        assert timing["jobs"] == 2
        assert len(timing["cases"]) == 11
        for ms in timing["cases"].values():
            assert isinstance(ms, float) and ms > 0.0

    def test_parallel_matches_serial(self, tmp_path):
        # T41-CORRECTED integrates three p per (orders, x, y) group
        serial = tmp_path / "serial.json"
        par = tmp_path / "par.json"
        cases = ["--case", "C361-REP", "--case", "C361-NG69", "--case", "T41-CORRECTED"]
        r1 = run_cli("verify", *cases, "--out", str(serial))
        r2 = run_cli("verify", *cases, "--jobs", "2", "--out", str(par))
        assert r1.returncode == 0 and r2.returncode == 0
        assert serial.read_bytes() == par.read_bytes()


class TestPoolSize:
    def test_workers_capped_at_task_count(self, tmp_path, monkeypatch):
        from lapcyl import cli

        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                seen.append(len(tasks))
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        out = tmp_path / "r.json"
        # a task is one whole case: two cases, two tasks
        assert cli.main(["verify", "--case", "C361-NG69", "--case", "RED-ERFC-REFLECT",
                         "--jobs", "64", "--out", str(out)]) == 0
        assert seen == [2, 2]
        timing = json.loads((tmp_path / "r.json.timing.json").read_text())
        assert timing["jobs"] == 64
        assert list(timing["cases"]) == ["C361-NG69", "RED-ERFC-REFLECT"]


class TestGridFile:
    def test_grid_replaces_default(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "# custom points\n"
            "\n"
            "ILT-PCF-BLOCK 0 0.5 1.5 1.5 2.0\n"
            "ILT-PCF-BLOCK 0 0.75 0.8 0.8 1.0\n"
        )
        res = run_cli("verify", "--case", "ILT-PCF-BLOCK", "--grid", str(grid))
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert len(rows) == 2
        assert rows[0]["params"]["p"] == 2.0

    def test_t34_at_mu_zero(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("T34-NEG-HALF 0 -0.5 1 1 1\n")
        res = run_cli("verify", "--case", "T34-NEG-HALF", "--grid", str(grid))
        assert res.returncode == 0, res.stderr
        assert [row["verdict"] for row in json.loads(res.stdout)] == ["pass"]

    def test_unmentioned_case_keeps_default(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("ILT-PCF-BLOCK 0 0.5 1.5 1.5 2.0\n")
        res = run_cli("verify", "--case", "C361-NG69", "--grid", str(grid))
        assert res.returncode == 0
        assert len(json.loads(res.stdout)) == 4

    def test_malformed_row_exits_two(self, tmp_path):
        # file bytes (None: no such file) and the message each must give
        inputs = [
            (b"ILT-PCF-BLOCK 0 0.5 1.5\n", ":1: expected `id mu nu x y p`, got 4 fields"),
            (b"ILT-PCF-BLOCK 0 0.5 1.5 1.5 two\n", ":1: non-numeric parameter"),
            (None, "error: cannot read grid file"),
            (b"T41-CORRECTED 0 0.25 1 1 1\n\xff\xfe bad\n", "error: cannot read grid file"),
        ]
        for n, (data, message) in enumerate(inputs):
            grid = tmp_path / f"grid{n}.txt"
            if data is not None:
                grid.write_bytes(data)
            cid = (data or b"ILT-PCF-BLOCK").split()[0].decode()
            res = run_cli("verify", "--case", cid, "--grid", str(grid))
            assert res.returncode == 2, (data, res.stderr)
            assert message in res.stderr, (data, res.stderr)
            assert "Traceback" not in res.stderr, data

    def test_unknown_id_in_grid_exits_two(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("WHAT-IS-THIS 0 0.5 1 1 1\n")
        res = run_cli("verify", "--case", "ILT-PCF-BLOCK", "--grid", str(grid))
        assert res.returncode == 2

    def test_out_of_validity_point_exits_two(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("ILT-PCF-BLOCK 0 -2 1 1 1\n")
        res = run_cli("verify", "--case", "ILT-PCF-BLOCK", "--grid", str(grid))
        assert res.returncode == 2
        assert "requires nu > 0" in res.stderr

    def test_group_that_does_not_converge_exits_one(self, tmp_path, monkeypatch):
        # a NonConvergence of the group's integral is a failing row (exit
        # 1), not an invalid point (exit 2)
        from lapcyl import cli, quad

        monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 6)
        grid = tmp_path / "grid.txt"
        grid.write_text("".join(f"T31-DIFF-HALF -1.5 -1.5 0.5 0.5 {p}\n" for p in (0.5, 1, 3)))
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--case", "T31-DIFF-HALF", "--grid", str(grid),
                         "--out", str(out)]) == 1
        assert [row["verdict"] for row in json.loads(out.read_text())] == ["fail"] * 3

    @pytest.mark.parametrize("row, reason", [
        ("S51-INT -1 -1 0.5 0.5 1", "invalid grid point for S51-INT: requires p = 0"),
        ("C361-REP 0 0 1 1 2", "invalid grid point for C361-REP: requires p = 1"),
    ])
    def test_direct_integral_off_its_kernel_exits_two(self, tmp_path, row, reason):
        # a direct integral's p is the kernel e^{-pt} its identity states
        grid = tmp_path / "grid.txt"
        grid.write_text(row + "\n")
        res = run_cli("verify", "--case", row.split()[0], "--grid", str(grid))
        assert res.returncode == 2
        assert res.stdout == ""
        assert reason in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("row", [
        # unchecked, the first reads as a wrong identity (fail, exit 1), and
        # the second spends 60,150 evaluations on a fail
        "RED-ERFC-REFLECT 0 0 nan nan 1",
        "C361-ERFC-SINGLE 0 0 inf inf 1",
    ])
    def test_non_finite_parameter_exits_two(self, tmp_path, row):
        grid = tmp_path / "grid.txt"
        grid.write_text(row + "\n")
        res = run_cli("verify", "--case", row.split()[0], "--grid", str(grid))
        assert res.returncode == 2
        assert res.stdout == ""
        assert ":1:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_error_is_the_one_verify_raises(self, tmp_path, jobs):
        # the first row's integral raises, the second row's closed form does:
        # verify evaluates every closed form before any integral
        from lapcyl import InvalidParams
        from lapcyl.catalog import verify
        from lapcyl.catalog.model import ParamPoint

        grid = tmp_path / "grid.txt"
        grid.write_text("C341-SINGLE -2.3 -2.3 1 1 1\n"
                        "C341-SINGLE 0 -0.5 1 1 1000\n")
        with pytest.raises(InvalidParams) as exc:
            verify("C341-SINGLE", grid=[ParamPoint(orders=(-2.3, -2.3), x=1, y=1, p=1),
                                        ParamPoint(orders=(0, -0.5), x=1, y=1, p=1000)])
        assert "pcf_d argument magnitude 44.7" in str(exc.value)
        res = run_cli("verify", "--case", "C341-SINGLE", "--grid", str(grid), "--jobs", jobs)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {exc.value}\n"

    def test_interleaved_cases_match_across_jobs(self, tmp_path):
        # rows of two cases and several (orders, x, y) groups, in mixed order
        rows = ["T41-CORRECTED 0 0.25 1 1 2",
                "ILT-PCF-BLOCK 0 0.5 2 2 1",
                "T41-CORRECTED 0 -0.5 0.25 0.25 1",
                "ILT-PCF-BLOCK 0 0.25 0.5 0.5 3",
                "T41-CORRECTED 0 0.25 1 1 0.5",
                "ILT-PCF-BLOCK 0 0.5 2 2 0.5",
                "T41-CORRECTED 0 -0.5 0.25 0.25 2"]
        grid = tmp_path / "grid.txt"
        grid.write_text("\n".join(rows) + "\n")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"r{jobs}.json"
            res = run_cli("verify", "--case", "T41-CORRECTED", "--case", "ILT-PCF-BLOCK",
                          "--grid", str(grid), "--jobs", jobs, "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # cases in registry order, each case's rows in file order
        want = [[float(tok) for tok in row.split()[1:]]
                for cid in ("ILT-PCF-BLOCK", "T41-CORRECTED")
                for row in rows if row.startswith(cid + " ")]
        got = [[r["params"][k] for k in ("mu", "nu", "x", "y", "p")]
               for r in json.loads(outs[0])]
        assert got == want

    def test_image_argument_beyond_pcf_range_exits_two(self, tmp_path):
        # sqrt(2 x p) = 44.7 passes every order condition but not pcf_d's
        # |z| <= 40
        grid = tmp_path / "grid.txt"
        grid.write_text("T31-DIFF-HALF -0.5 -0.5 2 2 500\n")
        res = run_cli("verify", "--case", "T31-DIFF-HALF", "--grid", str(grid))
        assert res.returncode == 2
        assert "invalid grid point" in res.stderr
        assert "Traceback" not in res.stderr
