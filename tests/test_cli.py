"""End-to-end CLI checks through real subprocesses.

Every invocation goes through `python -m lapcyl.cli` so the argument
parsing, exit codes, and report bytes are exercised exactly as a user
sees them.  The pool-size check is the exception: it calls `main`
in-process with a fake executor, so that it starts no worker.
"""

import csv
import io
import json
import subprocess
import sys

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

    def test_extra_argument_is_config_error(self):
        res = run_cli("eval", "erfc", "--x", "0", "--nu", "1")
        assert res.returncode == 2

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
    ])
    def test_bad_argument_is_reported_cleanly(self, args, reason):
        res = run_cli("eval", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: eval ")
        assert reason in res.stderr
        assert "Traceback" not in res.stderr

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

    def test_no_selection_exits_two(self):
        res = run_cli("verify")
        assert res.returncode == 2

    def test_bad_jobs_exits_two(self):
        res = run_cli("verify", "--case", "RED-*", "--jobs", "0")
        assert res.returncode == 2

    def test_bad_tol_exits_two(self):
        res = run_cli("verify", "--case", "RED-*", "--tol", "-1")
        assert res.returncode == 2


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

            def map(self, fn, tasks, chunksize=1):
                seen.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        out = tmp_path / "r.json"
        # C361-NG69's default grid is 4 groups
        assert cli.main(["verify", "--case", "C361-NG69", "--jobs", "64",
                         "--out", str(out)]) == 0
        assert seen == [4, 1]
        timing = json.loads((tmp_path / "r.json.timing.json").read_text())
        assert timing["jobs"] == 64


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

    def test_unmentioned_case_keeps_default(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("ILT-PCF-BLOCK 0 0.5 1.5 1.5 2.0\n")
        res = run_cli("verify", "--case", "C361-NG69", "--grid", str(grid))
        assert res.returncode == 0
        assert len(json.loads(res.stdout)) == 4

    def test_malformed_row_exits_two(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("ILT-PCF-BLOCK 0 0.5 1.5\n")
        res = run_cli("verify", "--case", "ILT-PCF-BLOCK", "--grid", str(grid))
        assert res.returncode == 2
        assert ":1:" in res.stderr

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

    def test_image_argument_beyond_pcf_range_exits_two(self, tmp_path):
        # sqrt(2 x p) = 44.7 passes every order condition but not pcf_d's
        # |z| <= 40
        grid = tmp_path / "grid.txt"
        grid.write_text("T31-DIFF-HALF -0.5 -0.5 2 2 500\n")
        res = run_cli("verify", "--case", "T31-DIFF-HALF", "--grid", str(grid))
        assert res.returncode == 2
        assert "invalid grid point" in res.stderr
        assert "Traceback" not in res.stderr
