"""Grid points that satisfy their case's validity predicate but that a
special function cannot evaluate: outside pcf_d's or gauss_2f1's
domain, beyond double range in kummer_phi or math.exp, or where
pcf_d's own quadrature does not converge.  The engine rejects each as
an invalid point before it integrates any original, and the CLI exits
2 on it without a traceback under any --jobs.  An original that raises
inside its integral is InvalidParams too, with the same exit code.
"""

import dataclasses
import os
import signal
import subprocess
import sys

import pytest

from lapcyl import DomainError, InvalidParams, NonConvergence
from lapcyl.catalog import ParamPoint, engine, get_case, verify

# `id mu nu x y p`, as in a --grid file, and the error the closed form raises
ROWS = [
    ("ILT-KUM-BLOCK 0 0.5 1 1 720", "OverflowError"),
    ("ILT-KUM-BLOCK-32 0 -0.5 1 1 720", "OverflowError"),
    ("ILT-KUM-BLOCK-12 0 -0.5 1 1 720", "OverflowError"),
    ("T31-KUMMER -0.5 -0.5 1 0.5 720", "OverflowError"),
    ("T33-KUMMER -0.6 -0.45 1 0.5 720", "OverflowError"),
    ("C321-ERF-MIX 0 0 1 1 800", "OverflowError"),
    ("T35-POS-HALF -0.5 -0.5 3 3 250", "OverflowError"),
    ("T36-POS -0.5 -0.5 3 3 250", "OverflowError"),
    ("C361-ERFC2 0 0 1 1 400", "OverflowError"),
    ("T41-CORRECTED 0 0.25 400 400 5", "DomainError"),
    ("NEG-T41 0 0.25 4 4 500", "DomainError"),
    ("T42-CORRECTED -0.5 -0.5 4 4 19.5", "OverflowError"),
    ("NEG-T42 -0.5 -0.5 4 4 21", "DomainError"),
    ("RED-SUM-DIFF 0 0.5 50 50 1", "DomainError"),
    ("RED-2F1-EULER 0.3 0.7 1.1 1.5 1", "DomainError"),
    # pcf_d(0.995, 5): its integral route passes 2,000 subdivisions (ROADMAP item 1)
    ("RED-RECURRENCE 0 0.995 5 5 1", "NonConvergence"),
    # D_400.5(5) is about 2.7e433: the recurrence leaves double range
    ("RED-RECURRENCE 0 400.5 5 5 1", "OverflowError"),
    # x y underflows to 0, and the closed form's prefactor divides by it
    ("S51-INT -1.5 -1.5 5e-324 0.5 0", "ZeroDivisionError"),
]


def parse(row):
    cid, *values = row.split()
    mu, nu, x, y, p = map(float, values)
    return cid, ParamPoint(orders=(mu, nu), x=x, y=y, p=p)


@pytest.mark.parametrize("row, error", ROWS)
def test_engine_rejects_before_any_quadrature(row, error, monkeypatch):
    cid, pt = parse(row)
    case = get_case(cid)
    assert case.validity(pt) is None

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the closed forms were checked")

    monkeypatch.setattr(engine, "integrate_finite", no_quadrature)
    monkeypatch.setattr(engine, "integrate_semi_infinite", no_quadrature)
    # a valid point first: its group would integrate before the bad one's
    with pytest.raises(InvalidParams) as info:
        verify(cid, grid=[case.default_grid[0], pt])
    assert str(info.value).startswith(f"invalid grid point for {cid}: {error}: ")


def run_grid(tmp_path, row, jobs, timeout=None):
    """The CLI on a one-row grid file.  On a timeout its whole process
    group, pool workers included, is killed before TimeoutExpired."""
    grid = tmp_path / "grid.txt"
    grid.write_text(row + "\n")
    cmd = [sys.executable, "-m", "lapcyl.cli", "verify", "--case", row.split()[0],
           "--grid", str(grid), "--jobs", str(jobs)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("row, error", ROWS)
def test_cli_exits_two(tmp_path, row, error, jobs):
    res = run_grid(tmp_path, row, jobs)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"invalid grid point for {row.split()[0]}: {error}: " in res.stderr
    assert "Traceback" not in res.stderr


def test_gauss_sum_without_frozen_target_exits_two(tmp_path):
    res = run_grid(tmp_path, "RED-GAUSS-SUM 0.1 0.2 1.5 1 1", 1)
    assert res.returncode == 2
    assert "invalid grid point for RED-GAUSS-SUM: requires" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("error", [DomainError, NonConvergence, OverflowError, ZeroDivisionError])
def test_integrand_error_is_invalid_params(monkeypatch, error):
    # a special function raising inside the integrand, not the quadrature
    # giving up: NonConvergence here carries no partial result
    case = get_case("T31-DIFF-HALF")

    def raising(t, d_lo, d_hi):
        raise error("raised at a node")

    def original(pt):
        return tuple(dataclasses.replace(piece, integrand=raising) for piece in case.original(pt))

    monkeypatch.setitem(engine.REGISTRY, case.id, dataclasses.replace(case, original=original))
    with pytest.raises(InvalidParams) as info:
        verify(case.id, grid=case.default_grid[:1])
    message = str(info.value)
    assert message.startswith(f"cannot integrate {case.id} at orders=")
    assert f": {error.__name__}: raised at a node" in message


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("row, prefix, error", [
    # The original's 2F1 complement overflows at an underflowed node of the
    # endpoint substitution and gauss_2f1_cm raises DomainError.  ROADMAP
    # item 1 (endpoint powers as declared weights) retires this row: once
    # it passes, pick another integrand that raises, or drop this row.
    ("T31-DIFF-HALF -0.5 0.999 1 1 1",
     "error: cannot integrate T31-DIFF-HALF at orders=(-0.5, 0.999)", ": DomainError: "),
    # The (0, x) piece's t^{nu/2} is not integrable at 0 for nu <= -2, so
    # building the original's QuadratureSpec raises DomainError.
    ("C341-SINGLE -2.3 -2.3 1 1 1",
     "error: cannot integrate C341-SINGLE at orders=(-2.3, -2.3)",
     ": DomainError: exponent_at_lower must be > -1"),
    # e^{-(x+y)} underflows to 0, and the original divides by it
    ("C361-REP 0 0 800 1 1",
     "error: cannot integrate C361-REP at orders=(0.0, 0.0), x=800.0, y=1.0",
     ": ZeroDivisionError: "),
], ids=["T31-DIFF-HALF", "C341-SINGLE", "C361-REP"])
def test_cli_exits_two_when_the_integrand_raises(tmp_path, jobs, row, prefix, error):
    res = run_grid(tmp_path, row, jobs)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    last = res.stderr.splitlines()[-1]
    assert last.startswith(prefix)
    assert error in last


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("row, error", [
    # a terminating 2F1 of degree 1e300, whose sum overflows at its second term
    ("RED-2F1-EULER -1e300 0.7 1.1 0.3 1", "NonConvergence"),
    # 1e12 recurrence steps, whose values leave double range within a few hundred
    ("RED-RECURRENCE 0 1e12 5 5 1", "OverflowError"),
], ids=["RED-2F1-EULER", "RED-RECURRENCE"])
def test_cli_exits_two_before_a_huge_loop_ends(tmp_path, row, error, jobs):
    # a loop that ran as many steps as its input asks for would hang here
    res = run_grid(tmp_path, row, jobs, timeout=60)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"invalid grid point for {row.split()[0]}: {error}: " in res.stderr
    assert "Traceback" not in res.stderr
