"""tools/bench_pairs.py on synthetic runs and fake checkouts (starts no benchmark)."""

import importlib.util
import json
import os
import signal
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "accuracy_digits", "better": "higher"}]}


def _run(workload, seed, side, wall, digits, failed=0, correct=True):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "accuracy_digits": {"value": digits, "unit": "digits"}}
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}}


def test_summary_of_alternating_pairs():
    runs = []
    for seed, (pw, cw) in enumerate([(4.0, 2.0), (3.0, 3.0), (5.0, 6.0), (2.0, 1.0)], start=21):
        runs.append(_run("laplace", seed, "parent", pw, 12.0))
        runs.append(_run("laplace", seed, "change", cw, 12.0 + (seed == 24)))
    runs.append(_run("scalar", 21, "change", 1.0, 13.0, failed=2, correct=False))
    runs.append(_run("scalar", 21, "parent", 2.0, 13.5))
    runs.append(_run("scalar", 22, "parent", 2.0, 13.5))  # unpaired: left out

    out = bench_pairs.summarize(runs, SPEC)

    assert list(out) == ["laplace", "scalar"]
    lap = out["laplace"]
    assert (lap["pairs"], lap["seeds"]) == (4, [21, 22, 23, 24])
    assert lap["failed"] == {"parent": 0, "change": 0} and lap["all_correct"]
    wall = lap["metrics"]["wall_s"]
    # parent 2, 3, 4, 5 and change 1, 2, 3, 6, linear quartiles
    assert wall["parent"] == {"q1": 2.75, "median": 3.5, "q3": 4.25}
    assert wall["change"] == {"q1": 1.75, "median": 2.5, "q3": 3.75}
    assert wall["ratio_of_medians"] == pytest.approx(2.5 / 3.5)
    assert (wall["change_wins"], wall["ties"]) == (2, 1)
    digits = lap["metrics"]["accuracy_digits"]
    assert (digits["change_wins"], digits["ties"], digits["ratio_of_medians"]) == (1, 3, 1.0)

    sca = out["scalar"]
    assert (sca["pairs"], sca["seeds"]) == (1, [21])
    assert sca["failed"] == {"parent": 0, "change": 2} and not sca["all_correct"]
    assert sca["metrics"]["wall_s"]["change_wins"] == 1
    assert sca["metrics"]["accuracy_digits"]["change_wins"] == 0


@pytest.mark.parametrize("claim", ["laplace", "laplace:wal_s", "laplce:wall_s", ":wall_s"])
def test_bad_claim_exits_2_before_any_checkout(monkeypatch, tmp_path, capsys, claim):
    def no_checkout(rev, dest):
        raise AssertionError("checked out a revision")

    monkeypatch.setattr(bench_pairs, "_checkout", no_checkout)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out),
                          "--claim", claim])
    assert exc.value.code == 2
    assert "--claim must be <workload>:<metric>" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("first_seed", ["-1", "1.5", "x"])
def test_bad_first_seed_exits_2_before_any_checkout(monkeypatch, tmp_path, capsys, first_seed):
    def no_checkout(rev, dest):
        raise AssertionError("checked out a revision")

    monkeypatch.setattr(bench_pairs, "_checkout", no_checkout)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out),
                          f"--first-seed={first_seed}"])
    assert exc.value.code == 2
    assert "--first-seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, first", [
    ([], 21), (["--first-seed", "40"], 40), (["--claim", "scalar:wall_s"], 21)])
def test_seeds_start_at_first_seed(monkeypatch, tmp_path, argv, first):
    names = [m["name"] for m in json.loads((_PATH.parent.parent / "BENCHMARK.json")
                                           .read_text())["end_to_end"]]
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append((workload, seed, tree.name, trace))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {n: {"value": 1.0, "unit": ""} for n in names}}

    monkeypatch.setattr(bench_pairs, "_checkout", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out)]
                            + argv) == 0
    doc = json.loads(out.read_text())
    assert doc["first_seed"] == first
    # a claimed workload runs 10 pairs, every other its PAIRS
    claimed = doc["claimed"] and doc["claimed"]["workload"]
    assert bench_pairs.PAIRS["scalar"] < 10
    for workload, pairs in bench_pairs.PAIRS.items():
        if workload == claimed:
            pairs = 10
        seeds = list(range(first, first + pairs))
        assert doc["summary"][workload]["seeds"] == seeds
        # odd seeds run the parent first
        order = [(s, side) for w, s, side, trace in calls if w == workload and not trace]
        assert order == [(s, side) for s in seeds
                         for side in (("parent", "change") if s % 2 else ("change", "parent"))]
    assert [(w, s) for w, s, _, trace in calls if trace] == [
        (w, first) for w in bench_pairs.TRACED for _ in range(2)]


class _Unhandled(Exception):
    pass


def test_sigterm_removes_the_checkouts_and_restores_the_handler(monkeypatch, tmp_path):
    def unhandled(signum, frame):
        raise _Unhandled  # bench_pairs left SIGTERM to this handler

    trees = []

    def fake_checkout(rev, dest):
        dest.mkdir()
        trees.append(dest)

    def signal_self(tree, workload, seed, seconds, trace):
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not stop the run")

    monkeypatch.setattr(bench_pairs, "_checkout", fake_checkout)
    monkeypatch.setattr(bench_pairs, "_run", signal_self)
    previous = signal.signal(signal.SIGTERM, unhandled)
    try:
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--parent", "HEAD", "--change", "HEAD",
                              "--out", str(tmp_path / "BENCH.json")])
        assert signal.getsignal(signal.SIGTERM) is unhandled
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exc.value.code == 128 + signal.SIGTERM
    assert len(trees) == 2 and trees[0].parent.name.startswith("bench-pairs-")
    assert not trees[0].parent.exists()
