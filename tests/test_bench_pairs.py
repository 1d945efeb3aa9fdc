"""The summary of tools/bench_pairs.py on synthetic runs (starts no benchmark)."""

import importlib.util
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
