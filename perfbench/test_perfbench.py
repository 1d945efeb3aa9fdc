"""Tests of the benchmark itself:  python3 -m pytest perfbench

Self-time arithmetic on a synthetic span tree, seeded input generation,
and a short smoke pass of every workload (plain and traced) on a few
points, checking that each metric of BENCHMARK.json is emitted with its
unit.
"""

import json
import math

import pytest

import run

assert run.use_checkout_source(), "run from a lapcyl source checkout"

import spans  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, count=0):
    return [name, start, end, parent, count]


def test_self_time_on_synthetic_tree():
    tree = [
        _span("catalog.verify", 0.0, 10.0, -1, 3),          # 0
        _span("special.pcf_d", 0.5, 1.5, 0, 1),              # 1  image call
        _span("quad.integrate_finite", 2.0, 9.0, 0, 30),     # 2
        _span("catalog.integrand", 2.5, 5.5, 2, 15),         # 3
        _span("special.gauss_2f1_cm", 3.0, 5.0, 3, 15),      # 4
        _span("catalog.integrand", 6.0, 8.0, 2, 15),         # 5
    ]
    assert spans.self_times(tree) == [2.0, 1.0, 2.0, 1.0, 2.0, 2.0]

    tracer = spans.Tracer()
    tracer.spans = tree
    tracer.case_of = {0: "T31-KUMMER"}
    m = spans.layer_metrics(tracer, ["T31-KUMMER", "S51-INT"])
    assert m["catalog.self_s"] == 2.0
    assert m["catalog.image_s"] == 1.0
    assert m["catalog.integrand_self_s"] == 3.0
    assert m["catalog.points"] == 3
    assert m["catalog.overhead_us_per_point"] == pytest.approx(2.0e6 / 3)
    assert m["quad.self_s"] == 2.0
    assert m["quad.integrand_calls"] == 2
    assert m["quad.nodes_per_call"] == 15
    assert m["quad.evals"] == 30
    assert m["special.self_s"] == 3.0
    assert m["special.calls"] == 2
    assert m["special.elems"] == 16
    assert m["special.gauss_2f1_cm.elems"] == 15
    assert m["catalog.case_s.T31-KUMMER"] == 10.0
    assert m["catalog.case_evals.T31-KUMMER"] == 30
    assert m["catalog.case_s.S51-INT"] == 0.0


def test_instrument_restores_originals():
    import lapcyl.catalog.cases as cases
    import lapcyl.quad as quad

    before = (cases.pcf_d, quad.integrate_semi_infinite)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cases.pcf_d is not before[0]
        assert quad.integrate_semi_infinite is not before[1]
        value = cases.pcf_d(-0.75, 5.5)   # integral route: nested quadrature
    assert (cases.pcf_d, quad.integrate_semi_infinite) == before
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["special.pcf_d", "quad.integrate_semi_infinite", "special.integrand"]
    assert value == before[0](-0.75, 5.5)


def test_same_seed_same_inputs():
    assert W.scalar_inputs(5) == W.scalar_inputs(5)
    assert W.scalar_inputs(5) != W.scalar_inputs(6)
    grids = W.catalog_grids(("laplace_pair",))
    assert grids == W.catalog_grids(("laplace_pair",))
    assert W.verify_calls(grids, 3) == W.verify_calls(grids, 3)
    assert sorted(map(repr, W.verify_calls(grids, 3))) == sorted(map(repr, W.verify_calls(grids, 4)))


def test_scalar_draws_stay_in_supported_domains():
    for label, fn, args in W.scalar_inputs(11):
        if fn == "pcf_d":
            assert abs(args[1]) <= 40.0
            if label == "pcf_d.series":
                assert W._off_int(args[0])
            if args[1] >= 3.0:
                assert W._pcf_ok(*args)
        elif fn == "gauss_2f1":
            assert args[3] <= 1.0
            assert W._f21_generic(*args)
        elif fn == "gauss_2f1_cm":
            assert args[3] >= 0.0
            if label in ("gauss_2f1_cm.connect", "gauss_2f1_cm.pfaff"):
                assert W._f21_generic(*args)
            if label == "gauss_2f1_cm.log":
                assert args[2] > 0.5 or W._off_int(args[2])
        elif fn == "appell_f1":
            a, _, _, c, z1, z2 = args
            assert c > a > 0.0 and z1 < 1.0 and z2 < 1.0


@pytest.fixture
def small_workloads(monkeypatch):
    """Shrink every workload to one point per case and a sliver of calls."""
    full = W.catalog_grids
    monkeypatch.setattr(W, "catalog_grids",
                        lambda kinds: {cid: pts[:1] for cid, pts in full(kinds).items()})
    scalar = W.scalar_inputs
    monkeypatch.setattr(W, "scalar_inputs", lambda seed: scalar(seed, scale=0.02))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_emitted(workload, trace, small_workloads, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert result["correct"] and result["failed"] == 0
