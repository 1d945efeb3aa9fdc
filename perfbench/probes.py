"""Kernel and quadrature probes for the traced run: fixed inputs, so the
numbers compare across commits independently of the workload seed."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from lapcyl.quad import QuadratureSpec, integrate_finite, integrate_semi_infinite
from lapcyl.special import gauss_2f1_cm, hyp_2f2, pcf_d

WIDTHS = (15, 240, 3840)
PROBE_SEED = 7


def _per_call(fn, budget=0.15, min_reps=3):
    """Median seconds per call of fn over about `budget` seconds."""
    times = []
    spent = 0.0
    while spent < budget or len(times) < min_reps:
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def _ac7_integrals():
    """The 50 Beta/Gamma integrals of acceptance criterion AC7."""
    out = []
    for a in (0.1, 0.35, 0.6, 1.0, 1.7):
        for b in (0.1, 0.45, 0.8, 1.3, 2.6):
            spec = QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=a - 1.0,
                                  exponent_at_upper=b - 1.0, rel_tol=1e-11, abs_tol=1e-15)
            out.append((integrate_finite, spec,
                        lambda t, dlo, dhi, _a=a, _b=b: dlo ** (_a - 1.0) * dhi ** (_b - 1.0)))
    for a in (0.2, 0.6, 1.0, 1.9, 3.3):
        for s in (0.5, 1.0, 2.0, 4.0, 8.0):
            spec = QuadratureSpec(lower=0.0, upper=math.inf, exponent_at_lower=a - 1.0,
                                  decay_rate=s, rel_tol=1e-11, abs_tol=1e-15)
            out.append((integrate_semi_infinite, spec,
                        lambda t, dlo, dhi, _a=a, _s=s: t ** (_a - 1.0) * np.exp(-_s * t)))
    return out


def quad_overhead_us_per_panel(repeats=3):
    """Quadrature time outside the integrands, per integrand call, on the
    AC7 integrals; the median of `repeats` sweeps."""
    cases = _ac7_integrals()
    per_panel = []
    for _ in range(repeats):
        calls = 0
        inside = 0.0

        def timed(f):
            def g(t, dlo, dhi):
                nonlocal calls, inside
                t0 = perf_counter()
                y = f(t, dlo, dhi)
                inside += perf_counter() - t0
                calls += 1
                return y
            return g

        t0 = perf_counter()
        for integrate, spec, f in cases:
            integrate(timed(f), spec, distance_form=True)
        total = perf_counter() - t0
        per_panel.append((total - inside) * 1e6 / calls)
    return statistics.median(per_panel)


def probe_metrics():
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    for width in WIDTHS:
        w = rng.uniform(0.02, 2.0, width)
        secs = _per_call(lambda: gauss_2f1_cm(0.3, 0.7, 1.6, w))
        out[f"special.gauss_2f1_cm.us_per_elem.w{width}"] = secs * 1e6 / width
    for width in WIDTHS:
        z = rng.uniform(0.0, 30.0, width)
        secs = _per_call(lambda: hyp_2f2(-0.5, -0.75, 0.625, 1.125, z))
        out[f"special.hyp_2f2.us_per_elem.w{width}"] = secs * 1e6 / width
    out["special.pcf_d.us_per_call.series"] = _per_call(lambda: pcf_d(-0.75, 1.7)) * 1e6
    out["special.pcf_d.us_per_call.integral"] = _per_call(lambda: pcf_d(-0.75, 5.5)) * 1e6
    out["quad.driver_us_per_panel"] = quad_overhead_us_per_panel()
    return out
