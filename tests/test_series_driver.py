"""The series driver of lapcyl.special.hyper.

The driver sums the Gauss 2F1 Maclaurin, connection and logarithmic
series, 2F2, and Kummer Phi (which also feeds the series route of pcf_d).

Four kinds of check:
- the driver against plain per-term Kahan loops, for Phi the scalar loop
  that phi_scaled ran before it went through the driver: the same sum to
  within 4 eps sum (k+1) |c_k| per lane, the same stopping index and an
  exact term budget, and no less accurate on cancelling series or
  against mpmath;
- float64 sums against the same sums in complex, bit for bit;
- a sum's first step, sized from its argument, against one _BLOCK per
  step, bit for bit, and the step count that sizing buys;
- every branch against mpmath at 40 digits.  Each row is one seeded draw
  of parameters, most with several argument lanes.  The draws come from a
  fixed seed, so rows and ids are the same on every run.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from lapcyl import NonConvergence
from lapcyl.special import (
    gauss2f1, gauss_2f1, gauss_2f1_cm, hyp_2f2, hyper, kummer_phi, pcf, pcf_d, phi_scaled,
)

EPS = np.finfo(float).eps
REL_BOUND = 1e-11
ROWS = 16
SEED = 20190801

# Rows that land on a defect recorded in CHANGES.md, id -> reason.  Each is
# kept as a strict xfail so that fixing the defect shows up here.
_PCF_CANCEL = ("ROADMAP item 4: pcf_d series route cancels between its even and "
               "odd parts for nu below about -4 as z nears the z = 3 route switch")
KNOWN_DEFECTS = {
    "pcf-pos-09": _PCF_CANCEL,
    "pcf-pos-10": _PCF_CANCEL,
    "pcf-pos-14": _PCF_CANCEL,
}


def _f21(a, b, c, z):
    return gauss_2f1(a, b, c, z), [mpmath.hyp2f1(a, b, c, x) for x in z]


def _f21_cm(a, b, c, w):
    return gauss_2f1_cm(a, b, c, w), [mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(x)) for x in w]


def _f22(a1, a2, b1, b2, z):
    return hyp_2f2(a1, a2, b1, b2, z), [mpmath.hyp2f2(a1, a2, b1, b2, x) for x in z]


def _phi(a, b, z):
    value, scale = phi_scaled(a, b, z)
    return [value], [mpmath.hyp1f1(a, b, z) / mpmath.exp(scale)]


def _pcf(nu, z):
    return [pcf_d(nu, z)], [mpmath.pcfd(nu, z)]


def _draws():
    rng = np.random.default_rng(SEED)

    def u(lo, hi, n=None):
        x = rng.uniform(lo, hi, n)
        return x if n else float(x)

    def conn_w():
        # complements in the connection region 0 < w < 1/2, down to 1e-12
        return 10.0 ** u(-12.0, math.log10(0.5), 6)

    rows = []
    for i in range(ROWS):
        a, b = u(-3, 3), u(-3, 3)
        rows.append(("2f1-series", i, _f21, (a, b, u(-2.5, 4), u(-0.5, 0.5, 6))))
        a, b = u(-3, 3), u(-3, 3)
        rows.append(("2f1-connection", i, _f21_cm, (a, b, u(-2.5, 4), conn_w())))
        a, b = u(-3, 3), u(-3, 3)
        z = -(10.0 ** u(math.log10(0.5), 3.0, 6))
        rows.append(("2f1-pfaff", i, _f21, (a, b, u(-2.5, 4), z)))
        for m in (0, 1 + i % 3, -1 - i % 3):
            a, b = u(-2.5, 2.5), u(-2.5, 2.5)
            rows.append((f"2f1-log-m{m:+d}", i, _f21_cm, (a, b, a + b + m, conn_w())))
        a1, a2, b1, b2 = u(-3, 3), u(-3, 3), u(-2.5, 3), u(-2.5, 3)
        rows.append(("2f2", i, _f22, (a1, a2, b1, b2, u(0, 200, 8))))
        rows.append(("phi", i, _phi, (u(-4, 4), u(-3, 4), u(0, 900))))
        rows.append(("pcf-neg", i, _pcf, (u(-6, 6), u(-40, 0))))
        rows.append(("pcf-pos", i, _pcf, (u(-6, 6), u(0, 3))))
    params = []
    for kind, i, fn, args in rows:
        rid = f"{kind}-{i:02d}"
        marks = ()
        if rid in KNOWN_DEFECTS:
            marks = pytest.mark.xfail(strict=True, reason=KNOWN_DEFECTS[rid])
        params.append(pytest.param(fn, args, id=rid, marks=marks))
    return params


@pytest.mark.parametrize("fn, args", _draws())
def test_matches_mpmath(fn, args):
    with mpmath.workdps(40):
        got, want = fn(*args)
        errs = [abs(complex(g) - complex(w)) / abs(complex(w)) for g, w in zip(got, want)]
    assert max(errs) < REL_BOUND, (args, errs)


def _reference_lanes(ratio, z):
    """Per-term Kahan sum of c_k, c_0 = 1, c_{k+1} = c_k * ratio(k) * z,
    with a per-lane count of consecutive negligible terms.

    Returns the sum and |c_k| for the N terms the stopping rule takes, as
    an (N, lanes) array.
    """
    total = np.ones(z.shape, dtype=complex)
    term = total.copy()
    comp = np.zeros_like(total)
    mags = [np.abs(term)]
    consec = np.zeros(z.shape, dtype=np.int64)
    for k in range(10000):
        term = term * (ratio(k) * z)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mags.append(np.abs(term))
        small = np.abs(term) <= 1e-16 * np.maximum(np.abs(total), 1e-300)
        consec = np.where(small, consec + 1, 0)
        if np.all(consec >= 3):
            return total, np.array(mags)
    raise AssertionError("reference loop did not settle")


def _reference_scaled(a, b, z):
    """Kahan sum of the Phi series, renormalized by 1e250 as it grows: the
    scalar loop that phi_scaled ran before it went through the driver.

    Returns the sum, its log scale, and the N terms the stopping rule
    takes, in the units of the sum.
    """
    total, term, comp, scale, consec = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j, 0.0, 0
    terms = [term]
    for k in range(10000):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        terms.append(term)
        consec = consec + 1 if abs(term) <= 1e-16 * abs(total) else 0
        if consec >= 3:
            return total, scale, np.array(terms)
        if abs(total) > 1e250 or abs(term) > 1e250:
            total, term, comp = total / 1e250, term / 1e250, comp / 1e250
            terms = [c / 1e250 for c in terms]
            scale += math.log(1e250)
    raise AssertionError("reference loop did not settle")


def _reference_phi(a, b, z):
    """(value, log_scale, terms) of the reference loop, through Kummer's
    transformation at Re z < 0 as phi_scaled takes it."""
    a, b, z = complex(a), complex(b), complex(z)
    if z.real < 0.0:
        value, scale, terms = _reference_scaled(b - a, b, -z)
        return value * cmath.exp(1j * z.imag), scale + z.real, terms
    return _reference_scaled(a, b, z)


def _table(ratio):
    """The driver's ratio table from a ratio given as a function of k."""
    return hyper._Table(lambda k0: np.array([ratio(k) for k in range(k0, k0 + hyper._BLOCK)]))


def _f21_ratio(a, b, c):
    return lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))


def _f22_ratio(a1, a2, b1, b2):
    return lambda k: (a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1.0))


def _bound(mags):
    """4 eps sum (k+1) |c_k| over the rows of mags, per lane."""
    return 4 * EPS * np.tensordot(np.arange(1, len(mags) + 1), mags, axes=1)


def test_driver_matches_reference_loops():
    # The block driver sums by Sum2 and forms c_k by numpy's cumprod, whose
    # complex products round differently from the elementwise multiply of
    # the per-term loop, so c_k may differ by about k rounding errors: the
    # bound is 4 eps sum (k+1) |c_k| per lane, not bit for bit.  Phi is
    # held to the same bound against its scalar loop, at the same scale.
    rng = np.random.default_rng(SEED + 1)
    for _ in range(40):
        a, b, c, d = rng.uniform(-3.0, 3.0, 4) + 0.5j * rng.uniform(-1.0, 1.0, 4)
        for ratio, z in [(_f21_ratio(a, b, c), rng.uniform(-0.5, 0.5, 7) + 0j),
                         (_f22_ratio(a, b, c, d), rng.uniform(0.0, 200.0, 7) + 0j)]:
            got = hyper._sum_series(_table(ratio), z, what="series")
            want, mags = _reference_lanes(ratio, z)
            assert np.all(np.abs(got - want) <= _bound(mags)), (got, want)
        x = float(rng.uniform(-40.0, 900.0))
        for a, b in [(complex(a), complex(c)), (a.real, c.real)]:
            want, scale, terms = _reference_phi(a, b, x)
            value, got_scale = phi_scaled(a, b, x)
            assert got_scale == scale
            assert abs(value - want) <= _bound(np.abs(terms)), (a, b, x, value, want)


def _driver_case(ratio, z, residue):
    """A driver call on a _BLOCK-row table and the reference loop's term
    count N, which leaves `residue` in the last block."""
    n = len(_reference_lanes(ratio, z)[1])
    assert n % hyper._BLOCK == residue
    return lambda: hyper._sum_series(_table(ratio), z, what="series"), n


def _phi_case(a, b, x, scale):
    """A phi_scaled call and the scalar loop's term count N; the loop ends
    at `scale`."""
    _, loop_scale, terms = _reference_phi(a, b, x)
    assert loop_scale == scale
    return lambda: phi_scaled(a, b, x), len(terms)


@pytest.mark.parametrize("case", [
    pytest.param(_driver_case(_f21_ratio(0.5, 0.25, 0.75), np.array([0.1, -0.3, 0.45]), 11),
                 id="2f1-N43"),
    pytest.param(_driver_case(_f21_ratio(0.5, 1.25, 0.75), np.array([0.1, -0.3, 0.45]), 1),
                 id="2f1-N49"),
    pytest.param(_driver_case(_f22_ratio(0.5, 1.25, 4.0, 2.5), np.array([2.0, 15.0, 40.0]), 5),
                 id="2f2-N101"),
    pytest.param(_driver_case(_f22_ratio(-2.5, 1.25, 4.0, 2.5), np.array([2.0, 15.0, 40.0]), 1),
                 id="2f2-N97"),
    # Phi's step at x = 2 has 40 rows, and a budget shorter than that cuts it
    pytest.param(_phi_case(0.3, 0.5, 2.0, 0.0), id="phi-N26"),
    # the sum passes 1e250 at term 334 and carries on from there, scaled
    pytest.param(_phi_case(0.3, 0.5, 700.0, math.log(1e250)), id="phi-N927-rescaled"),
])
def test_term_budget_is_exact(monkeypatch, case):
    # N terms settle the series; a budget of N is enough and N - 1 is not,
    # also when the stop falls mid-block or on the first term of a block
    run, n = case
    monkeypatch.setattr(hyper, "_MAX_TERMS", n)
    run()
    monkeypatch.setattr(hyper, "_MAX_TERMS", n - 1)
    with pytest.raises(NonConvergence):
        run()


def _bits(values):
    """The real parts' bytes, once every imaginary part is checked zero."""
    assert not np.any(values.imag)
    return values.real.tobytes()


def test_float64_sums_are_the_complex_sums_bit_for_bit():
    # Each series summed twice: with real tables and real lanes, so in
    # float64, and with the lanes cast to complex.  Every bit of the real
    # parts agrees, and the imaginary parts are zero.
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        a, b, gap = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 0.8)
        w = 10.0 ** rng.uniform(-12.0, math.log10(0.5), 7)
        z = rng.uniform(-0.5, 0.5, 7)
        _, _, series1, _, series2 = gauss2f1.Gauss2F1Plan(a, b, a + b + gap)._generic
        # a Maclaurin series also takes its lanes' largest |z|, here at most 1/2
        pairs = [(lambda lanes, s=s: s(lanes, 0.5), lanes) for s, lanes in
                 ((gauss2f1._maclaurin(a, b, a + b + gap), z), (series1, w), (series2, w))]
        for m in (0, 1, 2):
            ratios, psi, _, _ = gauss2f1.Gauss2F1Plan(a, b, a + b + m)._log
            weights = hyper._Table(lambda k0, psi=psi: psi.block(k0 // hyper._BLOCK)[:, None]
                                   - np.log(w))

            def log_series(lanes, ratios=ratios, weights=weights, m=m):
                return hyper._sum_series(ratios, lanes, weights, first=1.0 / math.factorial(m),
                                         what="series")
            pairs.append((log_series, w))
        a1, a2, b1, b2 = rng.uniform(-3.0, 3.0, 4)
        pairs.append((lambda lanes: hyp_2f2(a1, a2, b1, b2, lanes), rng.uniform(0.0, 200.0, 7)))
        for series, lanes in pairs:
            assert _bits(series(lanes)) == _bits(series(lanes.astype(complex)))


def test_real_tables_keep_the_complex_tables_bits(monkeypatch):
    # Gauss 2F1 and 2F2 values against the same calls with every table
    # formed from the complex parameters, as before tables could be real:
    # every byte agrees, the signs of zero imaginary parts too.
    rng = np.random.default_rng(SEED + 5)
    draws = []
    for _ in range(20):
        a, b = rng.uniform(-3.0, 3.0, 2)
        # Maclaurin, connection, logarithmic (m = 0, 1, -1 by Euler) and Pfaff lanes
        w = np.concatenate([rng.uniform(0.5, 1.5, 3), 10.0 ** rng.uniform(-12.0, -0.31, 3),
                            rng.uniform(1.5, 30.0, 3)])
        draws += [(gauss_2f1_cm, (a, b, c, w)) for c in (a + b + rng.uniform(0.2, 0.8),
                                                          a + b, a + b + 1.0, a + b - 1.0)]
        draws.append((hyp_2f2, (*rng.uniform(-3.0, 3.0, 4), rng.uniform(0.0, 200.0, 7))))
    real = [fn(*args) for fn, args in draws]
    monkeypatch.setattr(gauss2f1, "_reals", lambda *values: values)
    monkeypatch.setattr(hyper, "_reals", lambda *values: values)
    for (fn, args), got in zip(draws, real):
        assert got.tobytes() == fn(*args).tobytes(), (fn.__name__, args)


def _alternating_series():
    rng = np.random.default_rng(SEED + 2)
    rows = []
    for _ in range(10):
        a, b, c = rng.uniform(4.0, 10.0), rng.uniform(4.0, 10.0), rng.uniform(0.5, 4.0)
        z = rng.uniform(-0.5, -0.3, 5)
        rows.append((_f21_ratio(a, b, c), z, lambda x, p=(a, b, c): mpmath.hyp2f1(*p, x)))
        p = (rng.uniform(-9.5, -0.5), rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0),
             rng.uniform(0.5, 4.0))
        z = rng.uniform(0.0, 60.0, 5)
        rows.append((_f22_ratio(*p), z, lambda x, p=p: mpmath.hyp2f2(*p, x)))
    return rows


def test_compensation_against_mpmath():
    # on series whose terms cancel, Sum2 is at least as accurate as the
    # per-term Kahan loop, up to rounding of the terms' absolute sum
    for ratio, z, exact in _alternating_series():
        got = hyper._sum_series(_table(ratio), z, what="series")
        ref, mags = _reference_lanes(ratio, z)
        with mpmath.workdps(40):
            want = np.array([complex(exact(x)) for x in z])
        assert np.all(np.abs(got - want) <= np.abs(ref - want) + 2 * EPS * mags.sum(axis=0))


def _phi_draws():
    """Seeded (a, b, z) for Phi: x in [0, 800], sums that pass 1e250,
    kummer_phi's 709/710 overflow edge, Re z < 0, and complex z."""
    rng = np.random.default_rng(SEED + 6)
    u = rng.uniform
    draws = [(u(-4, 4), u(-3, 4), u(0, 800)) for _ in range(60)]
    draws += [(u(-4, 4), u(-3, 4), u(580, 800)) for _ in range(20)]
    draws += [(a, a + u(-0.5, 0.5), u(706, 712)) for a in u(-2, 2, 20)]
    draws += [(u(-4, 4), u(-3, 4), -u(0, 800)) for _ in range(30)]
    draws += [(u(-4, 4), u(-3, 4), complex(u(-40, 40), u(-40, 40))) for _ in range(40)]
    return draws


def _worst_and_p99(errs):
    return max(errs), float(np.percentile(errs, 99))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_is_no_less_accurate_than_its_scalar_loop():
    # The driver forms the terms of the scalar loop bit for bit, and sums
    # them by Sum2 where the loop used Kahan.  So on every draw it is at
    # least as close as the loop to the exactly rounded sum of those terms.
    # Against mpmath the worst and 99th-percentile errors are no larger,
    # over the draws whose terms cancel by less than 1e3: past that, both
    # errors are set by the rounding of the terms, and whether the loop's
    # summation error offsets it is chance.
    errs = {"driver": [], "loop": []}
    with mpmath.workdps(40):
        for a, b, z in _phi_draws():
            value, scale = phi_scaled(a, b, z)
            loop, loop_scale, terms = _reference_phi(a, b, z)
            assert scale == loop_scale
            # the loop's sum is over the series at -z when Re z < 0
            turn = cmath.exp(1j * complex(z).imag) if complex(z).real < 0.0 else 1.0
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag)) * turn
            assert abs(value - exact) <= abs(loop - exact) + EPS * abs(exact), (a, b, z)
            want = complex(mpmath.hyp1f1(a, b, z) / mpmath.exp(scale))
            if np.abs(terms).sum() <= 1e3 * abs(loop):
                errs["driver"].append(abs(value - want) / abs(want))
                errs["loop"].append(abs(loop - want) / abs(want))
            if isinstance(z, float) and z > 700.0:
                if abs(want) * math.exp(scale) > np.finfo(float).max:
                    with pytest.raises(OverflowError):
                        kummer_phi(a, b, z)
                else:
                    assert kummer_phi(a, b, z) == value * cmath.exp(scale)
    assert len(errs["driver"]) >= 140
    assert _worst_and_p99(errs["driver"]) <= _worst_and_p99(errs["loop"])


def test_pcf_series_route_is_no_less_accurate_than_the_scalar_loop(monkeypatch):
    # pcf_d's series route, off-integer nu as in the benchmark's draws
    rng = np.random.default_rng(SEED + 7)
    draws = []
    while len(draws) < 80:
        nu = rng.uniform(-3.0, 3.0)
        if abs(nu - round(nu)) >= 0.02:
            draws.append((nu, rng.uniform(-40.0, 3.0)))
    with mpmath.workdps(40):
        want = [complex(mpmath.pcfd(nu, z)) for nu, z in draws]
    got = [pcf_d(nu, z) for nu, z in draws]
    monkeypatch.setattr(pcf, "phi_scaled", lambda a, b, z: _reference_phi(a, b, z)[:2])
    loop = [pcf_d(nu, z) for nu, z in draws]
    errs = {name: [abs(v - w) / abs(w) for v, w in zip(values, want)]
            for name, values in (("driver", got), ("loop", loop))}
    assert _worst_and_p99(errs["driver"]) <= _worst_and_p99(errs["loop"])
    assert max(errs["driver"]) < REL_BOUND


def _gauss_regions(rng):
    """Seeded gauss_2f1_cm calls, one per region and route, and a mixed array."""
    calls = []
    for _ in range(6):
        a, b = rng.uniform(-3.0, 3.0, 2)
        maclaurin = rng.uniform(0.5, 1.5, 7)
        connection = 10.0 ** rng.uniform(-12.0, math.log10(0.49), 7)
        pfaff = rng.uniform(1.5, 30.0, 7)
        generic = a + b + rng.uniform(0.2, 0.8)
        calls += [(a, b, generic, maclaurin), (a, b, generic, connection),
                  (a, b, a + b, connection), (a, b, a + b + 1.0, connection),
                  (a, b, a + b - 1.0, connection), (a, b, generic, pfaff),
                  (a, b, generic, np.concatenate([[0.0], maclaurin[:2], connection[:2],
                                                  pfaff[:2]])),
                  (a, b, generic, float(connection[0]))]
    # 300 lanes cap a step below the 57 rows sized for w up to 1/2
    a, b = rng.uniform(-3.0, 3.0, 2)
    return calls + [(a, b, a + b + 0.45, rng.uniform(0.3, 0.49, 300)),
                    (a, b, a + b + 1.0, rng.uniform(0.3, 0.49, 300))]


def test_sized_first_step_keeps_every_bit(monkeypatch):
    # Each sum's first step is sized from its largest argument; with the
    # sizing patched back to one _BLOCK per step every value keeps its bytes
    rng = np.random.default_rng(SEED + 8)
    calls = [(gauss_2f1_cm, args) for args in _gauss_regions(rng)]
    for _ in range(10):
        params = rng.uniform(-3.0, 3.0, 4)
        # 120 lanes cap a step at _STEP_ELEMS // 120 rows, below the sized one
        calls += [(hyp_2f2, (*params, float(rng.uniform(0.0, 200.0)))),
                  (hyp_2f2, (*params, rng.uniform(0.0, 200.0, 7))),
                  (hyp_2f2, (*params, rng.uniform(0.0, 200.0, 120)))]
    sized = [np.asarray(fn(*args)).tobytes() for fn, args in calls]
    monkeypatch.setattr(gauss2f1, "_gauss_rows", lambda zmax: hyper._BLOCK)
    monkeypatch.setattr(hyper, "_confluent_rows", lambda zmax: hyper._BLOCK)
    for (fn, args), got in zip(calls, sized):
        assert np.asarray(fn(*args)).tobytes() == got, (fn.__name__, args)


def _count_steps(monkeypatch):
    """Counts of driver calls and driver steps: a step takes its ratio
    rows with one _Table.take, and these calls carry no weights table.
    _Table.block, which the driver reads once for the dtype, goes to the
    uncounted take."""
    counts = {"series": 0, "steps": 0}
    take, summed = hyper._Table.take, hyper._sum_series

    def counted_take(table, k, n):
        counts["steps"] += 1
        return take(table, k, n)

    def counted_sum(*args, **kwargs):
        counts["series"] += 1
        return summed(*args, **kwargs)

    monkeypatch.setattr(hyper._Table, "take", counted_take)
    monkeypatch.setattr(hyper._Table, "block", lambda table, i: take(table, table.rows * i,
                                                                      table.rows))
    monkeypatch.setattr(hyper, "_sum_series", counted_sum)
    monkeypatch.setattr(gauss2f1, "_sum_series", counted_sum)
    return counts


def test_one_step_per_series(monkeypatch):
    # 2F2 at z = 60 takes about 140 terms, and each connection series of a
    # 2F1 at w up to 0.4 about 40: one driver step each, where one _BLOCK
    # per step took 9 and 3
    plan = gauss2f1.Gauss2F1Plan(0.3, 0.7, 1.45)
    counts = _count_steps(monkeypatch)
    hyp_2f2(0.3, 0.5, 1.2, 0.7, 60.0)
    assert counts == {"series": 1, "steps": 1}
    counts.update(series=0, steps=0)
    plan(np.linspace(0.01, 0.4, 15))
    assert counts == {"series": 2, "steps": 2}
