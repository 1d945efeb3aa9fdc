"""The series driver of lapcyl.special.hyper.

The driver sums the Gauss 2F1 Maclaurin, connection and logarithmic
series, 2F2, and Kummer Phi (which also feeds the series route of pcf_d).

Two kinds of check:
- the block driver against a plain per-term Kahan loop: the same sum to
  within rounding, the same stopping index and an exact term budget, and
  no less accurate on cancelling series; the scalar Phi loop bit for bit;
- every branch against mpmath at 40 digits.  Each row is one seeded draw
  of parameters, most with several argument lanes.  The draws come from a
  fixed seed, so rows and ids are the same on every run.
"""

import math

import mpmath
import numpy as np
import pytest

from lapcyl import NonConvergence, ParameterPole
from lapcyl.special import gauss2f1, gauss_2f1, gauss_2f1_cm, hyp_2f2, hyper, pcf_d, phi_scaled

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
    """Kahan sum of the Phi series, renormalized by 1e250 as it grows."""
    total, term, comp, scale, consec = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j, 0.0, 0
    for k in range(10000):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        consec = consec + 1 if abs(term) <= 1e-16 * abs(total) else 0
        if consec >= 3:
            return total, scale
        if abs(total) > 1e250 or abs(term) > 1e250:
            total, term, comp = total / 1e250, term / 1e250, comp / 1e250
            scale += math.log(1e250)
    raise AssertionError("reference loop did not settle")


def _table(ratio):
    """The driver's ratio table from a ratio given as a function of k."""
    return hyper._Table(lambda k0: np.array([ratio(k) for k in range(k0, k0 + hyper._BLOCK)]))


def _f21_ratio(a, b, c):
    return lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))


def _f22_ratio(a1, a2, b1, b2):
    return lambda k: (a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1.0))


def test_driver_matches_reference_loops():
    # The block driver sums by Sum2 and forms c_k by numpy's cumprod, whose
    # complex products round differently from the elementwise multiply of
    # the per-term loop, so c_k may differ by about k rounding errors: the
    # bound is 4 eps sum (k+1) |c_k| per lane, not bit for bit.  The scalar
    # Phi loop is still per term and matches bit for bit.
    rng = np.random.default_rng(SEED + 1)
    for _ in range(40):
        a, b, c, d = rng.uniform(-3.0, 3.0, 4) + 0.5j * rng.uniform(-1.0, 1.0, 4)
        for ratio, z in [(_f21_ratio(a, b, c), rng.uniform(-0.5, 0.5, 7) + 0j),
                         (_f22_ratio(a, b, c, d), rng.uniform(0.0, 200.0, 7) + 0j)]:
            got = hyper._sum_series(_table(ratio), z, what="series")
            want, mags = _reference_lanes(ratio, z)
            bound = 4 * EPS * (np.arange(1, len(mags) + 1)[:, None] * mags).sum(axis=0)
            assert np.all(np.abs(got - want) <= bound), (got, want)
        a, b, x = complex(a), complex(c), float(rng.uniform(-40.0, 900.0))
        if x < 0.0:
            # Kummer's transformation: the series at -x, with x in the scale
            value, scale = _reference_scaled(b - a, b, complex(-x))
            assert phi_scaled(a, b, x) == (value, scale + x)
        else:
            assert phi_scaled(a, b, x) == _reference_scaled(a, b, complex(x))


@pytest.mark.parametrize("ratio, z, residue", [
    pytest.param(_f21_ratio(0.5, 0.25, 0.75), np.array([0.1, -0.3, 0.45]), 11, id="2f1-N43"),
    pytest.param(_f21_ratio(0.5, 1.25, 0.75), np.array([0.1, -0.3, 0.45]), 1, id="2f1-N49"),
    pytest.param(_f22_ratio(0.5, 1.25, 4.0, 2.5), np.array([2.0, 15.0, 40.0]), 5, id="2f2-N101"),
    pytest.param(_f22_ratio(-2.5, 1.25, 4.0, 2.5), np.array([2.0, 15.0, 40.0]), 1, id="2f2-N97"),
])
def test_term_budget_is_exact(monkeypatch, ratio, z, residue):
    # N terms settle the series; a budget of N is enough and N - 1 is not,
    # also when the stop falls mid-block or on the first term of a block
    n = len(_reference_lanes(ratio, z)[1])
    assert n % hyper._BLOCK == residue
    monkeypatch.setattr(hyper, "_MAX_TERMS", n)
    hyper._sum_series(_table(ratio), z, what="series")
    monkeypatch.setattr(hyper, "_MAX_TERMS", n - 1)
    with pytest.raises(NonConvergence):
        hyper._sum_series(_table(ratio), z, what="series")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pole_inside_first_block():
    # c + k = 0 at k = 3: the block's scalar ratios raise before any array work
    with pytest.raises(ParameterPole):
        gauss2f1._maclaurin(0.5, 0.7, -3.0)(np.array([0.1, 0.2]))
