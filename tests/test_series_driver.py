"""The series driver of lapcyl.special.hyper.

The driver sums the Gauss 2F1 Maclaurin, connection and logarithmic
series, 2F2, and Kummer Phi (which also feeds the series route of pcf_d).

Two kinds of check:
- the driver against the plain per-lane loop it replaced, bit for bit;
- every branch against mpmath at 40 digits.  Each row is one seeded draw
  of parameters, most with several argument lanes.  The draws come from a
  fixed seed, so rows and ids are the same on every run.
"""

import math

import mpmath
import numpy as np
import pytest

from lapcyl.special import gauss_2f1, gauss_2f1_cm, hyp_2f2, hyper, pcf_d, phi_scaled

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


def _reference_lanes(first, step):
    """Kahan sum with a per-lane count of consecutive negligible terms."""
    total = first.copy()
    term = first.copy()
    comp = np.zeros_like(first)
    consec = np.zeros(first.shape, dtype=np.int64)
    for k in range(10000):
        term = step(term, k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        small = np.abs(term) <= 1e-16 * np.maximum(np.abs(total), 1e-300)
        consec = np.where(small, consec + 1, 0)
        if np.all(consec >= 3):
            return total
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


def test_driver_matches_reference_loops():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(40):
        a, b, c, d = rng.uniform(-3.0, 3.0, 4) + 0.5j * rng.uniform(-1.0, 1.0, 4)
        z = rng.uniform(-0.5, 0.5, 7) + 0j
        f21 = lambda t, k: t * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z
        got, _ = hyper._sum_series(np.ones_like(z), f21, what="2f1")
        assert got.tobytes() == _reference_lanes(np.ones_like(z), f21).tobytes()
        z = rng.uniform(0.0, 200.0, 7) + 0j
        f22 = lambda t, k: t * ((a + k) * (b + k) / ((c + k) * (d + k) * (k + 1.0))) * z
        got, _ = hyper._sum_series(np.ones_like(z), f22, what="2f2")
        assert got.tobytes() == _reference_lanes(np.ones_like(z), f22).tobytes()
        a, b, x = complex(a), complex(c), float(rng.uniform(-40.0, 900.0))
        assert phi_scaled(a, b, x) == _reference_scaled(a, b, complex(x))
