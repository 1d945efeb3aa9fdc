"""Gauss hypergeometric function 2F1 for real arguments z <= 1.

The evaluator is organized around the complement w = 1 - z rather than z
itself, because the identity catalog needs F at arguments approaching 1
from below where forming 1 - z by subtraction would lose every significant
digit.  Callers that know w analytically use gauss_2f1_cm directly.

Regions (array lanes are split by masks and reassembled):

  w == 0            Gauss summation value (requires Re(c-a-b) > 0)
  0 < w < 1/2       linear connection formula in powers of w; when c-a-b
                    is an integer m the degenerate logarithmic series
                    A&S 15.3.11 is used for m >= 0 (at m = 0 it is
                    15.3.10), and m < 0 goes through the Euler
                    transformation, which flips m to -m
  1/2 <= w <= 3/2   Maclaurin series at z = 1 - w, |z| <= 1/2
  w > 3/2           Pfaff transformation (1-z)^{-a} F(a,c-b;c;z/(z-1));
                    the transformed argument has complement 1/w, so the
                    inner call lands in one of the two regions above

Every infinite series here (Maclaurin, connection, logarithmic) is summed
by the one driver in .hyper, which also holds the stopping rule.  Each
caller passes its term ratio as a function of k and its argument array;
the logarithmic series also pass their running digamma sums as term
weights, one block of terms at a time.

Terminating cases (a or b a nonpositive integer) are evaluated as plain
polynomials for any w, before everything else.  c at a nonpositive integer
raises ParameterPole unless the series terminates first.  A non-finite
parameter or argument raises DomainError.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .._exceptions import DomainError, NonConvergence, ParameterPole
from .gammafn import digamma, gamma, reciprocal_gamma
from .hyper import _BLOCK, _sum_series

_EULER_GAMMA = 0.57721566490153286061
_INT_SNAP = 1e-12


def _params(a, b, c):
    """a, b, c as complex numbers, all finite."""
    a, b, c = complex(a), complex(b), complex(c)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
        raise DomainError(f"gauss_2f1 needs finite parameters, got a={a}, b={b}, c={c}")
    return a, b, c


def _near_int(v: complex):
    """Round-to-integer with a 1e-12 snap; None when v is not integral."""
    if abs(v.imag) > _INT_SNAP:
        return None
    r = round(v.real)
    if abs(v.real - r) <= _INT_SNAP * max(1.0, abs(v.real)):
        return int(r)
    return None


def _terminating_degree(a, b, c):
    """Degree of the polynomial F reduces to, or None for a true series.

    When a or b is a nonpositive integer the series terminates, at the
    smaller degree; otherwise c at a nonpositive integer is a pole.
    """
    degrees = [-n for n in (_near_int(a), _near_int(b)) if n is not None and n <= 0]
    if degrees:
        return min(degrees)
    n = _near_int(c)
    if n is not None and n <= 0:
        raise ParameterPole(f"gauss_2f1 lower parameter {c} is a nonpositive integer")
    return None


def _poly_f21(a, b, c, z, degree):
    """Terminating series sum_{k=0}^{degree}; z may be scalar or ndarray."""
    zc = np.asarray(z, dtype=complex)
    total = np.ones_like(zc)
    term = np.ones_like(zc)
    try:
        for k in range(degree):
            ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
            term = term * ratio * zc
            total = total + term
    except ZeroDivisionError:
        raise ParameterPole(
            f"gauss_2f1 lower parameter {c} hits a pole before the series terminates"
        ) from None
    return total


def _series_f21(a, b, c, z):
    """Maclaurin sum for |z| <= 1/2 + margin; z complex ndarray."""
    zc = np.asarray(z, dtype=complex)
    try:
        return _sum_series(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), zc,
                           what="gauss_2f1 series")
    except ZeroDivisionError:
        raise ParameterPole(
            f"gauss_2f1 lower parameter {c} is a nonpositive integer"
        ) from None


def gauss_2f1_at_one(a, b, c) -> complex:
    """F(a,b;c;1) by the Gauss summation theorem.

    Terminating cases go through the Chu-Vandermonde polynomial; otherwise
    Re(c-a-b) > 0 is required for the limit to exist.
    """
    a, b, c = _params(a, b, c)
    degree = _terminating_degree(a, b, c)
    if degree is not None:
        return complex(_poly_f21(a, b, c, 1.0 + 0.0j, degree))
    d = c - a - b
    if d.real <= 0.0:
        raise DomainError(
            f"gauss_2f1 at z=1 needs Re(c-a-b) > 0, got {d.real}"
        )
    return gamma(c) * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)


def _connect_generic(a, b, c, w):
    """A&S 15.3.6 for noninteger c-a-b, argument complement w in (0, 1/2)."""
    d = c - a - b
    p1 = gamma(c) * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
    p2 = gamma(c) * gamma(-d) * reciprocal_gamma(a) * reciprocal_gamma(b)
    out = np.zeros(w.shape, dtype=complex)
    if p1 != 0.0:
        out += p1 * _series_f21(a, b, a + b - c + 1.0, w)
    if p2 != 0.0:
        out += p2 * np.exp(d * np.log(w)) * _series_f21(c - a, c - b, d + 1.0, w)
    return out


def _connect_log_m(a, b, c, m, w):
    """A&S 15.3.11: c = a + b + m with integer m >= 0, w in (0, 1/2).

    At m = 0 the finite part is empty and this is A&S 15.3.10, term for
    term: the series is summed with 15.3.10's sign and weight (psi_nm
    equals psi_n there), and 15.3.11's -(-1)^m is folded into (-w)^m.
    """
    logw = np.log(w)

    def weights():
        # the digamma running sums, one block of terms at a time
        psi_n = -_EULER_GAMMA
        psi_nm = -_EULER_GAMMA + sum(1.0 / j for j in range(1, m + 1))
        psi_a = digamma(a + m)
        psi_b = digamma(b + m)
        for n0 in itertools.count(1, _BLOCK):
            block = []
            for n in range(n0, n0 + _BLOCK):
                block.append((psi_n + psi_nm - psi_a) - psi_b)
                psi_n += 1.0 / n
                psi_nm += 1.0 / (n + m)
                psi_a += 1.0 / (a + m + (n - 1))
                psi_b += 1.0 / (b + m + (n - 1))
            yield np.array(block)[:, None] - logw

    total = _sum_series(
        lambda k: (a + m + k) * (b + m + k) / ((k + 1) * (k + 1 + m)), w,
        weights(), first=1.0 / math.factorial(m), what="gauss_2f1 logarithmic series")
    p_ser = gamma(c) * reciprocal_gamma(a) * reciprocal_gamma(b)
    if m == 0:
        return p_ser * total
    # finite part: Gamma(m) Gamma(c) / (Gamma(a+m) Gamma(b+m)) *
    #              sum_{n=0}^{m-1} (a)_n (b)_n / (n! (1-m)_n) w^n
    finite = _poly_f21(a, b, 1.0 - m, w, m - 1)
    p_fin = gamma(float(m)) * gamma(c) * reciprocal_gamma(a + m) * reciprocal_gamma(b + m)
    return p_fin * finite + p_ser * (-w) ** m * total


def _f21_w(a, b, c, w):
    """Dispatcher over the complement w = 1 - z; w a float64 ndarray >= 0."""
    degree = _terminating_degree(a, b, c)
    if degree is not None:
        return _poly_f21(a, b, c, 1.0 - w, degree)
    out = np.empty(w.shape, dtype=complex)
    m_one = w == 0.0
    m_conn = (w > 0.0) & (w < 0.5)
    m_ser = (w >= 0.5) & (w <= 1.5)
    m_pf = w > 1.5
    if m_one.any():
        out[m_one] = gauss_2f1_at_one(a, b, c)
    if m_ser.any():
        out[m_ser] = _series_f21(a, b, c, 1.0 - w[m_ser])
    if m_conn.any():
        wc = w[m_conn]
        mi = _near_int(c - a - b)
        if mi is None:
            out[m_conn] = _connect_generic(a, b, c, wc)
        elif mi >= 0:
            out[m_conn] = _connect_log_m(a, b, c, mi, wc)
        else:
            # Euler transformation flips c-a-b to -mi >= 1
            inner = _f21_w(c - a, c - b, c, wc)
            out[m_conn] = np.exp((c - a - b) * np.log(wc)) * inner
    if m_pf.any():
        wp = w[m_pf]
        aa, bb = (a, b) if a.real <= b.real else (b, a)
        pref = np.exp(-aa * np.log(wp))
        inner = _f21_w(aa, c - bb, c, 1.0 / wp)
        out[m_pf] = pref * inner
    return out


def _finish(values, scalar_in):
    if not np.all(np.isfinite(values)):
        raise NonConvergence("gauss_2f1 produced a non-finite value")
    if scalar_in:
        return complex(values.reshape(-1)[0])
    return values


def gauss_2f1_cm(a, b, c, one_minus_z):
    """F(a,b;c;z) evaluated from the complement w = 1 - z (w >= 0).

    Passing w directly keeps full precision when z is exponentially close
    to 1, which is where the catalog's endpoint-singular integrands live.
    """
    a, b, c = _params(a, b, c)
    warr = np.asarray(one_minus_z, dtype=float)
    scalar_in = warr.ndim == 0
    w1 = np.atleast_1d(warr)
    if not np.isfinite(w1).all():
        raise DomainError("gauss_2f1 needs a finite argument")
    if (w1 < 0.0).any():
        raise DomainError("gauss_2f1 argument beyond 1 (negative complement)")
    vals = _f21_w(a, b, c, w1)
    return _finish(vals.reshape(warr.shape) if not scalar_in else vals, scalar_in)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric F(a,b;c;z) for real z <= 1 (scalar or ndarray).

    A scalar complex z is accepted when |z| <= 1/2 (direct series
    region); everywhere else the argument must be real.  z > 1 raises
    DomainError, z = 1 requires Re(c-a-b) > 0 unless the series
    terminates.
    """
    a, b, c = _params(a, b, c)
    zarr = np.asarray(z)
    if np.iscomplexobj(zarr):
        if np.any(np.atleast_1d(zarr).imag != 0.0):
            if zarr.ndim == 0 and abs(complex(zarr)) <= 0.5:
                zc = complex(zarr)
                degree = _terminating_degree(a, b, c)
                if degree is not None:
                    return _finish(np.atleast_1d(_poly_f21(a, b, c, zc, degree)), True)
                vals = _series_f21(a, b, c, np.atleast_1d(np.asarray(zc)))
                return _finish(vals, True)
            raise DomainError("complex gauss_2f1 argument supported only for |z| <= 1/2")
        zarr = zarr.real
    zarr = np.asarray(zarr, dtype=float)
    return gauss_2f1_cm(a, b, c, 1.0 - zarr)
