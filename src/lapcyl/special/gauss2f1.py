"""Gauss hypergeometric function 2F1 for real arguments z <= 1.

The evaluator is organized around the complement w = 1 - z rather than z
itself, because the identity catalog needs F at arguments approaching 1
from below where forming 1 - z by subtraction would lose every significant
digit.  Callers that know w analytically use gauss_2f1_cm directly.

Regions (each an interval of w: an array whose smallest and largest lanes
share a region goes to it whole; a mixed array is split by masks and
reassembled, and each region's routine sees the same lanes either way):

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
series hands it a table of its term ratios, its argument array and the
largest |argument|, which sizes the first step and comes from the
smallest and largest w; the logarithmic series also pass their running
digamma sums as term weights.

Every entry point goes through a Gauss2F1Plan: Gauss2F1Plan(a, b, c)
checks the parameters, and plan(w) evaluates F(a, b; c; 1 - w).  What
depends only on (a, b, c) is formed the first time a call needs it and is
kept in the plan: the terminating/pole decision, the integer test on
c-a-b, the value at w = 0, the connection prefactors, the plans of the
Euler and Pfaff inner parameters, and each series' ratio table (and the
logarithmic series' digamma sums), grown one block of terms at a time.
gauss_2f1_cm builds a plan and calls it once, so a one-shot call does the
same work as before; a caller that evaluates one (a, b, c) at many
arguments, as the catalog's integrands do on every quadrature node of an
integral, builds the plan once.  A plan's values do not depend on the
calls before: each is the same scalar expression, formed once.

Terminating cases (a or b a nonpositive integer) are evaluated as plain
polynomials for any w, before everything else.  c at a nonpositive integer
raises ParameterPole unless the series terminates first.  A non-finite
parameter or argument raises DomainError.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .._exceptions import DomainError, ParameterPole
from .gammafn import digamma, gamma, reciprocal_gamma
from .hyper import _BLOCK, _Table, _finish, _gauss_rows, _reals, _sum_series

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
    smaller degree n, and c exactly at one of 0, -1, ..., 1 - n is a pole,
    where a term divides by zero; otherwise c at a nonpositive integer is
    a pole.
    """
    degrees = [-n for n in (_near_int(a), _near_int(b)) if n is not None and n <= 0]
    if degrees:
        if c.imag == 0.0 and c.real.is_integer() and -min(degrees) < c.real <= 0.0:
            raise ParameterPole(
                f"gauss_2f1 lower parameter {c} hits a pole before the series terminates")
        return min(degrees)
    n = _near_int(c)
    if n is not None and n <= 0:
        raise ParameterPole(f"gauss_2f1 lower parameter {c} is a nonpositive integer")
    return None


# an overflowing term ends as a non-finite value, which _finish reports
@np.errstate(over="ignore", invalid="ignore")
def _poly_f21(a, b, c, z, degree):
    """Terminating series sum_{k=0}^{degree}; z may be scalar or ndarray.
    The sum stops early at its first non-finite value, or at a term that is
    zero in every lane, after which every term is zero."""
    zc = np.asarray(z, dtype=complex)
    total = np.ones_like(zc)
    term = np.ones_like(zc)
    for k in range(degree):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        term = term * ratio * zc
        total = total + term
        if not (term.any() and np.isfinite(total).all()):
            break
    return total


def _maclaurin(a, b, c):
    """The Maclaurin sum of F(a, b; c; z) for |z| <= 1/2, as a function
    series(z, zmax) of a real or complex ndarray z with |z| <= zmax <= 1/2,
    that keeps its ratio table."""
    ra, rb, rc = _reals(a, b, c)
    ratios = _Table(lambda k0: np.array([(ra + k) * (rb + k) / ((rc + k) * (k + 1.0))
                                         for k in range(k0, k0 + _BLOCK)]))

    def series(z, zmax):
        try:
            return _sum_series(ratios, z, rows=_gauss_rows(zmax), what="gauss_2f1 series")
        except ZeroDivisionError:
            raise ParameterPole(
                f"gauss_2f1 lower parameter {c} is a nonpositive integer"
            ) from None

    return series


def _digamma_table(a, b, m):
    """A&S 15.3.11's weights without the log w: psi(n+1) + psi(n+m+1) -
    psi(a+m+n) - psi(b+m+n) for n = 0, 1, ..., as running sums carried
    from block to block."""
    a, b = _reals(a, b)
    carry = (-_EULER_GAMMA, -_EULER_GAMMA + sum(1.0 / j for j in range(1, m + 1)),
             *_reals(digamma(a + m), digamma(b + m)))

    def form(k0):
        nonlocal carry
        psi_n, psi_nm, psi_a, psi_b = carry
        rows = []
        for n in range(k0 + 1, k0 + 1 + _BLOCK):
            rows.append((psi_n + psi_nm - psi_a) - psi_b)
            psi_n += 1.0 / n
            psi_nm += 1.0 / (n + m)
            psi_a += 1.0 / (a + m + (n - 1))
            psi_b += 1.0 / (b + m + (n - 1))
        carry = psi_n, psi_nm, psi_a, psi_b
        return np.array(rows)

    return _Table(form)


def _region(w):
    """The region of w >= 0: 0 at 0, 1 on (0, 1/2), 2 on [1/2, 3/2], 3 beyond."""
    return 0 if w == 0.0 else 1 if w < 0.5 else 2 if w <= 1.5 else 3


class Gauss2F1Plan:
    """F(a, b; c; 1 - w) at fixed parameters: plan(w) for w >= 0, scalar or
    ndarray, gives what gauss_2f1_cm(a, b, c, w) gives.

    A non-finite parameter raises DomainError here; a pole in c raises
    ParameterPole from every call.  What depends only on (a, b, c) is
    formed the first time a call needs it and kept.
    """

    def __init__(self, a, b, c):
        self.a, self.b, self.c = _params(a, b, c)

    def __call__(self, one_minus_z):
        warr = np.asarray(one_minus_z, dtype=float)
        scalar_in = warr.ndim == 0
        w1 = warr.reshape(-1)
        if w1.size:
            # any NaN lane makes both NaN: [nan, -1] fails finiteness, not sign
            lo, hi = float(w1.min()), float(w1.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError("gauss_2f1 needs a finite argument")
            if lo < 0.0:
                raise DomainError("gauss_2f1 argument beyond 1 (negative complement)")
        else:
            lo, hi = 0.0, 1.0       # two regions: the mask path, which returns it empty
        vals = self._at(w1, lo, hi)
        return _finish(vals.reshape(warr.shape), scalar_in, "gauss_2f1")

    @functools.cached_property
    def _degree(self):
        return _terminating_degree(self.a, self.b, self.c)

    @functools.cached_property
    def _m(self):
        return _near_int(self.c - self.a - self.b)

    @functools.cached_property
    def _gauss_sum(self):
        a, b, c = self.a, self.b, self.c
        d = c - a - b
        if d.real <= 0.0:
            raise DomainError(
                f"gauss_2f1 at z=1 needs Re(c-a-b) > 0, got {d.real}"
            )
        return gamma(c) * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)

    @functools.cached_property
    def _series(self):
        return _maclaurin(self.a, self.b, self.c)

    @functools.cached_property
    def _generic(self):
        """A&S 15.3.6's exponent, prefactors and series, noninteger c-a-b."""
        a, b, c = self.a, self.b, self.c
        d = c - a - b
        p1 = gamma(c) * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
        p2 = gamma(c) * gamma(-d) * reciprocal_gamma(a) * reciprocal_gamma(b)
        return (d, p1, _maclaurin(a, b, a + b - c + 1.0),
                p2, _maclaurin(c - a, c - b, d + 1.0))

    @functools.cached_property
    def _log(self):
        """A&S 15.3.11's series tables and prefactors, c = a + b + m, m >= 0."""
        a, b, c, m = self.a, self.b, self.c, self._m
        ra, rb = _reals(a, b)
        ratios = _Table(lambda k0: np.array([(ra + m + k) * (rb + m + k) / ((k + 1) * (k + 1 + m))
                                             for k in range(k0, k0 + _BLOCK)]))
        p_ser = gamma(c) * reciprocal_gamma(a) * reciprocal_gamma(b)
        p_fin = (gamma(float(m)) * gamma(c) * reciprocal_gamma(a + m) * reciprocal_gamma(b + m)
                 if m else None)
        return ratios, _digamma_table(a, b, m), p_ser, p_fin

    @functools.cached_property
    def _euler(self):
        a, b, c = self.a, self.b, self.c
        return c - a - b, Gauss2F1Plan(c - a, c - b, c)

    @functools.cached_property
    def _pfaff(self):
        a, b, c = self.a, self.b, self.c
        aa, bb = (a, b) if a.real <= b.real else (b, a)
        return aa, Gauss2F1Plan(aa, c - bb, c)

    def _connect_generic(self, w, hi):
        """A&S 15.3.6 for noninteger c-a-b, argument complement w in (0, hi]."""
        d, p1, series1, p2, series2 = self._generic
        out = np.zeros(w.shape, dtype=complex)
        if p1 != 0.0:
            out += p1 * series1(w, hi)
        if p2 != 0.0:
            out += p2 * np.exp(d * np.log(w)) * series2(w, hi)
        return out

    def _connect_log(self, w, hi):
        """A&S 15.3.11: c = a + b + m with integer m >= 0, w in (0, hi], hi < 1/2.

        At m = 0 the finite part is empty and this is A&S 15.3.10, term for
        term: the series is summed with 15.3.10's sign and weight (psi_nm
        equals psi_n there), and 15.3.11's -(-1)^m is folded into (-w)^m.
        """
        m = self._m
        ratios, psi, p_ser, p_fin = self._log
        logw = np.log(w)
        rows = _gauss_rows(hi)
        total = _sum_series(
            ratios, w, _Table(lambda k0: psi.take(k0, rows)[:, None] - logw, rows),
            first=1.0 / math.factorial(m), rows=rows, what="gauss_2f1 logarithmic series")
        if m == 0:
            return p_ser * total
        # finite part: Gamma(m) Gamma(c) / (Gamma(a+m) Gamma(b+m)) *
        #              sum_{n=0}^{m-1} (a)_n (b)_n / (n! (1-m)_n) w^n
        finite = _poly_f21(self.a, self.b, 1.0 - m, w, m - 1)
        return p_fin * finite + p_ser * (-w) ** m * total

    def _at(self, w, lo, hi):
        """Dispatcher over the complement w = 1 - z; w a 1-D float64 ndarray >= 0
        whose smallest and largest lanes are lo and hi.  Each region is an
        interval of w, so when lo and hi lie in one, the whole array is that
        region's, with no mask; otherwise each region's lanes go on alone."""
        degree = self._degree
        if degree is not None:
            return _poly_f21(self.a, self.b, self.c, 1.0 - w, degree)
        region = _region(lo)
        if region != _region(hi):
            out = np.empty(w.shape, dtype=complex)
            for mask in (w == 0.0, (w >= 0.5) & (w <= 1.5), (w > 0.0) & (w < 0.5), w > 1.5):
                if mask.any():
                    part = w[mask]
                    out[mask] = self._at(part, float(part.min()), float(part.max()))
            return out
        if region == 0:
            return np.full(w.shape, self._gauss_sum, dtype=complex)
        if region == 2:
            return self._series(1.0 - w, max(1.0 - lo, hi - 1.0))
        if region == 3:
            aa, inner = self._pfaff
            return np.exp(-aa * np.log(w)) * inner._at(1.0 / w, 1.0 / hi, 1.0 / lo)
        mi = self._m
        if mi is None:
            return self._connect_generic(w, hi)
        if mi >= 0:
            return self._connect_log(w, hi)
        # Euler transformation flips c-a-b to -mi >= 1
        d, inner = self._euler
        return np.exp(d * np.log(w)) * inner._at(w, lo, hi)


def gauss_2f1_at_one(a, b, c) -> complex:
    """F(a,b;c;1) by the Gauss summation theorem.

    Terminating cases go through the Chu-Vandermonde polynomial; otherwise
    Re(c-a-b) > 0 is required for the limit to exist.
    """
    return Gauss2F1Plan(a, b, c)(0.0)


def gauss_2f1_cm(a, b, c, one_minus_z):
    """F(a,b;c;z) evaluated from the complement w = 1 - z (w >= 0).

    Passing w directly keeps full precision when z is exponentially close
    to 1, which is where the catalog's endpoint-singular integrands live.
    A caller that evaluates one (a, b, c) many times builds a
    Gauss2F1Plan once instead.
    """
    return Gauss2F1Plan(a, b, c)(one_minus_z)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric F(a,b;c;z) for real z <= 1 (scalar or ndarray).

    Where every |z| <= 1/2, real or complex, the Maclaurin series is summed
    in z itself; everywhere else the argument must be real and goes to the
    plan as w = 1 - z.  z > 1 raises DomainError, z = 1 requires
    Re(c-a-b) > 0 unless the series terminates.
    """
    plan = Gauss2F1Plan(a, b, c)
    zarr = np.asarray(z)
    zmax = float(np.abs(zarr).max(initial=0.0))
    if zmax <= 0.5:
        # the Maclaurin sum in z itself: w = 1 - z would round a z below 1.1e-16 to 0
        degree = plan._degree
        vals = (_poly_f21(plan.a, plan.b, plan.c, zarr, degree) if degree is not None
                else plan._series(zarr.reshape(-1), zmax).reshape(zarr.shape))
        return _finish(vals, zarr.ndim == 0, "gauss_2f1")
    if np.any(zarr.imag != 0.0):
        raise DomainError("complex gauss_2f1 argument supported only for |z| <= 1/2")
    return plan(1.0 - np.asarray(zarr.real, dtype=float))
