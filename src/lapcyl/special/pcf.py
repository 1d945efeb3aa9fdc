"""Parabolic cylinder function D_nu(z) in Whittaker's normalization.

For real z < 3 (_SERIES_MAX_REAL_Z), for every complex z and for every
complex order it is built directly from the two confluent series

  D_nu(z) = 2^{nu/2} e^{-z^2/4} [  sqrt(pi)/Gamma((1-nu)/2) Phi(-nu/2; 1/2; z^2/2)
                                  - sqrt(2 pi) z / Gamma(-nu/2) Phi((1-nu)/2; 3/2; z^2/2) ]

with the reciprocal gammas evaluated as entire functions, so orders where
one prefactor sits on a pole (even or odd nonnegative integers) come out
right without special casing.  The series are summed in scaled form and
the e^{-z^2/4} damping is folded into the exponent before exponentiating.

For real z >= 3 the two series cancel to roughly e^{-z^2/2} of their own
size, so that route decays to ~6 correct digits by z = 6 and none by
z = 10.  There the function switches to the integral form

  D_nu(z) = e^{-z^2/4} / Gamma(1-nu) * int_0^inf t^{-nu} (t+z) e^{-t^2/2 - z t} dt

(valid for nu < 1; positive integrand, no cancellation), its t^{-nu},
1/Gamma(1-nu) and Gaussian taken as one exponential so that none leaves
double range on its own.  For nu >= 1 it climbs D_{m+1}(z) = z D_m(z) -
m D_{m-1}(z) from D_{m-1} and D_m, m = frac(nu), whose integrals share
range, decay and factor (t+z): one two-component quadrature gives both.
The climb raises OverflowError at its first value beyond double range.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .._exceptions import DomainError
from ..quad import QuadratureSpec, integrate_semi_infinite
from .gammafn import _finite, reciprocal_gamma
from .hyper import phi_scaled

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_MAX_ABS_Z = 40.0
# above this the even/odd cancellation costs more digits than the
# integral route's quadrature error, measured against a 25-digit oracle
_SERIES_MAX_REAL_Z = 3.0


def _pcf_series(nu: complex, z: complex) -> complex:
    half_sq = 0.5 * z * z
    quarter_sq = 0.25 * z * z
    v_even, s_even = phi_scaled(-0.5 * nu, 0.5, half_sq)
    v_odd, s_odd = phi_scaled(0.5 * (1.0 - nu), 1.5, half_sq)
    c_even = _SQRT_PI * reciprocal_gamma(0.5 * (1.0 - nu))
    c_odd = -_SQRT_2 * _SQRT_PI * z * reciprocal_gamma(-0.5 * nu)
    even = c_even * v_even * cmath.exp(s_even - quarter_sq) if c_even != 0.0 else 0.0
    odd = c_odd * v_odd * cmath.exp(s_odd - quarter_sq) if c_odd != 0.0 else 0.0
    return cmath.exp(0.5 * nu * math.log(2.0)) * (even + odd)


def _pcf_integral(orders, z: float) -> list[float]:
    # every order < 1, z > 0; caller guarantees both.  The orders share
    # one integral, one component each
    nus = np.array(orders, dtype=float)[:, None]
    lgs = np.array([math.lgamma(1.0 - nu) for nu in orders])[:, None]

    @np.errstate(divide="ignore", over="ignore")
    def f(t):
        return np.exp(-nus * np.log(t) - lgs - t * (0.5 * t + z)) * (t + z)

    spec = QuadratureSpec(
        lower=0.0, upper=math.inf,
        exponent_at_lower=-max(orders),
        decay_rate=z,
        rel_tol=1e-13, abs_tol=1e-305,
    )
    res = integrate_semi_infinite(f, spec)
    damp = math.exp(-0.25 * z * z)
    return [damp * float(v.real) for v in res.value]


def _pcf_large_real(nu: float, z: float) -> float:
    if nu < 1.0:
        return _pcf_integral((nu,), z)[0]
    steps = math.floor(nu)
    m = nu - steps          # in [0, 1)
    d_prev, d_cur = _pcf_integral((m - 1.0, m), z)
    for _ in range(steps):
        d_prev, d_cur = d_cur, z * d_cur - m * d_prev
        if not math.isfinite(d_cur):
            raise OverflowError("pcf_d magnitude exceeds double precision range")
        m += 1.0
    return d_cur


def pcf_d(nu, z) -> complex:
    """D_nu(z) for complex order nu and |z| <= 40."""
    nu, z = _finite(nu, "pcf_d"), _finite(z, "pcf_d")
    if abs(z) > _MAX_ABS_Z:
        raise DomainError(
            f"pcf_d argument magnitude {abs(z):.3g} above the supported range {_MAX_ABS_Z}"
        )
    if nu == 0.0:
        # the even series collapses to 1 and the odd prefactor vanishes
        return cmath.exp(-0.25 * z * z)
    if z.imag == 0.0 and nu.imag == 0.0 and z.real >= _SERIES_MAX_REAL_Z:
        return complex(_pcf_large_real(nu.real, z.real))
    return _pcf_series(nu, z)
