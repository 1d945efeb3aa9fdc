"""Appell F1 via its one-dimensional Euler integral.

Valid for Re c > Re a > 0 and both arguments with real part < 1 (away
from the cut [1, inf)).  That region covers every use in this package;
anything else raises DomainError rather than returning something wrong.
"""

from __future__ import annotations

import numpy as np

from .._exceptions import DomainError
from ..quad import QuadratureSpec, integrate_finite
from .gammafn import _finite, gamma, reciprocal_gamma

__all__ = ["appell_f1"]


def appell_f1(a, b1, b2, c, z1, z2) -> complex:
    """F1(a; b1, b2; c; z1, z2), the first Appell hypergeometric function."""
    a, b1, b2, c, z1, z2 = (_finite(v, "appell_f1") for v in (a, b1, b2, c, z1, z2))
    if not (c.real > a.real > 0.0):
        raise DomainError(
            f"appell_f1 integral form needs Re c > Re a > 0, got a={a}, c={c}")
    for z in (z1, z2):
        if z.imag == 0.0 and z.real >= 1.0:
            raise DomainError(f"appell_f1 argument {z} lies on the cut [1, inf)")

    am1 = a - 1.0
    cam1 = c - a - 1.0

    def f(u, d_lo, d_hi):
        # d_lo = u, d_hi = 1-u to full precision at both endpoints
        lo_pow = np.exp(am1 * np.log(d_lo))
        hi_pow = np.exp(cam1 * np.log(d_hi))
        return (lo_pow * hi_pow
                * (1.0 - z1 * u) ** (-b1)
                * (1.0 - z2 * u) ** (-b2))

    spec = QuadratureSpec(
        lower=0.0, upper=1.0,
        exponent_at_lower=max(am1.real, -0.999),
        exponent_at_upper=max(cam1.real, -0.999),
        rel_tol=1e-12, abs_tol=1e-15,
    )
    res = integrate_finite(f, spec, distance_form=True)
    pref = gamma(c) * reciprocal_gamma(a) * reciprocal_gamma(c - a)
    out = pref * res.value
    return complex(out.real, 0.0) if out.imag == 0.0 else out   # -0.0 becomes +0.0
