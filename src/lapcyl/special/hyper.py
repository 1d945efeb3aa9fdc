"""Kummer Phi(a;b;z), the generalized 2F2 series, and the one series
driver that every hypergeometric sum in this subpackage goes through.

_sum_series adds c_k w_k for k = 0, 1, ..., where the caller supplies c_0
and the term recurrence c_{k+1} = step(c_k, k), plus optionally a stream of
weights w_k (the logarithmic Gauss series carry digamma sums there).  The
accumulation is Kahan compensated.  The sum stops once the last three terms
of every lane were at most _REL_TAIL_TOL times the running sum, which guards
against stopping inside the pre-asymptotic dip that confluent series show
for large positive arguments; _MAX_TERMS terms without settling raise
NonConvergence.

Phi is also available in a scaled form (value, log_scale) because the
parabolic cylinder evaluations need Phi at z = x^2/2 with x up to 40,
where the unscaled sum would overflow double precision.  The driver
renormalizes by _RESCALE whenever the sum or the term grows past it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .._exceptions import DomainError, NonConvergence, ParameterPole
from .gammafn import _finite, is_nonpositive_integer

_MAX_TERMS = 10000
_REL_TAIL_TOL = 1e-16
_TINY = 1e-300
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)


def _sum_series(first, step, weights=None, *, what, rescale=False):
    """Kahan sum of c_k w_k with c_0 = first and c_{k+1} = step(c_k, k).

    `first` is a complex scalar or a complex ndarray of independent lanes;
    `weights` is an iterator of w_k (all ones when None); `what` names the
    series in the NonConvergence message.  A lane whose sum went
    non-finite counts as settled, so an overflow ends the loop and is left
    to the caller's finiteness check.  With `rescale` (scalars only) the
    state is divided by _RESCALE whenever it outgrows it.  Returns
    (total, log_scale): the sum is total * exp(log_scale).
    """
    if isinstance(first, np.ndarray):
        total = comp = np.zeros_like(first)

        def negligible(term, total):
            return not (np.abs(term) > _REL_TAIL_TOL * np.maximum(np.abs(total), _TINY)).any()
    else:
        total = comp = 0j

        def negligible(term, total):
            return not abs(term) > _REL_TAIL_TOL * max(abs(total), _TINY)
    coef = first
    scale = 0.0
    streak = 0
    for k in range(_MAX_TERMS):
        term = coef if weights is None else coef * next(weights)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if negligible(term, total):
            streak += 1
            if streak == 3:
                return total, scale
        else:
            streak = 0
        if rescale and (abs(total) > _RESCALE or abs(coef) > _RESCALE):
            total /= _RESCALE
            coef /= _RESCALE
            comp /= _RESCALE
            scale += _LOG_RESCALE
        coef = step(coef, k)
    raise NonConvergence(f"{what} did not settle within {_MAX_TERMS} terms")


def phi_scaled(a, b, z):
    """Kummer Phi(a;b;z) as (value, log_scale): Phi = value * exp(log_scale)."""
    a, b, z = (_finite(v, "kummer_phi") for v in (a, b, z))
    if is_nonpositive_integer(b):
        raise ParameterPole(f"kummer_phi denominator parameter {b} is a nonpositive integer")
    return _sum_series(1.0 + 0.0j,
                       lambda t, k: t * ((a + k) * z / ((b + k) * (k + 1.0))),
                       rescale=True, what="kummer_phi series")


def kummer_phi(a, b, z) -> complex:
    """Kummer's confluent hypergeometric function Phi(a;b;z) = 1F1(a;b;z).

    Raises OverflowError when |Phi| exceeds double precision range.
    """
    value, scale = phi_scaled(a, b, z)
    if scale == 0.0:
        return value
    try:
        value *= cmath.exp(scale)
    except OverflowError:
        value = cmath.inf
    if not cmath.isfinite(value):
        raise OverflowError(
            "kummer_phi magnitude exceeds double precision range; "
            "use phi_scaled for the (value, log_scale) form"
        )
    return value


def hyp_2f2(a1, a2, b1, b2, z):
    """2F2(a1,a2;b1,b2;z) for scalar or ndarray argument (entire in z)."""
    a1, a2, b1, b2 = (_finite(v, "hyp_2f2") for v in (a1, a2, b1, b2))
    for b in (b1, b2):
        if is_nonpositive_integer(b):
            raise ParameterPole(f"hyp_2f2 denominator parameter {b} is a nonpositive integer")
    zarr = np.asarray(z)
    zc = np.atleast_1d(zarr).astype(complex)
    if not np.isfinite(zc).all():
        raise DomainError("hyp_2f2 needs a finite argument")
    # an overflowing sum ends as a non-finite lane, reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        total, _ = _sum_series(
            np.ones_like(zc),
            lambda t, k: t * ((a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1.0))) * zc,
            what="hyp_2f2 series")
    if not np.all(np.isfinite(total)):
        raise NonConvergence("hyp_2f2 produced a non-finite value")
    if zarr.ndim == 0:
        return complex(total[0])
    return total.reshape(zarr.shape)
