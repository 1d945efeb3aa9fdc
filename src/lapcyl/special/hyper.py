"""Kummer Phi(a;b;z), the generalized 2F2 series, and the one series
driver that every array hypergeometric sum in this subpackage goes through.

_sum_series adds c_k w_k for k = 0, 1, ... over the lanes of an argument
array z, where c_0 = first and c_{k+1} = c_k * ratio(k) * z, plus
optionally a stream of weights w_k (the logarithmic Gauss series carry
digamma sums there).  It advances _BLOCK terms per step: the block's ratios
are formed in Python scalar arithmetic, so a pole in the term ratio raises
ZeroDivisionError, and one cumprod turns them into the block's terms.  The
sum stops at the first term at which the last three terms of every lane
were at most _REL_TAIL_TOL times the running sum, which guards against
stopping inside the pre-asymptotic dip that confluent series show for large
positive arguments.  That test runs once per block on the block's running
cumsum; only the terms up to the stop are summed, and _MAX_TERMS terms
without settling raise NonConvergence.  The summation is Sum2 of Ogita,
Rump and Oishi (SIAM J. Sci. Comput. 26, 2005): the cumsum's partial sums
are exact sequential sums, so TwoSum recovers each one's rounding error
for the whole block at once, and the errors are carried across blocks.

Phi is also available in a scaled form (value, log_scale) because the
parabolic cylinder evaluations need Phi at z = x^2/2 with x up to 40,
where the unscaled sum would overflow double precision.  Its scalar series
is summed term by term, Kahan compensated under the same stopping rule,
and renormalized by _RESCALE whenever the sum or the term grows past it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .._exceptions import DomainError, NonConvergence, ParameterPole
from .gammafn import _finite, is_nonpositive_integer

_BLOCK = 16
_MAX_TERMS = 10000
_REL_TAIL_TOL = 1e-16
_TINY = 1e-300
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)


def _sum_series(ratio, z, weights=None, *, first=1.0, what):
    """Sum2 of c_k w_k with c_0 = first and c_{k+1} = c_k * ratio(k) * z.

    `z` is a 1-D ndarray of independent lanes and `ratio(k)` a scalar.
    `weights` is an iterator that yields each block's w_k as an array of
    _BLOCK rows by the lanes (all ones when None); `what` names the
    series in the NonConvergence message.  A lane whose sum went
    non-finite counts as settled, so an overflow ends the loop and is left
    to the caller's finiteness check.
    """
    total = comp = np.zeros(z.shape, dtype=complex)
    coef = first
    streak = 0
    for k0 in range(0, _MAX_TERMS, _BLOCK):
        n = min(_BLOCK, _MAX_TERMS - k0)
        # row 0 carries c_k0 in; row j > 0 is the step to c_(k0+j)
        steps = np.empty((n + 1, z.size), dtype=complex)
        steps[0] = coef
        steps[1:] = np.array([ratio(k) for k in range(k0, k0 + n)])[:, None] * z
        coefs = np.cumprod(steps, axis=0)
        coef = coefs[n]
        # row 0 carries the running sum in; rows 1..n hold the terms
        terms = np.empty_like(steps)
        terms[0] = total
        terms[1:] = coefs[:n] if weights is None else coefs[:n] * next(weights)[:n]
        sums = np.cumsum(terms, axis=0)
        big = np.abs(terms[1:]) > _REL_TAIL_TOL * np.maximum(np.abs(sums[1:]), _TINY)
        used = n
        for j, small in enumerate((~big.any(axis=1)).tolist()):
            streak = streak + 1 if small else 0
            if streak == 3:
                used = j + 1
                break
        # TwoSum error of each partial sum sums[j] = sums[j-1] + terms[j]
        prev, cur, x = sums[:used], sums[1:used + 1], terms[1:used + 1]
        back = cur - prev
        comp = comp + ((prev - (cur - back)) + (x - back)).sum(axis=0)
        total = cur[-1]
        if streak == 3:
            return total + comp
    raise NonConvergence(f"{what} did not settle within {_MAX_TERMS} terms")


def phi_scaled(a, b, z):
    """Kummer Phi(a;b;z) as (value, log_scale): Phi = value * exp(log_scale)."""
    a, b, z = (_finite(v, "kummer_phi") for v in (a, b, z))
    if is_nonpositive_integer(b):
        raise ParameterPole(f"kummer_phi denominator parameter {b} is a nonpositive integer")
    total = comp = 0j
    term = 1.0 + 0.0j
    scale = 0.0
    streak = 0
    for k in range(_MAX_TERMS):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        streak = 0 if abs(term) > _REL_TAIL_TOL * max(abs(total), _TINY) else streak + 1
        if streak == 3:
            return total, scale
        if abs(total) > _RESCALE or abs(term) > _RESCALE:
            total /= _RESCALE
            term /= _RESCALE
            comp /= _RESCALE
            scale += _LOG_RESCALE
        term *= (a + k) * z / ((b + k) * (k + 1.0))
    raise NonConvergence(f"kummer_phi series did not settle within {_MAX_TERMS} terms")


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
    zc = zarr.astype(complex).reshape(-1)
    if not np.isfinite(zc).all():
        raise DomainError("hyp_2f2 needs a finite argument")
    # an overflowing sum ends as a non-finite lane, reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        total = _sum_series(
            lambda k: (a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1.0)), zc,
            what="hyp_2f2 series")
    if not np.all(np.isfinite(total)):
        raise NonConvergence("hyp_2f2 produced a non-finite value")
    if zarr.ndim == 0:
        return complex(total[0])
    return total.reshape(zarr.shape)
