"""Kummer Phi(a;b;z), the generalized 2F2 series, and the one series
driver that every hypergeometric sum in this subpackage goes through.

_sum_series adds c_k w_k for k = 0, 1, ... over the lanes of an argument
array z, where c_0 = first and c_{k+1} = c_k * r_k * z, plus optionally
weights w_k (the logarithmic Gauss series carry digamma sums there).  The
r_k and w_k come from _Tables, which form each block of rows once and
serve it to every later sum: the Gauss 2F1 plans keep theirs across
calls, and 2F2 and Phi build theirs per call.  The sum is float64 when z,
the tables and c_0 are real, which is the arithmetic of the real parts of
the complex sum, bit for bit, at a third of the cost of complex
magnitudes; callers form real tables from parameters with no imaginary
part (_reals).  A sum's first step takes as many terms as its largest
argument predicts, so most sums take one step; each later step runs to
the end of its table block, and no step outgrows about _STEP_ELEMS rows
times lanes.  2F1 tables have _BLOCK rows formed in Python scalar
arithmetic, for parameters whose plan has already ruled out a pole;
2F2 and Phi, which check for poles up front too, form blocks of the
predicted length, Phi's in numpy (complex ones in Python arithmetic, as numpy's
complex ufuncs round differently).  In a step,
np.multiply.accumulate turns the ratios into terms and np.add.accumulate
gives the running sums: the ufuncs that np.cumprod and np.cumsum wrap,
called without the wrappers, so the order and the bits are the same.  The
sum stops at the first term at which the last three terms of every lane
were at most _REL_TAIL_TOL times the running sum, which guards against
stopping inside the pre-asymptotic dip that confluent series show for
large positive arguments; _MAX_TERMS terms without settling raise
NonConvergence.  The summation is Sum2 of Ogita, Rump and Oishi (SIAM J.
Sci. Comput. 26, 2005): the accumulated partial sums are exact sequential
sums, so TwoSum recovers each one's rounding error for the whole step at
once, and the errors are carried across steps.

Phi is also available in a scaled form (value, log_scale) because the
parabolic cylinder evaluations need Phi at z = x^2/2 with x up to 40,
where the unscaled sum would overflow double precision.  A scaled sum
ends its step at the first term at which a term or a running sum passes
_RESCALE, divides the sum, its error and that term by _RESCALE, and
carries on from the scaled term; terms formed past it may overflow, and
are dropped.  Phi folds z into its ratios and sums one lane of 1, so each
term is the product (a+k) z / ((b+k)(k+1)) of the scalar recurrence.  At
Re z < 0 it applies Kummer's transformation and sums the series at -z.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .._exceptions import DomainError, NonConvergence, ParameterPole
from .gammafn import _finite, is_nonpositive_integer

_BLOCK = 16
_STEP_ELEMS = 8192
_MAX_TERMS = 10000
_REL_TAIL_TOL = 1e-16
_TINY = 1e-300
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_LOG_TAIL = math.log(_REL_TAIL_TOL)
_ONE_LANE = np.ones(1)


class _Table:
    """Per-term values of one series, formed `rows` rows at a time.

    Sums reach the rows in order.  The block at row k0 is `form(k0)`,
    formed the first time a sum reaches it and kept for every later sum;
    a block whose forming raises is not kept, so it raises again on the
    next sum that reaches it.
    """

    def __init__(self, form, rows=_BLOCK):
        self._form = form
        self.rows = rows
        self._formed = ()               # the blocks so far, end to end

    def take(self, k, n):
        """Rows k .. k+n-1, across blocks."""
        formed = self._formed
        while len(formed) < k + n:
            block = self._form(len(formed))
            formed = self._formed = np.concatenate((formed, block)) if len(formed) else block
        return formed[k:k + n]

    def block(self, i):
        return self.take(self.rows * i, self.rows)


def _confluent_rows(zmax):
    """First-step rows at |z| <= zmax: a 1F1 or 2F2 sum takes about
    zmax + 8.5 sqrt(zmax) + 14 terms."""
    return min(int(zmax + 10.0 * math.sqrt(zmax)) + 24, _MAX_TERMS)


def _gauss_rows(zmax):
    """First-step rows at |z| <= zmax <= 1/2: a 2F1 sum's terms fall
    about as zmax^k, below _REL_TAIL_TOL after log(_REL_TAIL_TOL) / log(zmax)."""
    return int(_LOG_TAIL / math.log(min(max(zmax, _TINY), 0.5))) + 4


def _reals(*values):
    """The complex `values` as floats when none has an imaginary part, so
    that the tables formed from them are float64; else unchanged."""
    if any([v.imag for v in values]):
        return values
    return [v.real for v in values]


def _sum_series(ratios, z, weights=None, *, first=1.0, scaled=False, rows=None, what):
    """Sum2 of c_k w_k with c_0 = first and c_{k+1} = c_k * r_k * z.

    `z` is a 1-D ndarray of independent lanes and `ratios` the _Table
    of the scalar r_k.  `weights` is a _Table whose rows hold w_k by the
    lanes (all ones when None); `what` names the series in the
    NonConvergence message.  Steps end at row `rows` (one table block
    when None), then at each block's end, and none takes more than `cap`
    rows.  The sum comes back as a complex ndarray, formed in float64
    when z, both tables and `first` are real; with `scaled` it is
    (value, log_scale), the sum being value * exp(log_scale).  A lane
    whose sum went non-finite counts as settled, so an overflow ends the
    loop and is left to the caller's finiteness check.
    """
    dtype = np.result_type(z, first, ratios.block(0), 1.0 if weights is None else weights.block(0))
    total = comp = 0.0
    coef = first
    scale = 0.0
    streak = 0
    k = 0
    end = rows or ratios.rows
    # a step over about _STEP_ELEMS rows x lanes outgrows the cache and runs slower
    cap = max(_BLOCK, _STEP_ELEMS // max(z.size, 1))
    while k < _MAX_TERMS:
        r = ratios.take(k, min(end, k + cap, _MAX_TERMS) - k)
        n = len(r)
        # row 1 carries c_k in and row j > 1 is the step to c_(k+j-1), so
        # that rows 1.. accumulate to c_k .. c_(k+n); then row 0 carries the
        # running sum in, and rows 0..n are the sum and the terms to add
        buf = np.empty((n + 2, z.size), dtype=dtype)
        buf[1] = coef
        np.multiply(r[:, None], z, out=buf[2:])
        coefs = np.multiply.accumulate(buf[1:], axis=0, out=buf[1:])
        buf[0] = total
        terms = buf[:-1]
        if weights is not None:
            terms = np.concatenate((buf[:1], coefs[:n] * weights.take(k, n)))
        sums = np.add.accumulate(terms, axis=0)
        mags, sum_mags = np.abs(terms[1:]), np.abs(sums[1:])
        over = False
        if scaled:
            # the step ends at the first term at which a term or a sum of
            # some lane passes _RESCALE
            at = (np.maximum(mags, sum_mags) > _RESCALE).tobytes().find(1)
            if at >= 0:
                n, over = at // z.size + 1, True
        # a byte per row, 0 where the terms of all lanes are negligible: the
        # sum stops at the third 0 in a run, counted across steps
        big = mags[:n] > _REL_TAIL_TOL * np.maximum(sum_mags[:n], _TINY)
        if z.size != 1:
            big = big.any(axis=1)
        run = b"\0" * streak + big.tobytes()
        stop = run.find(b"\0\0\0")
        used = n if stop < 0 else stop + 3 - streak
        # TwoSum error of each partial sum sums[j] = sums[j-1] + terms[j]
        prev, cur, x = sums[:used], sums[1:used + 1], terms[1:used + 1]
        back = cur - prev
        comp = comp + np.add.reduce((prev - (cur - back)) + (x - back), axis=0)
        total = cur[-1]
        if stop >= 0:
            value = (total + comp).astype(complex, copy=False)
            return (value, scale) if scaled else value
        streak = len(run) - len(run.rstrip(b"\0"))
        coef = coefs[used]
        k += used
        end = max(end, (k // ratios.rows + 1) * ratios.rows)
        if over:
            # carry on from the scaled term at the crossing
            total, comp = total / _RESCALE, comp / _RESCALE
            coef = coefs[used - 1] / _RESCALE * (r[used - 1] * z)
            scale += _LOG_RESCALE
    raise NonConvergence(f"{what} did not settle within {_MAX_TERMS} terms")


# terms formed past a rescale may overflow; the driver drops them
@np.errstate(over="ignore", invalid="ignore")
def phi_scaled(a, b, z):
    """Kummer Phi(a;b;z) as (value, log_scale): Phi = value * exp(log_scale)."""
    a, b, z = (_finite(v, "kummer_phi") for v in (a, b, z))
    if is_nonpositive_integer(b):
        raise ParameterPole(f"kummer_phi denominator parameter {b} is a nonpositive integer")
    if z.real < 0.0:
        # Kummer's transformation (DLMF 13.2.39), Phi(a;b;z) = e^z Phi(b-a;b;-z):
        # the series at -z does not cancel down to e^z, and Re z joins the scale
        value, scale = phi_scaled(b - a, b, -z)
        return value * cmath.exp(1j * z.imag), scale + z.real
    a, b, z = _reals(a, b, z)
    rows = _confluent_rows(abs(z))

    def form(k0):
        if isinstance(z, complex):
            # numpy's complex multiply and divide round unlike Python's
            return np.array([(a + k) * z / ((b + k) * (k + 1.0)) for k in range(k0, k0 + rows)])
        k = np.arange(k0, k0 + rows + 1.0)
        return (a + k[:-1]) * z / ((b + k[:-1]) * k[1:])

    value, scale = _sum_series(_Table(form, rows), _ONE_LANE, scaled=True,
                               what="kummer_phi series")
    return complex(value[0]), scale


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


def _finish(values, scalar_in, name):
    """An array-valued series' result: NonConvergence if any lane is not
    finite, else a complex for scalar input and the array otherwise."""
    if not np.isfinite(values).all():
        raise NonConvergence(f"{name} produced a non-finite value")
    if scalar_in:
        return complex(values.reshape(-1)[0])
    return values


# an overflowing sum ends as a non-finite lane, reported below
@np.errstate(over="ignore", invalid="ignore")
def hyp_2f2(a1, a2, b1, b2, z):
    """2F2(a1,a2;b1,b2;z) for scalar or ndarray argument (entire in z)."""
    a1, a2, b1, b2 = (_finite(v, "hyp_2f2") for v in (a1, a2, b1, b2))
    for b in (b1, b2):
        if is_nonpositive_integer(b):
            raise ParameterPole(f"hyp_2f2 denominator parameter {b} is a nonpositive integer")
    a1, a2, b1, b2 = _reals(a1, a2, b1, b2)
    zarr = np.asarray(z)
    z1 = zarr.astype(complex if np.iscomplexobj(zarr) else float).reshape(-1)
    if not np.isfinite(z1).all():
        raise DomainError("hyp_2f2 needs a finite argument")
    rows = _confluent_rows(float(np.abs(z1).max(initial=0.0)))
    total = _sum_series(
        _Table(lambda k0: np.array([(a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1.0))
                                    for k in range(k0, k0 + rows)]), rows),
        z1, what="hyp_2f2 series")
    return _finish(total.reshape(zarr.shape), zarr.ndim == 0, "hyp_2f2")
