"""Adaptive Gauss-Kronrod quadrature for endpoint-singular integrands.

The building block is the nested 7/15 pair: the 15-point Kronrod value is
the estimate, |K15 - G7| the (deliberately conservative) panel error.
Worst panel first, split in half, deterministic tie-break by creation
order, so repeated runs produce bit-identical results.

Endpoint singularities t^lambda with -1 < lambda < 0 are removed by the
power substitution t = a + (m-a) u^{1/(1+lambda)} on the half interval
next to the endpoint (identity map for lambda >= 0, where the
substitution would only de-smooth the integrand).  Gauss-Kronrod nodes
are strictly interior, so the integrand is never evaluated at an endpoint.

Integrands are called with a float64 array of n abscissae and must return
array values (complex or real): shape (n,) for one integral, or (m, n)
for m integrals over the same range that share every integrand call,
such as one original against m Laplace kernels.  Each of the m
components keeps its own target max(rel_tol |I_j|, abs_tol), its own
error estimate and its own converged flag; refinement stops only when
every component meets its target, and splits first the panel with the
largest err_j / target_j over its components.  Catalog integrands
additionally receive the exact displacements from both endpoints
(``distance_form=True``), which keeps factors like (x-t)^{-3/4} fully
accurate when the adaptive refinement pushes t within an ulp of x; the
public entry points keep the plain f(t) signature and wrap it.

Semi-infinite ranges are covered by a substituted first panel, then
panels of width 1/decay_rate (the slowest decay over the components)
marched until two consecutive panels contribute below a tenth of every
component's target for the running total, then one final panel mapped
through t = T + u/(1-u); everything lands in the same refinement queue.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._exceptions import NonConvergence

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_finite",
    "integrate_semi_infinite",
]

# QUADPACK dqk15 abscissae and weights, to full double precision (the
# tables of scipy.integrate's gk15 rule)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
_WEIGHTS_K = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WEIGHTS_G = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])

_MIN_PANEL_WIDTH = 1e-15
_TAIL_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Description of one integral: range, endpoint exponents, tolerances.

    exponent_at_lower/upper: the leading power lambda of the integrand at
    that endpoint (integrand ~ |t - endpoint|^lambda); must be > -1.
    decay_rate: e^{-ct} scale of the tail for semi-infinite ranges (panel
    width is its reciprocal); 0 means "no hint".
    """

    lower: float
    upper: float
    exponent_at_lower: float = 0.0
    exponent_at_upper: float = 0.0
    decay_rate: float = 0.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not math.isfinite(self.lower):
            raise ValueError("lower endpoint must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not self.exponent_at_lower > -1.0:
            raise ValueError(f"exponent_at_lower must be > -1, got {self.exponent_at_lower}")
        if not self.exponent_at_upper > -1.0:
            raise ValueError(f"exponent_at_upper must be > -1, got {self.exponent_at_upper}")
        if self.decay_rate < 0.0:
            raise ValueError("decay_rate must be >= 0")
        if not self.rel_tol >= 1e-13:
            raise ValueError(f"rel_tol must be >= 1e-13, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """One integral's outcome.

    For an integrand that returns an (m, n) array, value, error_estimate
    and converged are length-m arrays, one entry per component; for a
    plain (n,) integrand they are scalars.  evaluations counts abscissae,
    each once however many components the integrand returns.
    """

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


def _wrap(f, distance_form):
    if distance_form:
        return f
    return lambda t, d_lo, d_hi: f(t)


def _gk15(y, h):
    """K15 value and |K15 - G7| of one component's 15 node values."""
    if not np.all(np.isfinite(y)):
        return 0.0 + 0.0j, math.inf
    k15 = h * np.dot(_WEIGHTS_K, y)
    g7 = h * np.dot(_WEIGHTS_G, y[_GAUSS_IDX])
    return k15, abs(k15 - g7)


def _shortfall(toterr, target, met):
    if np.ndim(met) == 0:
        return f"error estimate {toterr:.3g}, target {target:.3g}"
    j = int(np.argmin(met))
    return f"component {j}: error estimate {toterr[j]:.3g}, target {target[j]:.3g}"


class _Workspace:
    """Panel queue shared by the finite and semi-infinite drivers.

    A plain integrand keeps its bookkeeping on Python numbers.  For an
    (m, n) integrand each panel holds arrays over the m components, each
    component summed by the same rule as a plain integral; the queue
    orders panels by max_j err_j / target_j, with the targets of the
    estimate that refinement starts from.
    """

    def __init__(self, spec: QuadratureSpec):
        self.spec = spec
        self.alive = {}
        self.heap = None        # built when refinement starts
        self.weight = None      # 1 / target_j of an (m, n) integrand
        self.components = None  # m of an (m, n) integrand
        self.next_idx = 0
        self.evaluations = 0
        self.frozen_val = 0.0 + 0.0j
        self.frozen_err = 0.0

    def eval_panel(self, g, lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        y = np.asarray(g(c + h * _NODES), dtype=complex)
        self.evaluations += y.shape[-1]
        if y.ndim == 1:
            return _gk15(y, h)
        self.components = len(y)
        vals, errs = zip(*(_gk15(row, h) for row in y))
        return np.array(vals), np.array(errs)

    def add(self, g, lo, hi):
        val, err = self.eval_panel(g, lo, hi)
        idx = self.next_idx
        self.next_idx = idx + 1
        self.alive[idx] = (g, lo, hi, val, err)
        if self.heap is not None:
            heapq.heappush(self.heap, (-self._priority(err), idx))
        return val, err

    def _priority(self, err):
        if self.weight is None:
            return err
        return float(np.max(err * self.weight))

    def _target(self, total):
        """max(rel_tol |I|, abs_tol), per component for an (m, n) integrand."""
        rel, floor = self.spec.rel_tol, self.spec.abs_tol
        if self.components is None:
            return max(rel * abs(total), floor)
        return np.maximum(rel * np.abs(total), floor)

    def negligible(self, val, total):
        """True when every component of a panel value is below a tenth of
        its target for the running total."""
        small = abs(val) < 0.1 * self._target(total)
        return small if self.components is None else bool(small.all())

    def no_estimate(self):
        """Partial result of an integral that never reached refinement."""
        m = self.components
        if m is None:
            return QuadratureResult(0.0, math.inf, self.evaluations, False)
        return QuadratureResult(np.zeros(m, complex), np.full(m, math.inf),
                                self.evaluations, np.zeros(m, bool))

    # an infinite panel error turns a component's total into NaN once the
    # panel is split, as for a plain integral; numpy would warn about it
    @np.errstate(invalid="ignore")
    def refine(self):
        spec = self.spec
        total = sum(p[3] for p in self.alive.values()) + self.frozen_val
        toterr = sum(p[4] for p in self.alive.values()) + self.frozen_err
        if self.components is not None:
            self.weight = 1.0 / self._target(total)
        self.heap = [(-self._priority(p[4]), idx) for idx, p in self.alive.items()]
        heapq.heapify(self.heap)
        splits = 0
        while True:
            target = self._target(total)
            if self.components is None:
                met = done = bool(toterr <= target)
            else:
                met = toterr <= target
                done = bool(met.all())
            if done:
                return QuadratureResult(total, toterr, self.evaluations, met)
            if splits >= spec.max_subdivisions:
                raise NonConvergence(
                    f"quadrature needed more than {spec.max_subdivisions} subdivisions "
                    f"({_shortfall(toterr, target, met)})",
                    result=QuadratureResult(total, toterr, self.evaluations, met),
                )
            # worst live panel; heap entries for split panels are stale
            while self.heap and self.heap[0][1] not in self.alive:
                heapq.heappop(self.heap)
            if not self.heap:
                raise NonConvergence(
                    "quadrature cannot refine further (all panels at width floor)",
                    result=QuadratureResult(total, toterr, self.evaluations, met),
                )
            _, idx = heapq.heappop(self.heap)
            g, lo, hi, val, err = self.alive.pop(idx)
            if hi - lo <= _MIN_PANEL_WIDTH * max(1.0, abs(lo), abs(hi)):
                # too narrow to split; keep its contribution, stop refining it
                self.frozen_val += val
                self.frozen_err += err
                continue
            mid = 0.5 * (lo + hi)
            v1, e1 = self.add(g, lo, mid)
            v2, e2 = self.add(g, mid, hi)
            total += v1 + v2 - val
            toterr += e1 + e2 - err
            splits += 1


def _left_sub(fw, a, width, b, q):
    """Map u in (0,1) to t in (a, a + width) clustering at a when q > 1."""
    def g(u):
        d = width * u ** q
        t = a + d
        jac = width * q * u ** (q - 1.0)
        return np.asarray(fw(t, d, b - t), dtype=complex) * jac
    return g


def _right_sub(fw, a, width, b, q):
    """Map u in (0,1) to t in (b - width, b) clustering at b when q > 1."""
    def g(u):
        d = width * u ** q
        t = b - d
        jac = width * q * u ** (q - 1.0)
        return np.asarray(fw(t, t - a, d), dtype=complex) * jac
    return g


def _power(lam):
    return 1.0 / (1.0 + lam) if lam < 0.0 else 1.0


def integrate_finite(f, spec: QuadratureSpec, *, distance_form: bool = False) -> QuadratureResult:
    """Integrate f over the finite range described by spec."""
    if not math.isfinite(spec.upper):
        raise ValueError("integrate_finite needs a finite upper endpoint")
    fw = _wrap(f, distance_form)
    a, b = spec.lower, spec.upper
    m = 0.5 * (a + b)
    ws = _Workspace(spec)
    ws.add(_left_sub(fw, a, m - a, b, _power(spec.exponent_at_lower)), 0.0, 1.0)
    ws.add(_right_sub(fw, a, b - m, b, _power(spec.exponent_at_upper)), 0.0, 1.0)
    return ws.refine()


def integrate_semi_infinite(f, spec: QuadratureSpec, *, distance_form: bool = False) -> QuadratureResult:
    """Integrate f over [spec.lower, infinity).

    The integrand must decay at least like e^{-ct} (or faster, e.g. a
    Gaussian); spec.decay_rate sets the marching panel width 1/decay_rate.
    """
    if math.isfinite(spec.upper):
        raise ValueError("integrate_semi_infinite needs upper = inf")
    fw = _wrap(f, distance_form)
    a = spec.lower
    h = 1.0 / spec.decay_rate if spec.decay_rate > 0.0 else 1.0
    ws = _Workspace(spec)

    # first panel with the endpoint substitution
    total, _ = ws.add(_left_sub(fw, a, h, math.inf, _power(spec.exponent_at_lower)), 0.0, 1.0)

    def g_plain(t):
        return np.asarray(fw(t, t - a, math.inf), dtype=complex)

    small_streak = 0
    k = 1
    max_march = 100000
    edge = a + h
    while small_streak < 2:
        if k > max_march:
            raise NonConvergence(
                "semi-infinite marching did not find a negligible tail "
                f"within {max_march} panels; check decay_rate",
                result=ws.no_estimate(),
            )
        val, _ = ws.add(g_plain, edge, edge + h)
        total = total + val
        edge += h
        k += 1
        if ws.negligible(val, total):
            small_streak += 1
        else:
            small_streak = 0

    tail_start = edge

    def g_tail(v):
        v = np.asarray(v)
        safe = np.minimum(v, _TAIL_CLIP)
        one_minus = 1.0 - safe
        t = tail_start + safe / one_minus
        vals = np.asarray(fw(t, t - a, math.inf), dtype=complex) / (one_minus * one_minus)
        return np.where(v > _TAIL_CLIP, 0.0, vals)

    ws.add(g_tail, 0.0, 1.0)
    return ws.refine()

