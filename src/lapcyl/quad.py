"""Adaptive Gauss-Kronrod quadrature for endpoint-singular integrands.

The building block is the nested 7/15 pair: the 15-point Kronrod value is
the estimate, |K15 - G7| the (deliberately conservative) panel error.

An endpoint power t^lambda, lambda > -1, is removed by the substitution
t = a + (m-a) u^q, q = ceil(1+lambda)/(1+lambda), on the half interval
next to the endpoint.  The integrand times the Jacobian then leads with
the integer power u^(ceil(1+lambda)-1); unmapped, each split towards the
branch point would gain only 2^-(1+lambda) (QUADPACK's dqaws problem).
q is 1/(1+lambda) on (-1, 0] and 1 at an integer lambda, so an integer
power is left unmapped.  Gauss-Kronrod nodes are strictly interior, so
the integrand is never evaluated at an endpoint.

Integrands are called with a float64 array of n abscissae, the 15 nodes
of each of several panels, and must return array values (complex or
real): shape (n,) for one integral, or (m, n) for m integrals over the
same range that share every integrand call, such as one original against
m Laplace kernels.  Each of the m components keeps its own target
max(rel_tol |I_j|, abs_tol), its own error estimate and its own converged
flag; refinement stops only when every component meets its target.
Catalog integrands additionally receive the exact displacements from both
endpoints (``distance_form=True``), which keeps factors like (x-t)^{-3/4}
fully accurate when the adaptive refinement pushes t within an ulp of x;
the public entry points keep the plain f(t) signature and wrap it.

Every integrand counts as an (m, n) one: a plain (n,) integrand is the
m = 1 case, unwrapped to scalars in the result.  One matmul applies K15
and G7 to a whole (m, k, 15) block of node values, k panels of m
components; the panel values and errors leave numpy as lists.

Refinement halves one panel per step, as QUADPACK's dqagse bisects: the
panel with the largest max_j err_j / target_j (targets of the estimate
that refinement starts from; ties go to the older panel).  A split whose
halves were not evaluated earlier makes one integrand call for the two
halves and the quarters of the halves likely split next: all four
quarters when the panel split has no side (a substituted first, march or
tail panel), else the two of the half on the same side as the panel lies
in its parent, because refinement keeps walking toward an endpoint
singularity.  A half keeps its quarters, so its split needs no call;
quarters join the panel store only when that split comes, and those of a
half never split are dropped.  A half without quarters makes its own
call if it is split.  So the same panels are split in the same order as
with one call per split, in about half the calls on endpoint-singular
integrands; smooth ones that refine breadth-first, and interior kinks,
pay extra calls.  A panel too narrow to halve keeps its contribution and
leaves the queue.  An infinite panel error keeps its component's
estimate infinite, never NaN, until no panel carries one.  Repeated runs
produce bit-identical results.

After a numpy setup, refinement sums in Python floats and complex numbers,
in numpy's order.  Complex magnitudes stay numpy's, whose last bits
Python's abs does not always match: each panel's |K15 - G7|, and |I_j| in
the converged test once no component is clearly over its target.  That is
O(m) Python work per step, cheaper than numpy's fixed per-call cost at the
catalog's m <= 3, dearer from a few dozen components on.

Semi-infinite ranges are covered by a substituted first panel, then
panels of width 1/decay_rate (the slowest decay over the components),
marched _MARCH_BLOCK panels per integrand call until two consecutive
panels contribute below a tenth of every component's target for the
running total (tested panel by panel along the block), then one final
panel from the end of that block, mapped through t = T + u/(1-u);
everything lands in the same refinement queue.

The reported error estimate of component j is at least 50 eps |I_j|, a
rounding floor after the 50 epmach resabs of QUADPACK's dqk15: |K15 - G7|
of a panel resolved to the last bit says nothing about the rounding in
the panel sums.  Since rel_tol >= 1e-13 > 50 eps, the floor never changes
a converged flag.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._exceptions import DomainError, NonConvergence

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
# K15 and G7 as the two columns of one matrix: a block of node values
# times it gives every panel's K15 and G7 sums in one matmul
_RULES = np.zeros((15, 2))
_RULES[:, 0] = _WEIGHTS_K
_RULES[_GAUSS_IDX, 1] = _WEIGHTS_G

_MIN_PANEL_WIDTH = 1e-15
_TAIL_CLIP = 1.0 - 1e-12
_MARCH_BLOCK = 8        # semi-infinite march panels per integrand call
_MAX_MARCH = 100000
_MAX_SUBDIVISIONS = 2000
_ROUNDING = 50.0 * np.finfo(float).eps
_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class QuadratureSpec:
    """Description of one integral: range, endpoint exponents, tolerances.

    exponent_at_lower/upper: the leading power lambda of the integrand at
    that endpoint (integrand ~ |t - endpoint|^lambda); finite and > -1.
    A non-integer lambda is mapped away, at either sign; an integer one
    is left as it is.
    decay_rate: e^{-ct} scale of the tail for semi-infinite ranges (panel
    width is its reciprocal); finite and >= 0, where 0 means "no hint".
    """

    lower: float
    upper: float
    exponent_at_lower: float = 0.0
    exponent_at_upper: float = 0.0
    decay_rate: float = 0.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13

    def __post_init__(self):
        if not math.isfinite(self.lower):
            raise DomainError("lower endpoint must be finite")
        if not self.lower < self.upper:
            raise DomainError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not -1.0 < self.exponent_at_lower < math.inf:
            raise DomainError(
                f"exponent_at_lower must be > -1 and finite, got {self.exponent_at_lower}")
        if not -1.0 < self.exponent_at_upper < math.inf:
            raise DomainError(
                f"exponent_at_upper must be > -1 and finite, got {self.exponent_at_upper}")
        if not 0.0 <= self.decay_rate < math.inf:
            raise DomainError(f"decay_rate must be finite and >= 0, got {self.decay_rate}")
        if not self.rel_tol >= 1e-13:
            raise DomainError(f"rel_tol must be >= 1e-13, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    """One integral's outcome.

    For an integrand that returns an (m, n) array, value, error_estimate
    and converged are length-m arrays, one entry per component; for a
    plain (n,) integrand they are scalars.  An error estimate is never
    below 50 eps |value|.  evaluations counts the abscissae of the panels
    the value is built from, each once however many components the
    integrand returns; quarters evaluated for a split that never came are
    not counted.  A split looks ahead with the quarters of both halves
    for a panel with no side and of the same-side half for a child, so
    the count of integrand calls depends on the integrand's shape, but
    evaluations does not.
    """

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


def _wrap(f, distance_form):
    if distance_form:
        return f
    return lambda t, d_lo, d_hi: f(t)


class _Workspace:
    """Panel store and refinement queue shared by the finite and
    semi-infinite drivers.

    Each panel holds its K15 values and |K15 - G7| errors as lists of m,
    and refinement carries totals, errors and weights as lists of m too.
    The queue orders panels by max_j err_j / target_j, with the targets of
    the estimate that refinement starts from.
    """

    def __init__(self, spec: QuadratureSpec):
        self.spec = spec
        self.panels = []        # every panel made, split ones too: (g, lo, hi, value, error)
        self.evaluations = 0
        self.plain = None       # the integrand returns (n,), set on its first call

    def evaluate(self, g, lo, hi):
        """K15 values and |K15 - G7| errors of the k panels [lo_i, hi_i]
        (sequences of floats) from one call of g, one list of m per panel.
        A panel with a non-finite node value counts as value 0, error inf."""
        c = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
        h = np.array([0.5 * (b - a) for a, b in zip(lo, hi)])
        t = (c[:, None] + h[:, None] * _NODES).ravel()
        y = np.asarray(g(t), dtype=complex)
        # a non-finite node value is handled below; numpy would only warn
        with np.errstate(invalid="ignore"):
            rules = (y.reshape(-1, len(lo), _NODES.size) @ _RULES) * h[:, None]
            err = np.abs(rules[..., 0] - rules[..., 1])
        if self.plain is None:
            self.plain = y.ndim == 1
        # every K15 weight is positive, so a non-finite node shows in K15
        bad = ~np.isfinite(rules[..., 0])
        rules[..., 0][bad] = 0.0
        err[bad] = math.inf
        return rules[..., 0].T.tolist(), err.T.tolist()

    def store(self, g, lo, hi, vals, errs):
        """Keep evaluated panels; their nodes count as evaluations."""
        self.evaluations += _NODES.size * len(lo)
        self.panels += [(g, a, b, v, e) for a, b, v, e in zip(lo, hi, vals, errs)]

    def add(self, g, lo, hi):
        """Evaluate and store the panels [lo_i, hi_i]; returns what
        evaluate does."""
        vals, errs = self.evaluate(g, lo, hi)
        self.store(g, lo, hi, vals, errs)
        return vals, errs

    def _target(self, total):
        """max(rel_tol |I_j|, abs_tol) over the components (any shape)."""
        return np.maximum(self.spec.rel_tol * np.abs(total), self.spec.abs_tol)

    def march(self, total, vals):
        """Running totals after each panel of a march block (vals as add
        returns them), and per panel whether every component is below a
        tenth of its target for the running total.  Returns (total after
        the block, list of flags)."""
        vals = np.array(vals).T
        run = np.cumsum(np.concatenate([total[:, None], vals], axis=1), axis=1)[:, 1:]
        small = (np.abs(vals) < 0.1 * self._target(run)).all(axis=0)
        return run[:, -1], small.tolist()

    def _result(self, total, toterr):
        total, toterr = np.array(total, dtype=complex), np.array(toterr, dtype=float)
        met = toterr <= self._target(total)
        err = np.maximum(toterr, _ROUNDING * np.abs(total))
        if self.plain:
            return QuadratureResult(complex(total[0]), float(err[0]), self.evaluations,
                                    bool(met[0]))
        return QuadratureResult(total, err, self.evaluations, met)

    def no_estimate(self):
        """Partial result of an integral that never reached refinement."""
        m = len(self.panels[0][3])
        return self._result([0j] * m, [math.inf] * m)

    def _nonconvergence(self, reason, total, toterr):
        """NonConvergence with the partial result and the shortfall of the
        first component that misses its target."""
        result = self._result(total, toterr)
        target = self._target(np.array(total))
        j = int(np.argmin(np.atleast_1d(result.converged)))
        where = "" if self.plain else f"component {j}: "
        return NonConvergence(
            f"{reason} ({where}error estimate {toterr[j]:.3g}, target {target[j]:.3g})",
            result=result)

    def refine(self):
        """Bisect until every component meets its target: a numpy setup of
        totals and queue, then scalar bookkeeping per split."""
        panels = self.panels
        rel_tol, abs_tol = self.spec.rel_tol, self.spec.abs_tol
        vals = np.array([p[3] for p in panels])
        errs = np.array([p[4] for p in panels])
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        weight = 1.0 / self._target(total)
        heap = list(zip((-(errs * weight).max(axis=1)).tolist(), range(len(panels))))
        heapq.heapify(heap)
        total, toterr, weight = total.tolist(), toterr.tolist(), weight.tolist()
        frozen_err = [0.0] * len(total)     # errors of the panels too narrow to split
        ahead = {}      # panel index -> its halves' values and errors, not yet stored
        children = len(panels)      # from here on, splits store (left, right) pairs
        splits = 0
        while True:
            # numpy's |v| decides a converged flag, but a component clearly
            # over its target (|v| <= |Re v| + |Im v|, the slack covering
            # rounding) settles the test without a numpy call
            if not any(e > _SLACK * max(rel_tol * (abs(v.real) + abs(v.imag)), abs_tol)
                       for v, e in zip(total, toterr)):
                result = self._result(total, toterr)
                if np.all(result.converged):
                    return result
            if splits >= _MAX_SUBDIVISIONS:
                raise self._nonconvergence(
                    f"quadrature needed more than {_MAX_SUBDIVISIONS} subdivisions",
                    total, toterr)
            # the worst panel wide enough to halve; a narrower one keeps its
            # contribution and stops being refined
            while True:
                if not heap:
                    raise self._nonconvergence(
                        "quadrature cannot refine further, all panels at width floor",
                        total, toterr)
                index = heapq.heappop(heap)[1]
                g, lo, hi, val, err = panels[index]
                if hi - lo > _MIN_PANEL_WIDTH * max(1.0, abs(lo), abs(hi)):
                    break
                frozen_err = [f + e for f, e in zip(frozen_err, err)]
            mid = 0.5 * (lo + hi)
            first = len(panels)
            if index in ahead:
                (v1, v2), (e1, e2) = ahead.pop(index)
            else:
                # the halves and, in the same call, the quarters of the
                # halves likely split next: both for a panel with no side,
                # else the half on the panel's own side, since refinement
                # walks on toward the endpoint it was heading for
                sides = (0, 1) if index < children else ((index - children) % 2,)
                edge = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
                cut = [j for s in sides for j in (2 * s, 2 * s + 1)]
                vals, errs = self.evaluate(g, (lo, mid) + tuple(edge[j] for j in cut),
                                           (mid, hi) + tuple(edge[j + 1] for j in cut))
                for i, s in enumerate(sides):
                    ahead[first + s] = vals[2 + 2 * i:4 + 2 * i], errs[2 + 2 * i:4 + 2 * i]
                (v1, v2), (e1, e2) = vals[:2], errs[:2]
            self.store(g, (lo, mid), (mid, hi), (v1, v2), (e1, e2))
            for i, child in enumerate((e1, e2), first):
                heapq.heappush(heap, (-max([e * w for e, w in zip(child, weight)]), i))
            total = [v + ((a + b) - old) for v, a, b, old in zip(total, v1, v2, val)]
            grown = [a + b for a, b in zip(e1, e2)]
            if all(gr == math.inf for gr, old in zip(grown, err) if old == math.inf):
                # each infinite error, if any, lives on in a child (inf - inf is NaN)
                toterr = [e + (gr - (0.0 if old == math.inf else old))
                          for e, gr, old in zip(toterr, grown, err)]
            else:
                # an infinite error is gone: sum the held errors afresh
                toterr = (np.sum([panels[i][4] for _, i in heap], axis=0) + frozen_err).tolist()
            splits += 1


def _endpoint_sub(fw, a, b, width, lam, at_lower):
    """Map u in (0,1) to t = a + width u^q (at_lower) or b - width u^q, clustering there.

    q = ceil(1+lam)/(1+lam) turns the leading power |t - endpoint|^lam
    times the Jacobian into u^(ceil(1+lam)-1), an integer power; q is 1,
    the identity, at an integer lam."""
    q = math.ceil(1.0 + lam) / (1.0 + lam)

    def g(u):
        d = width * u ** q
        t = a + d if at_lower else b - d
        jac = width * q * u ** (q - 1.0)
        y = np.asarray(fw(t, d, b - t) if at_lower else fw(t, t - a, d), dtype=complex)
        with np.errstate(invalid="ignore"):     # complex inf * jac is NaN
            return y * jac
    return g


def integrate_finite(f, spec: QuadratureSpec, *, distance_form: bool = False) -> QuadratureResult:
    """Integrate f over the finite range described by spec."""
    if not math.isfinite(spec.upper):
        raise ValueError("integrate_finite needs a finite upper endpoint")
    fw = _wrap(f, distance_form)
    a, b = spec.lower, spec.upper
    m = 0.5 * (a + b)
    ws = _Workspace(spec)
    ws.add(_endpoint_sub(fw, a, b, m - a, spec.exponent_at_lower, True), (0.0,), (1.0,))
    ws.add(_endpoint_sub(fw, a, b, b - m, spec.exponent_at_upper, False), (0.0,), (1.0,))
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
    vals, _ = ws.add(_endpoint_sub(fw, a, math.inf, h, spec.exponent_at_lower, True),
                     (0.0,), (1.0,))
    total = np.array(vals[0])

    def g_plain(t):
        return np.asarray(fw(t, t - a, math.inf), dtype=complex)

    edges = [a + h]
    marched = 0
    small_streak = 0
    while small_streak < 2:
        if marched >= _MAX_MARCH:
            raise NonConvergence(
                "semi-infinite marching did not find a negligible tail "
                f"within {_MAX_MARCH} panels; check decay_rate",
                result=ws.no_estimate(),
            )
        edges = edges[-1:]
        for _ in range(_MARCH_BLOCK):
            edges.append(edges[-1] + h)
        vals, _ = ws.add(g_plain, edges[:-1], edges[1:])
        marched += _MARCH_BLOCK
        total, small = ws.march(total, vals)
        for s in small:
            small_streak = small_streak + 1 if s else 0
            if small_streak == 2:
                break

    tail_start = edges[-1]

    def g_tail(v):
        v = np.asarray(v)
        safe = np.minimum(v, _TAIL_CLIP)
        one_minus = 1.0 - safe
        t = tail_start + safe / one_minus
        vals = np.asarray(fw(t, t - a, math.inf), dtype=complex) / (one_minus * one_minus)
        return np.where(v > _TAIL_CLIP, 0.0, vals)

    ws.add(g_tail, (0.0,), (1.0,))
    return ws.refine()
