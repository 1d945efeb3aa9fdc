"""Quadrature engine: node tables, endpoint substitutions, honesty."""

import collections
import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lapcyl.quad as quad
from lapcyl import DomainError, NonConvergence
from lapcyl.quad import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    _NODES,
    _WEIGHTS_K,
    _WEIGHTS_G,
    _GAUSS_IDX,
    _MARCH_BLOCK,
)
from lapcyl.catalog import Piece
from lapcyl.catalog.engine import _integrate_pieces
from lapcyl.special import gamma

SQRT_PI = math.sqrt(math.pi)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def test_kronrod_rule_degree():
    # 15-point Kronrod is exact through degree 22 on [-1, 1]
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.dot(_WEIGHTS_K, _NODES ** k))
        assert abs(got - exact) < 5e-14, k


def test_weight_sums_are_two():
    # full-precision tables: the 15-digit ones missed 2 by 6e-15 (K15)
    # and 9e-16 (G7)
    assert abs(math.fsum(_WEIGHTS_K) - 2.0) <= 4.5e-16
    assert abs(math.fsum(_WEIGHTS_G) - 2.0) <= 4.5e-16


def test_gauss_rule_degree():
    # embedded 7-point Gauss is exact through degree 13
    for k in range(14):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.dot(_WEIGHTS_G, _NODES[_GAUSS_IDX] ** k))
        assert abs(got - exact) < 5e-14, k


def test_spec_validation():
    # the package's own error, still a ValueError for outside callers
    assert issubclass(DomainError, ValueError)
    with pytest.raises(DomainError):
        QuadratureSpec(lower=1.0, upper=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=-1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(lower=0.0, upper=1.0, exponent_at_upper=-1.5)
    # the endpoint map's power ceil(1+lambda)/(1+lambda) needs a finite
    # exponent; math.ceil(inf) would raise a bare OverflowError
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(lower=0.0, upper=math.inf, exponent_at_upper=bad)
    with pytest.raises(DomainError):
        QuadratureSpec(lower=0.0, upper=1.0, rel_tol=1e-14)
    # nan > 0 is False
    for tol in (0.0, -1e-15, math.nan):
        with pytest.raises(DomainError, match="abs_tol must be positive"):
            QuadratureSpec(lower=0.0, upper=1.0, abs_tol=tol)
    with pytest.raises(DomainError):
        QuadratureSpec(lower=-math.inf, upper=1.0)
    # nan < 0 is False, and an infinite rate makes the first panel zero wide
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=rate)


def test_each_driver_rejects_the_other_range():
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(-t)

    with pytest.raises(ValueError, match="finite upper endpoint"):
        integrate_finite(f, QuadratureSpec(lower=0.0, upper=math.inf))
    with pytest.raises(ValueError, match="upper = inf"):
        integrate_semi_infinite(f, QuadratureSpec(lower=0.0, upper=1.0))
    assert calls == []


def test_smooth_finite():
    spec = QuadratureSpec(lower=0.0, upper=math.pi)
    res = integrate_finite(lambda t: np.sin(t), spec)
    assert res.converged
    assert rel_err(res.value, 2.0) < 1e-13
    assert res.evaluations >= 30


def test_beta_integrals_plain_f():
    # int_0^1 t^(p-1)(1-t)^(q-1) dt = B(p, q); a plain f(t) integrand can
    # only resolve mild exponents, since the sub-epsilon neighborhood of
    # an endpoint holds (eps)^(1+lambda) of the mass and f(t) cannot see
    # inside it
    cases = [(0.75, 0.75), (0.5, 0.5), (0.5, 1.5), (0.3, 1.7)]
    for p, q in cases:
        spec = QuadratureSpec(lower=0.0, upper=1.0,
                              exponent_at_lower=p - 1.0, exponent_at_upper=q - 1.0,
                              rel_tol=1e-11)
        res = integrate_finite(lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0), spec)
        want = (gamma(p) * gamma(q) / gamma(p + q)).real
        assert res.converged
        assert rel_err(res.value, want) < 1e-10, (p, q)


def test_beta_integrals_distance_form():
    # strong exponents need the exact-displacement signature
    cases = [(0.75, 0.25), (0.25, 0.75), (1.25, 0.1), (0.1, 0.35)]
    for p, q in cases:
        spec = QuadratureSpec(lower=0.0, upper=1.0,
                              exponent_at_lower=p - 1.0, exponent_at_upper=q - 1.0,
                              rel_tol=1e-12)
        res = integrate_finite(
            lambda t, lo, hi: lo ** (p - 1.0) * hi ** (q - 1.0),
            spec, distance_form=True)
        want = (gamma(p) * gamma(q) / gamma(p + q)).real
        assert res.converged
        assert rel_err(res.value, want) < 1e-11, (p, q)


def test_beta_quarter_closed_form():
    # B(3/4, 1/4) = pi sqrt(2)
    spec = QuadratureSpec(lower=0.0, upper=1.0,
                          exponent_at_lower=-0.25, exponent_at_upper=-0.75,
                          rel_tol=1e-12)
    res = integrate_finite(lambda t, lo, hi: lo ** -0.25 * hi ** -0.75,
                           spec, distance_form=True)
    assert rel_err(res.value, math.pi * math.sqrt(2.0)) < 1e-11
    assert rel_err(res.value, 4.442882938158366247) < 1e-11


def test_distance_form_beats_naive_near_endpoint():
    # with distance_form the (1-t) factor never suffers cancellation
    p, q = 0.5, 0.25
    spec = QuadratureSpec(lower=0.0, upper=1.0,
                          exponent_at_lower=p - 1.0, exponent_at_upper=q - 1.0,
                          rel_tol=1e-12)
    res = integrate_finite(
        lambda t, d_lo, d_hi: d_lo ** (p - 1.0) * d_hi ** (q - 1.0),
        spec, distance_form=True)
    want = (gamma(p) * gamma(q) / gamma(p + q)).real
    assert rel_err(res.value, want) < 1e-12


def test_gamma_integrals_semi_infinite():
    for s in (0.25, 0.5, 1.5, 3.0):
        spec = QuadratureSpec(lower=0.0, upper=math.inf,
                              exponent_at_lower=s - 1.0, decay_rate=1.0,
                              rel_tol=1e-12)
        res = integrate_semi_infinite(lambda t: t ** (s - 1.0) * np.exp(-t), spec)
        assert res.converged
        assert rel_err(res.value, gamma(s).real) < 1e-11, s


@pytest.mark.parametrize("lam, most", [(0.3, 690), (0.75, 810), (1.6, 750), (2.3, 690)])
def test_gamma_at_positive_non_integer_exponent(lam, most):
    # Gamma(1+lam) = int_0^inf t^lam e^{-t}: the map t = u^q with
    # q = ceil(1+lam)/(1+lam) leaves the integer power u^(ceil(1+lam)-1).
    # Left to bisection, each split towards t = 0 gained only 2^-(1+lam):
    # 1,230, 1,080, 870 and 780 evaluations, with errors up to 2.3e-14
    spec = QuadratureSpec(lower=0.0, upper=math.inf, exponent_at_lower=lam,
                          decay_rate=1.0, rel_tol=1e-12)
    res = integrate_semi_infinite(lambda t: t ** lam * np.exp(-t), spec)
    assert res.converged
    assert rel_err(res.value, math.gamma(1.0 + lam)) < 1e-14
    assert res.evaluations <= most


@pytest.mark.parametrize("lam_lo, lam_hi, most",
                         [(0.3, 0.75, 330), (1.6, 0.3, 300), (2.3, 1.6, 240)])
def test_beta_at_positive_non_integer_exponents(lam_lo, lam_hi, most):
    # both endpoints mapped; bisection needed 1,200, 1,020 and 480
    # evaluations, with errors up to 3.5e-14
    spec = QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=lam_lo,
                          exponent_at_upper=lam_hi, rel_tol=1e-12)
    res = integrate_finite(lambda t, lo, hi: lo ** lam_lo * hi ** lam_hi,
                           spec, distance_form=True)
    want = math.gamma(1.0 + lam_lo) * math.gamma(1.0 + lam_hi) / math.gamma(2.0 + lam_lo + lam_hi)
    assert res.converged
    assert rel_err(res.value, want) < 1e-14
    assert res.evaluations <= most


@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0, 2.0])
def test_endpoint_map_at_negative_and_integer_exponents(lam):
    # ceil(1+lam)/(1+lam) is 1/(1+lam) on (-1, 0] and 1 at an integer: the
    # first panels' abscissae are bit for bit those of the map
    # q = 1/(1+lam) for lam < 0, identity otherwise
    calls = []

    def f(t, lo, hi):
        calls.append(t.copy())
        return lo ** lam * hi ** lam

    integrate_finite(f, QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=lam,
                                       exponent_at_upper=lam), distance_form=True)
    d = 0.5 * (0.5 + 0.5 * _NODES) ** (1.0 / (1.0 + lam) if lam < 0.0 else 1.0)
    assert np.array_equal(calls[0], d)
    assert np.array_equal(calls[1], 1.0 - d)


def test_gaussian_tail():
    spec = QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=2.0, rel_tol=1e-12)
    res = integrate_semi_infinite(lambda t: np.exp(-t * t), spec)
    assert rel_err(res.value, 0.5 * SQRT_PI) < 1e-12


def test_shifted_lower_endpoint():
    # int_2^inf e^{-t} (t-2)^{-1/2} dt = sqrt(pi) e^{-2}
    spec = QuadratureSpec(lower=2.0, upper=math.inf,
                          exponent_at_lower=-0.5, decay_rate=1.0, rel_tol=1e-12)
    res = integrate_semi_infinite(
        lambda t, d_lo, d_hi: np.exp(-t) / np.sqrt(d_lo), spec, distance_form=True)
    assert rel_err(res.value, SQRT_PI * math.exp(-2.0)) < 1e-11


def test_error_estimate_honesty():
    # true error should rarely exceed 10x the reported estimate
    cases = []
    for p, q in [(0.75, 0.25), (0.5, 0.5), (0.3, 1.7), (1.5, 2.5), (0.9, 0.1)]:
        spec = QuadratureSpec(lower=0.0, upper=1.0,
                              exponent_at_lower=p - 1.0, exponent_at_upper=q - 1.0)
        res = integrate_finite(lambda t, lo, hi, p=p, q=q: lo ** (p - 1.0) * hi ** (q - 1.0),
                               spec, distance_form=True)
        want = (gamma(p) * gamma(q) / gamma(p + q)).real
        cases.append((abs(res.value - want), res.error_estimate))
    for s in (0.25, 1.5, 3.0, 4.5, 0.8):
        spec = QuadratureSpec(lower=0.0, upper=math.inf,
                              exponent_at_lower=s - 1.0, decay_rate=1.0)
        res = integrate_semi_infinite(lambda t, s=s: t ** (s - 1.0) * np.exp(-t), spec)
        cases.append((abs(res.value - gamma(s).real), res.error_estimate))
    bad = sum(1 for true, est in cases if true > 10.0 * est + 1e-15)
    assert bad == 0, cases


def test_nonconvergence_carries_partial(monkeypatch):
    # interior |t - 0.3|^{-1/2} needs endless splitting with a budget of 3
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 3)
    spec = QuadratureSpec(lower=0.0, upper=1.0)
    with pytest.raises(NonConvergence) as exc:
        integrate_finite(lambda t: 1.0 / np.sqrt(np.abs(t - 0.3)), spec)
    partial = exc.value.result
    assert partial is not None
    assert not partial.converged
    assert partial.evaluations > 0


@pytest.mark.parametrize("m", [1, 2])
def test_failed_march_carries_no_estimate(monkeypatch, m):
    # 1/(1+t)^2 decays far slower than the declared rate: panels of width
    # 1/100 never reach a negligible tail within a budget of 8
    monkeypatch.setattr(quad, "_MAX_MARCH", 8)
    spec = QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=100.0)

    def f(t):
        y = 1.0 / (1.0 + t) ** 2
        return y if m == 1 else np.stack([y, 2.0 * y])

    with pytest.raises(NonConvergence, match="within 8 panels") as exc:
        integrate_semi_infinite(f, spec)
    partial = exc.value.result
    # the first panel and one march block of 8
    assert partial.evaluations == 135
    if m == 1:
        assert (partial.value, partial.error_estimate, partial.converged) == (0.0, math.inf, False)
    else:
        assert partial.value.tolist() == [0.0, 0.0]
        assert partial.error_estimate.tolist() == [math.inf, math.inf]
        assert partial.converged.tolist() == [False, False]


@pytest.mark.parametrize("m", [1, 3])
def test_width_floor_ends_with_the_frozen_errors(monkeypatch, m):
    # a jump at t = 1/3 needs endless halving; with a floor of 0.05 on the
    # substituted unit panels, refinement runs out of panels it may split
    floor = 0.05
    monkeypatch.setattr(quad, "_MIN_PANEL_WIDTH", floor)
    workspaces = []
    refine = quad._Workspace.refine

    def spy(self):
        workspaces.append(self)
        return refine(self)

    monkeypatch.setattr(quad._Workspace, "refine", spy)

    def f(t):
        step = np.where(t > 1.0 / 3.0, 1.0, 0.0)
        return step if m == 1 else np.stack([step, np.cos(t), np.exp(t)])

    with pytest.raises(NonConvergence, match="all panels at width floor") as exc:
        integrate_finite(f, QuadratureSpec(lower=0.0, upper=1.0))
    partial = exc.value.result
    assert np.shape(partial.error_estimate) == (() if m == 1 else (m,))
    assert not np.all(partial.converged)
    frozen = [p for p in workspaces[0].panels
              if p[2] - p[1] <= floor * max(1.0, abs(p[1]), abs(p[2]))]
    assert frozen
    held = np.array([math.fsum(p[4][j] for p in frozen) for j in range(m)])
    # the running total telescopes to the same sum up to its rounding
    assert (np.atleast_1d(partial.error_estimate) >= held * (1.0 - 1e-12)).all()


class _ArrayWorkspace(quad._Workspace):
    """Refinement with numpy array bookkeeping: totals, targets and
    priorities as arrays on every step.  The reference that the scalar
    bookkeeping must match bit for bit."""

    def add(self, g, lo, hi):
        c = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
        h = np.array([0.5 * (b - a) for a, b in zip(lo, hi)])
        t = (c[:, None] + h[:, None] * _NODES).ravel()
        y = np.asarray(g(t), dtype=complex)
        with np.errstate(invalid="ignore"):
            rules = (y.reshape(-1, len(lo), _NODES.size) @ quad._RULES) * h[:, None]
            err = np.abs(rules[..., 0] - rules[..., 1])
        self.evaluations += t.size
        if self.plain is None:
            self.plain = y.ndim == 1
        finite = np.isfinite(rules[..., 0])
        val = np.where(finite, rules[..., 0], 0.0)
        err = np.where(finite, err, math.inf)
        self.panels += [(g, a, b, v, e) for a, b, v, e in zip(lo, hi, val.T, err.T)]
        return val, err

    def refine(self):
        panels = self.panels
        vals = np.array([p[3] for p in panels])
        errs = np.array([p[4] for p in panels])
        total, toterr = vals.sum(axis=0), errs.sum(axis=0)
        weight = (1.0 / self._target(total))[:, None]
        heap = list(zip((-(errs * weight.T).max(axis=1)).tolist(), range(len(panels))))
        heapq.heapify(heap)
        frozen_err = 0.0
        for splits in itertools.count():
            if (toterr <= self._target(total)).all():
                return self._result(total, toterr)
            if splits >= quad._MAX_SUBDIVISIONS:
                raise self._nonconvergence("subdivisions", total, toterr)
            while True:
                if not heap:
                    raise self._nonconvergence("width floor", total, toterr)
                g, lo, hi, val, err = panels[heapq.heappop(heap)[1]]
                if hi - lo > quad._MIN_PANEL_WIDTH * max(1.0, abs(lo), abs(hi)):
                    break
                frozen_err = frozen_err + err
            mid = 0.5 * (lo + hi)
            first = len(panels)
            new_val, new_err = self.add(g, (lo, mid), (mid, hi))
            for i, priority in enumerate((new_err * weight).max(axis=0).tolist(), first):
                heapq.heappush(heap, (-priority, i))
            total = total + (new_val.sum(axis=1) - val)
            grown = new_err.sum(axis=1)
            if math.inf not in err.tolist():
                toterr = toterr + (grown - err)
            elif (np.isinf(err) <= np.isinf(grown)).all():
                toterr = toterr + (grown - np.where(np.isinf(err), 0.0, err))
            else:
                toterr = np.sum([panels[i][4] for _, i in heap], axis=0) + frozen_err


def _outcome(f, spec):
    """Bits of a finite integral's result, or of the partial result that
    its NonConvergence carries."""
    try:
        res = integrate_finite(f, spec)
    except NonConvergence as exc:
        res = exc.result
    return tuple(np.asarray(x).tobytes() for x in
                 (res.value, res.error_estimate, res.evaluations, res.converged))


@pytest.mark.parametrize("floor", [quad._MIN_PANEL_WIDTH, 0.05])
@pytest.mark.parametrize("m", [1, 3])
def test_scalar_bookkeeping_matches_array_bookkeeping(monkeypatch, m, floor):
    monkeypatch.setattr(quad, "_MIN_PANEL_WIDTH", floor)
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 300)
    ps = np.linspace(0.5, 3.0, m)[:, None]
    integrands = [
        lambda t: np.exp(-ps * t) * np.exp(7j * t) / np.sqrt(t),
        lambda t: np.exp(-ps * t) * np.where(t > 1.0 / 3.0, 1.0, 0.3j),
        # a NaN node at t = 0.25 (the left panel's centre) is split away
        lambda t: np.exp(-ps * t) * np.where(t == 0.25, np.nan, np.cos(9.0 * t)),
        lambda t: np.exp(-ps * t) / np.sqrt(np.abs(t - 0.3)),
    ]
    # at rel_tol 1e-8 a converged estimate is the error sum, not its floor
    specs = [QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=-0.5, rel_tol=rel_tol)
             for rel_tol in (1e-12, 1e-8)]
    with np.errstate(divide="ignore"):
        for f, spec in itertools.product(integrands, specs):
            g = (lambda t, f=f: f(t)[0]) if m == 1 else f
            scalar = _outcome(g, spec)
            with monkeypatch.context() as patch:
                patch.setattr(quad, "_Workspace", _ArrayWorkspace)
                assert _outcome(g, spec) == scalar


def laplace(pieces, p):
    """The Laplace transform of a piecewise original, through the
    catalog engine's kernel path (a group of one p)."""
    return _integrate_pieces(pieces, (p,)).value[0]


def test_laplace_power():
    # L[t^{nu-1}](p) = Gamma(nu) / p^nu
    for nu, p in [(0.5, 1.0), (0.25, 2.0), (1.5, 0.5)]:
        spec = QuadratureSpec(lower=0.0, upper=math.inf,
                              exponent_at_lower=nu - 1.0, rel_tol=1e-12)
        got = laplace([Piece(lambda t, d_lo, d_hi: t ** (nu - 1.0), spec)], p)
        want = gamma(nu) / p ** nu
        assert rel_err(got, want) < 1e-11, (nu, p)


def test_laplace_finite_support():
    # L[1 on [0, x]] = (1 - e^{-px})/p
    spec = QuadratureSpec(lower=0.0, upper=2.0)
    got = laplace([Piece(lambda t, d_lo, d_hi: np.ones_like(t), spec)], 1.5)
    want = (1.0 - math.exp(-3.0)) / 1.5
    assert rel_err(got, want) < 1e-12


def test_laplace_two_piece_product_transform():
    # piecewise original whose transform is e^{py} erfc(sqrt(yp)) erf(sqrt(xp));
    # here x=1, y=2, p=1 giving e^2 erfc(sqrt 2) erf(1)
    x, y, p = 1.0, 2.0, 1.0

    def left(t, d_lo, d_hi):
        return np.sqrt(y) / (np.sqrt(t) * (y + t)) / math.pi

    def right(t, d_lo, d_hi):
        return -np.sqrt(x) / (np.sqrt(y + t - x) * (y + t)) / math.pi

    pieces = [
        Piece(left, QuadratureSpec(lower=0.0, upper=x, exponent_at_lower=-0.5,
                                   rel_tol=1e-11)),
        Piece(right, QuadratureSpec(lower=x, upper=math.inf, rel_tol=1e-11)),
    ]
    assert rel_err(laplace(pieces, p), 0.28331937945439961783) < 1e-9


def test_additivity():
    spec_full = QuadratureSpec(lower=0.0, upper=3.0, rel_tol=1e-12)
    f = lambda t: np.exp(-t) * np.cos(3.0 * t)
    full = integrate_finite(f, spec_full).value
    parts = 0.0
    for lo, hi in [(0.0, 0.7), (0.7, 3.0)]:
        parts += integrate_finite(f, QuadratureSpec(lower=lo, upper=hi, rel_tol=1e-12)).value
    assert abs(full - parts) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_linearity(alpha, beta):
    spec = QuadratureSpec(lower=0.0, upper=1.0)
    f = lambda t: np.sin(t)
    g = lambda t: t * t
    combo = integrate_finite(lambda t: alpha * f(t) + beta * g(t), spec).value
    separate = alpha * integrate_finite(f, spec).value + beta * integrate_finite(g, spec).value
    assert abs(combo - separate) < 1e-10 * max(1.0, abs(alpha) + abs(beta))


def test_determinism():
    spec = QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=-0.5)
    f = lambda t: np.cos(5.0 * t) / np.sqrt(t)
    a = integrate_finite(f, spec)
    b = integrate_finite(f, spec)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


# ---------------------------------------------------------- (m, n) integrands

def _kernels(ps):
    """e^{-p_j t} / sqrt(t) for each p_j: an (m, n) Laplace-type integrand."""
    ps = np.asarray(ps, dtype=float)
    return lambda t, d_lo, d_hi: np.exp(np.multiply.outer(-ps, t)) / np.sqrt(d_lo)


def _kernel_spec(ps, **kw):
    return QuadratureSpec(lower=0.0, upper=math.inf, exponent_at_lower=-0.5,
                          decay_rate=min(ps), **kw)


def test_vector_components_meet_their_own_targets():
    # a 1e6 component must not loosen the target of a 1 component: each
    # keeps max(rel_tol |I_j|, abs_tol)
    spec = QuadratureSpec(lower=0.0, upper=1.0, rel_tol=1e-10)

    def f(t, d_lo, d_hi):
        return np.stack([1e6 * np.exp(t), np.cos(40.0 * t)])

    res = integrate_finite(f, spec, distance_form=True)
    want = [1e6 * (math.e - 1.0), math.sin(40.0) / 40.0]
    assert res.value.shape == (2,) and res.converged.tolist() == [True, True]
    for j in range(2):
        assert res.error_estimate[j] <= 1e-10 * abs(res.value[j])
        assert rel_err(res.value[j], want[j]) < 1e-10, j


@pytest.mark.parametrize("ps", [(0.5, 1.0, 3.0), (2.0, 0.25)])
def test_vector_matches_scalar_integrals(ps):
    rel_tol = 1e-11
    res = integrate_semi_infinite(_kernels(ps), _kernel_spec(ps, rel_tol=rel_tol),
                                  distance_form=True)
    assert res.converged.all()
    for j, p in enumerate(ps):
        one = integrate_semi_infinite(_kernels((p,)), _kernel_spec((p,), rel_tol=rel_tol),
                                      distance_form=True)
        assert rel_err(res.value[j], one.value[0]) <= 10.0 * rel_tol, p
        assert rel_err(res.value[j], SQRT_PI / math.sqrt(p)) <= 10.0 * rel_tol, p
    # a finite range too: int_0^2 e^{-p t} dt
    spec = QuadratureSpec(lower=0.0, upper=2.0, rel_tol=rel_tol)
    g = lambda t: np.exp(np.multiply.outer(-np.asarray(ps), t))
    res = integrate_finite(g, spec)
    for j, p in enumerate(ps):
        one = integrate_finite(lambda t: np.exp(-p * t), spec)
        assert rel_err(res.value[j], one.value) <= 10.0 * rel_tol, p


def test_vector_evaluates_each_node_once():
    ps = (0.5, 1.0, 3.0)
    calls = []

    def f(t, d_lo, d_hi):
        calls.append(t)
        return _kernels(ps)(t, d_lo, d_hi)

    res = integrate_semi_infinite(f, _kernel_spec(ps), distance_form=True)
    sizes = [t.size for t in calls]
    # each call carries whole panels, several of them in most calls
    assert all(n > 0 and n % 15 == 0 for n in sizes)
    # no abscissa comes twice, whichever call carries it
    nodes = np.concatenate(calls)
    assert np.unique(nodes).size == nodes.size
    # evaluations counts the stored panels, not the quarters of a split
    # that never came
    assert res.evaluations <= sum(sizes)
    assert len(calls) < sum(sizes) // 15


def test_permuted_components_are_bit_identical():
    ps = [0.5, 1.0, 3.0, 7.5]
    base = integrate_semi_infinite(_kernels(ps), _kernel_spec(ps), distance_form=True)
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        res = integrate_semi_infinite(_kernels([ps[i] for i in perm]), _kernel_spec(ps),
                                      distance_form=True)
        assert res.evaluations == base.evaluations
        for j, i in enumerate(perm):
            assert res.value[j] == base.value[i]
            assert res.error_estimate[j] == base.error_estimate[i]
            assert res.converged[j] == base.converged[i]


def test_one_component_matches_plain_integral():
    # a (1, n) integrand is summed by the same rule as a plain one
    spec = QuadratureSpec(lower=0.0, upper=1.0, exponent_at_lower=-0.5)
    f = lambda t: np.cos(5.0 * t) / np.sqrt(t)
    plain = integrate_finite(f, spec)
    one = integrate_finite(lambda t: f(t)[None, :], spec)
    assert one.value.tolist() == [plain.value]
    assert one.evaluations == plain.evaluations


def test_nan_component_is_the_only_one_not_converged(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 40)
    spec = QuadratureSpec(lower=0.0, upper=1.0)

    def f(t, d_lo, d_hi):
        bad = np.where(t > 0.3, np.nan, 1.0)
        return np.stack([np.exp(t), bad, np.cos(t)])

    with pytest.raises(NonConvergence) as exc:
        integrate_finite(f, spec, distance_form=True)
    partial = exc.value.result
    assert partial.converged.tolist() == [True, False, True]
    assert rel_err(partial.value[0], math.e - 1.0) < 1e-12
    assert rel_err(partial.value[2], math.sin(1.0)) < 1e-12


def test_marching_stops_relative_to_target():
    # with a vanishing abs_tol the march ends where panels fall below a
    # tenth of rel_tol |I|, not where they fall below abs_tol
    spec = QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=1.0,
                          rel_tol=1e-13, abs_tol=1e-250)
    res = integrate_semi_infinite(lambda t: np.exp(-t), spec)
    assert res.converged
    assert rel_err(res.value, 1.0) < 1e-13
    assert res.evaluations < 1500


# ------------------------------------------------------------ batched calls

def test_split_children_arrive_in_one_call():
    # each refinement step halves one panel.  A split whose halves were
    # not evaluated earlier makes one call: the two adjacent halves, then
    # quarters that a later split of a half takes without a call.  The
    # first split of a substituted panel quarters both halves; a child's
    # split quarters only its half on the side the child lies in its
    # parent, where refinement towards an endpoint goes next
    calls = []

    def f(t):
        calls.append(t)
        return np.cos(60.0 * t)

    res = integrate_finite(f, QuadratureSpec(lower=0.0, upper=1.0))
    assert res.converged
    assert rel_err(res.value, math.sin(60.0) / 60.0) < 1e-10
    assert [t.size for t in calls[:2]] == [15, 15]
    assert len(calls) > 5
    substituted = 0
    for t in calls[2:]:
        panels = t.reshape(-1, 15)
        centres, widths = panels[:, 7], np.ptp(panels, axis=1)
        # halves, then quarters, each group adjacent and of equal width
        # (the right-hand substitution runs from t = 1 down)
        for group in (panels[:2], panels[2:]):
            group = group[np.argsort(group.min(axis=1))]
            assert (group[:-1].max(axis=1) < group[1:].min(axis=1)).all()
        assert np.allclose(widths[:2], widths[0], rtol=1e-9, atol=0.0)
        assert np.allclose(widths[2:], 0.5 * widths[0], rtol=1e-9, atol=0.0)
        # the panel split, and its index among the panels of its width:
        # even for the lower child of its parent, odd for the upper
        halves = np.sort(centres[:2])
        width = 2.0 * (halves[1] - halves[0])
        index = round((halves[0] - 0.25 * width) / width)
        if math.isclose(width, 0.5):
            # a substituted panel: quarters 1-2 halve the first half,
            # quarters 3-4 the second
            substituted += 1
            assert t.size == 90
            assert np.allclose(centres[2:].reshape(2, 2).mean(axis=1), centres[:2],
                               rtol=1e-12, atol=0.0)
        else:
            # a child: the quarters halve its half on its own side
            assert t.size == 60
            assert math.isclose(centres[2:].mean(), halves[index % 2], rel_tol=1e-12)
    # each substituted panel is split once
    assert substituted == 2
    assert all(t.max() < 0.5 or t.min() > 0.5 for t in calls)
    # every call stores its halves; some later splits stored quarters
    assert 15 * (2 * len(calls) - 2) < res.evaluations <= sum(t.size for t in calls)


def test_quarters_save_calls_and_each_panel_is_evaluated_once(monkeypatch):
    # t^{-1/4} with no exponent hint: refinement bisects towards t = 0
    # again and again, and every second split there takes its halves from
    # the quarters of the split before
    workspaces = []
    refine = quad._Workspace.refine

    def spy(self):
        workspaces.append(self)
        return refine(self)

    monkeypatch.setattr(quad._Workspace, "refine", spy)
    calls = []

    def f(t, d_lo, d_hi):
        calls.append(t.copy())
        return d_lo ** -0.25

    res = integrate_finite(f, QuadratureSpec(lower=0.0, upper=1.0), distance_form=True)
    assert res.converged
    assert rel_err(res.value, 4.0 / 3.0) < 1e-10
    panels = workspaces[0].panels
    splits = (len(panels) - 2) // 2
    assert len(calls) < splits
    # every stored panel's nodes are one 15-node run of exactly one call
    runs = collections.Counter(c.tobytes() for t in calls for c in t.reshape(-1, 15))
    for g, lo, hi, _, _ in panels:
        g(0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES)
        assert runs[calls.pop().tobytes()] == 1
    assert res.evaluations == 15 * len(panels)
    # each split quarters only the half refinement walks into next, so the
    # quarters of the last split are all that is evaluated and not stored
    assert sum(t.size for t in calls) <= res.evaluations + 2 * 15


def test_march_evaluates_in_blocks():
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(-t)

    spec = QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=1.0)
    res = integrate_semi_infinite(f, spec)
    assert rel_err(res.value, 1.0) < 1e-12
    # the substituted first panel on [0, 1], then blocks of unit panels
    assert calls[0].size == 15 and calls[0].max() < 1.0
    block = calls[1]
    assert block.size == 15 * _MARCH_BLOCK
    assert 1.0 < block.min() and _MARCH_BLOCK < block.max() < _MARCH_BLOCK + 1.0
    assert calls[2].size == 15 * _MARCH_BLOCK and calls[2].min() > block.max()


def test_estimate_has_a_rounding_floor(monkeypatch):
    floor = 50.0 * np.finfo(float).eps
    # exp(-s t) is integrated to the last bit; |K15 - G7| alone would
    # claim an error below one ulp of the value
    for s in (2.0, 4.0, 8.0):
        spec = QuadratureSpec(lower=0.0, upper=math.inf, decay_rate=s,
                              rel_tol=1e-11, abs_tol=1e-15)
        res = integrate_semi_infinite(lambda t: np.exp(-s * t), spec)
        assert res.converged
        assert res.error_estimate == floor * abs(res.value)
    # the floor is below every target, so converged is the unfloored rule
    rel_tol, abs_tol = 1e-13, 1e-250
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 60)
    spec = QuadratureSpec(lower=0.0, upper=1.0, rel_tol=rel_tol, abs_tol=abs_tol)

    def f(t, d_lo, d_hi):
        return np.stack([np.exp(t), np.cos(t), 1.0 / np.sqrt(np.abs(t - 0.3))])

    # the third component is singular at t = 0.3, where a node may land
    with np.errstate(divide="ignore"):
        with pytest.raises(NonConvergence) as exc:
            integrate_finite(f, spec, distance_form=True)
    res = exc.value.result
    assert res.converged.tolist() == [True, True, False]
    assert (res.error_estimate >= floor * np.abs(res.value)).all()
    target = np.maximum(rel_tol * np.abs(res.value), abs_tol)
    assert res.converged.tolist() == (res.error_estimate <= target).tolist()


def test_infinite_panel_error_never_turns_nan():
    # a node that lands on the singularity gives its panel an infinite
    # error; splitting that panel subtracted inf from inf
    spec = QuadratureSpec(lower=0.0, upper=1.0, rel_tol=1e-10)
    with np.errstate(divide="ignore"):
        with pytest.raises(NonConvergence) as exc:
            integrate_finite(lambda t: 1.0 / np.sqrt(np.abs(t - 0.3)), spec)
    res = exc.value.result
    assert res.evaluations == 15 * (2 + 2 * quad._MAX_SUBDIVISIONS)
    assert res.error_estimate == math.inf
    assert "error estimate inf" in str(exc.value)
    # a NaN region: every panel beyond t = 0.3 keeps an infinite error
    with pytest.raises(NonConvergence) as exc:
        integrate_finite(lambda t: np.where(t > 0.3, np.nan, 1.0), spec)
    assert exc.value.result.error_estimate == math.inf


def test_split_away_infinite_error_converges():
    # the centre node of the left initial panel is t = 0.25, a NaN there
    # gives that panel an infinite error; its halves miss the point, so
    # the estimate turns finite again and the integral converges
    f = lambda t: np.where(t == 0.25, np.nan, np.cos(t))
    res = integrate_finite(f, QuadratureSpec(lower=0.0, upper=1.0, rel_tol=1e-12))
    assert res.converged
    assert rel_err(res.value, math.sin(1.0)) < 1e-12
    assert 0.0 < res.error_estimate < 1e-12
