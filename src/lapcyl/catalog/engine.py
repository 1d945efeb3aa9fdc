"""Verification engine: evaluate either side of a case and compare.

The engine owns the e^{-pt} kernel: case integrands never include it,
so one original serves every p.  A Laplace pair reads p as its
transform variable; a direct integral's p is the kernel its identity
states (1 for the erf representations, 0 for the others).  The points
that share (orders, x, y) form a group, and verify alone forms them:
its original is built once and integrated as one vector-valued
integral whose component j is the original times e^{-p_j t}, so each
node evaluates the original once for the whole group, and each
component keeps its own error target.  Every point of the group
reports that shared integral's evaluations; the report counts them once.
For semi-infinite supports the smallest p of the group is added to the
piece's own decay rate so the marching quadrature knows where the mass
dies.

Whether a point can be evaluated is decided here, before any integral:
a case's validity predicate states its identity's hypotheses, and a
closed form that a special function cannot evaluate is InvalidParams too
(a NonConvergence of pcf_d's own quadrature included).  So is an error
raised while a group's original is built, such as the DomainError of a
QuadratureSpec whose endpoint exponent is not above -1, or inside its
integral (not that integral's NonConvergence).  An error here is any
LapcylError or ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .._exceptions import InvalidParams, LapcylError, NonConvergence
from ..quad import QuadratureResult, integrate_finite, integrate_semi_infinite
from .cases import REGISTRY
from .model import IdentityCase, PointRecord, VerificationReport

__all__ = [
    "get_case",
    "list_cases",
    "check_points",
    "point_passes",
    "verify",
]

_FLOOR = 1e-300


def get_case(case_id: str) -> IdentityCase:
    try:
        return REGISTRY[case_id]
    except KeyError:
        raise InvalidParams(f"unknown case id: {case_id!r}") from None


def list_cases():
    """All cases as (id, kind, label, default_tol), stable order."""
    return [(c.id, c.kind, c.label, c.tol) for c in REGISTRY.values()]


def _integrate_pieces(pieces, ps):
    """Sum of the pieces' integrals against e^{-p_j t}, for each p_j of ps.

    Each piece is one vector-valued integral, component j its original
    times e^{-p_j t}, so the original runs once per node for every p.
    Returns one QuadratureResult summed over the pieces: value, converged
    and error_estimate are arrays over ps, and the estimate is the sum of
    the per-piece quadrature estimates.
    """
    total = 0.0 + 0.0j
    evaluations = 0
    converged = True
    err_est = 0.0
    ps = np.asarray(ps, dtype=float)
    for piece in pieces:
        spec = piece.spec
        f = piece.integrand

        def g(t, d_lo, d_hi, _f=f):
            return np.exp(np.multiply.outer(-ps, t)) * _f(t, d_lo, d_hi)

        try:
            if math.isinf(spec.upper):
                # the slowest-decaying component sets the marching width
                spec = replace(spec, decay_rate=spec.decay_rate + float(ps.min()))
                res = integrate_semi_infinite(g, spec, distance_form=True)
            else:
                res = integrate_finite(g, spec, distance_form=True)
        except NonConvergence as exc:
            if exc.result is None:      # raised inside the integrand, not by quad
                raise
            res = exc.result
        total = total + res.value
        evaluations += res.evaluations
        converged = converged & res.converged
        err_est = err_est + res.error_estimate
    return QuadratureResult(total, err_est, evaluations, converged)


def _rel_error(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _FLOOR)


def check_points(case_id: str, points):
    """Raise InvalidParams at the first point that fails the case's
    validity predicate, the identity's own hypotheses."""
    case = get_case(case_id)
    for pt in points:
        reason = case.validity(pt)
        if reason is not None:
            raise InvalidParams(f"invalid grid point for {case.id}: {reason}")


def _closed_forms(case: IdentityCase, points):
    """Both closed forms of every point: image values, and closed_rhs
    values for a reduction (None for the others).  A special function
    that cannot evaluate a point, outside its domain, at a pole, beyond
    double range or through a quadrature that does not converge, makes
    the point invalid, as does any ArithmeticError, such as a division by
    a product that underflowed to zero."""
    try:
        lhs = [complex(case.image(pt)) for pt in points]
        rhs = [None if case.closed_rhs is None else complex(case.closed_rhs(pt)) for pt in points]
    except (LapcylError, ArithmeticError) as exc:
        raise InvalidParams(
            f"invalid grid point for {case.id}: {type(exc).__name__}: {exc}") from None
    return lhs, rhs


def point_passes(record: PointRecord, tol: float) -> bool:
    """The per-point verdict: within tolerance and a converged quadrature."""
    return record.rel_error <= tol and record.converged


def verify(case_id: str, grid=None, tol=None) -> VerificationReport:
    """Run a case over a grid (its default when grid is None).

    A tol that is not a number > 0 (inf is one) is InvalidParams before
    anything is evaluated; None takes the case's own.  Every point passes
    check_points and has both closed forms evaluated before any integral.
    Then the points that share (orders, x, y), in order of their first
    point, are evaluated with one shared integral, since no original
    depends on p; an error raised while its original is built, or inside
    it, is InvalidParams.  Records keep grid order, and each carries its
    group's evaluations, which the report counts once.  The case passes
    when every point does, and is skipped with none; max_rel_error is NaN
    when any point's error is, or there is none.
    """
    case = get_case(case_id)
    try:
        limit = case.tol if tol is None else float(tol)
    except (TypeError, ValueError):
        limit = math.nan
    if not limit > 0.0:
        raise InvalidParams(f"tol must be a number > 0, got {tol!r}")
    points = case.default_grid if grid is None else tuple(grid)
    check_points(case.id, points)
    lhs, rhs = _closed_forms(case, points)
    evaluations = [0] * len(points)
    converged = [True] * len(points)
    total = 0
    if case.original is not None:
        groups = {}
        for i, pt in enumerate(points):
            groups.setdefault((pt.orders, pt.x, pt.y), []).append(i)
        for idx in groups.values():
            pt = points[idx[0]]
            try:
                res = _integrate_pieces(case.original(pt), [points[i].p for i in idx])
            except (LapcylError, ArithmeticError) as exc:
                raise InvalidParams(f"cannot integrate {case.id} at orders={pt.orders}, "
                                    f"x={pt.x}, y={pt.y}: {type(exc).__name__}: {exc}") from None
            total += res.evaluations
            for i, value, c in zip(idx, res.value.tolist(), res.converged.tolist()):
                rhs[i], evaluations[i], converged[i] = value, res.evaluations, c
    records = tuple(
        PointRecord(params=pt, lhs=left, rhs=right, rel_error=_rel_error(left, right),
                    evaluations=e, converged=c)
        for pt, left, right, e, c in zip(points, lhs, rhs, evaluations, converged))
    errors = [r.rel_error for r in records]
    max_rel = math.nan if any(map(math.isnan, errors)) else max(errors, default=math.nan)
    ok = all(point_passes(r, limit) for r in records)
    return VerificationReport(
        id=case.id, kind=case.kind, records=records,
        max_rel_error=max_rel, tol=limit,
        verdict="skipped" if not records else "pass" if ok else "fail",
        evaluations=total,
    )
