"""Verification engine: evaluate either side of a case and compare.

The engine owns the e^{-pt} kernel for Laplace pairs: case integrands
never include it, so the same closure serves every p on a grid.  For
semi-infinite supports the kernel's decay is added to the piece's own
decay rate so the marching quadrature knows where the mass dies.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .._exceptions import InvalidParams, NonConvergence
from ..quad import integrate_finite, integrate_semi_infinite
from .cases import REGISTRY, registry_order
from .model import IdentityCase, ParamPoint, PointRecord, VerificationReport

__all__ = [
    "get_case",
    "list_cases",
    "evaluate_point",
    "point_passes",
    "verify",
    "build_report",
    "reduction_suite",
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


def _integrate_pieces(pieces, p=None, rel_tol=None):
    """Sum of the pieces' integrals, each against e^{-pt} when p is given.

    Returns (value, evaluations, converged, error_estimate); the
    estimate is the sum of the per-piece quadrature estimates.
    """
    total = 0.0 + 0.0j
    evaluations = 0
    converged = True
    err_est = 0.0
    for piece in pieces:
        spec = piece.spec
        if rel_tol is not None:
            spec = replace(spec, rel_tol=float(rel_tol))
        f = piece.integrand
        if p is not None:
            def g(t, d_lo, d_hi, _f=f):
                return np.exp(-p * t) * _f(t, d_lo, d_hi)
            if math.isinf(spec.upper):
                spec = replace(spec, decay_rate=spec.decay_rate + p)
        else:
            g = f
        try:
            if math.isinf(spec.upper):
                res = integrate_semi_infinite(g, spec, distance_form=True)
            else:
                res = integrate_finite(g, spec, distance_form=True)
        except NonConvergence as exc:
            res = exc.result
            converged = False
        total += res.value
        evaluations += res.evaluations
        err_est += res.error_estimate
    return complex(total), evaluations, converged, err_est


def _rhs_detail(case: IdentityCase, params: ParamPoint, rel_tol=None):
    """Integral side with bookkeeping, as returned by _integrate_pieces."""
    if case.closed_rhs is not None:
        return complex(case.closed_rhs(params, params.p)), 0, True, 0.0
    p = params.p if case.kind == "laplace_pair" else None
    return _integrate_pieces(case.original(params), p, rel_tol)


def _rel_error(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _FLOOR)


def evaluate_point(case_id: str, params: ParamPoint) -> PointRecord:
    """One grid point end to end.

    Module-level on purpose: worker processes receive (case_id, params)
    and re-resolve the case from their own import-time registry, since
    the integrand closures themselves do not pickle.
    """
    case = get_case(case_id)
    reason = case.validity(params)
    if reason is not None:
        raise InvalidParams(f"{case.id}: {reason}")
    lhs = complex(case.image(params, params.p))
    rhs, evaluations, converged, _ = _rhs_detail(case, params)
    return PointRecord(
        params=params,
        lhs=lhs,
        rhs=rhs,
        rel_error=_rel_error(lhs, rhs),
        evaluations=evaluations,
        converged=converged,
    )


def point_passes(record: PointRecord, tol: float) -> bool:
    """The per-point verdict: within tolerance and a converged quadrature."""
    return record.rel_error <= tol and record.converged


def build_report(case_id: str, records, tol=None) -> VerificationReport:
    """Assemble a report from already-computed point records.

    The case passes when every point does; max_rel_error is NaN when
    any point's error is.
    """
    case = get_case(case_id)
    tol = case.tol if tol is None else float(tol)
    records = tuple(records)
    if not records:
        return VerificationReport(
            id=case.id, kind=case.kind, records=records,
            max_rel_error=math.nan, tol=tol, verdict="skipped",
            evaluations=0,
        )
    errors = [r.rel_error for r in records]
    max_rel = math.nan if any(map(math.isnan, errors)) else max(errors)
    ok = all(point_passes(r, tol) for r in records)
    return VerificationReport(
        id=case.id, kind=case.kind, records=records,
        max_rel_error=max_rel, tol=tol,
        verdict="pass" if ok else "fail",
        evaluations=sum(r.evaluations for r in records),
    )


def verify(case_id: str, grid=None, tol=None) -> VerificationReport:
    """Run a case over a grid (its default when grid is None)."""
    case = get_case(case_id)
    points = case.default_grid if grid is None else tuple(grid)
    records = [evaluate_point(case.id, pt) for pt in points]
    return build_report(case.id, records, tol=tol)


def reduction_suite():
    """Verify every reduction case; the closed-vs-closed sanity layer."""
    return [verify(cid) for cid in registry_order()
            if REGISTRY[cid].kind == "reduction"]
