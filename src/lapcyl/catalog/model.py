"""Data shapes for the identity catalog.

A case pairs a closed-form image (built from `special`) with either a
list of integral pieces (evaluated by `quad`) or a second closed
form.  Its validity predicate states the identity's hypotheses; a case
that gives none holds at every point.  Everything is frozen so cases
can be compared, hashed, and shipped to worker processes by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..quad import QuadratureSpec

__all__ = [
    "ParamPoint",
    "Piece",
    "IdentityCase",
    "PointRecord",
    "VerificationReport",
    "KINDS",
]

KINDS = ("laplace_pair", "direct_integral", "reduction")


@dataclass(frozen=True)
class ParamPoint:
    """One parameter assignment: order pair plus the x, y, p scalars.

    Cases that involve a single order read `nu`; two-order cases read
    `mu` and `nu`.  The aliases a = sqrt(y) and b = sqrt(x) serve the
    error-function representations, where the natural parameters are the
    arguments of erf/erfc rather than their squares.  Reduction cases
    reuse the slots for whatever their identity needs; each case states
    its packing in `cases.py`.
    """

    orders: tuple = ()
    x: float = 1.0
    y: float = 1.0
    p: float = 1.0

    @property
    def mu(self) -> float:
        return self.orders[0] if self.orders else 0.0

    @property
    def nu(self) -> float:
        return self.orders[-1] if self.orders else 0.0

    @property
    def a(self) -> float:
        return math.sqrt(self.y)

    @property
    def b(self) -> float:
        return math.sqrt(self.x)


@dataclass(frozen=True)
class Piece:
    """One integral piece: integrand and quadrature description.

    The integrand is called with (t, d_lo, d_hi) float64 arrays, where
    d_lo = t - spec.lower and d_hi = spec.upper - t are exact
    displacements; any constant prefactor is folded in.  The integrand
    excludes the e^{-pt} kernel, which the engine supplies at each
    point's p, for every kind of case.
    """

    integrand: Callable
    spec: QuadratureSpec


@dataclass(frozen=True)
class IdentityCase:
    id: str
    kind: str
    label: str
    image: Callable                       # ParamPoint -> complex, at its own p
    default_grid: tuple
    tol: float
    validity: Callable = lambda pt: None  # ParamPoint -> None | reason string
    original: Optional[Callable] = None   # ParamPoint -> tuple of Piece
    closed_rhs: Optional[Callable] = None  # ParamPoint -> complex, reductions
    negative_control: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown case kind {self.kind!r}")
        if (self.original is None) == (self.closed_rhs is None):
            raise ValueError(f"case {self.id}: need exactly one right-hand side")


@dataclass(frozen=True)
class PointRecord:
    """One grid point's outcome.  evaluations counts the abscissae at
    which the integral its group shares (the points of engine.verify's
    grid with its (orders, x, y)) evaluated its integrand, so every
    record of a group carries the same count."""

    params: ParamPoint
    lhs: complex
    rhs: complex
    rel_error: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class VerificationReport:
    id: str
    kind: str
    records: tuple = field(repr=False)
    max_rel_error: float = math.nan
    tol: float = math.nan
    verdict: str = "skipped"
    evaluations: int = 0
