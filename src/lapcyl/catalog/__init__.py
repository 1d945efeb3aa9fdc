"""Catalog of certified identities and the engine that checks them."""

from .engine import (
    build_report,
    check_points,
    evaluate_point,
    get_case,
    list_cases,
    point_groups,
    point_passes,
    verify,
)
from .model import IdentityCase, ParamPoint, Piece, PointRecord, VerificationReport

__all__ = [
    "IdentityCase",
    "ParamPoint",
    "Piece",
    "PointRecord",
    "VerificationReport",
    "build_report",
    "check_points",
    "evaluate_point",
    "get_case",
    "list_cases",
    "point_groups",
    "point_passes",
    "verify",
]
