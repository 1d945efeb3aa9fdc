"""Catalog of certified identities and the engine that checks them."""

from .engine import check_points, get_case, list_cases, point_passes, verify
from .model import IdentityCase, ParamPoint, Piece, PointRecord, VerificationReport

__all__ = [
    "IdentityCase",
    "ParamPoint",
    "Piece",
    "PointRecord",
    "VerificationReport",
    "check_points",
    "get_case",
    "list_cases",
    "point_passes",
    "verify",
]
