"""Catalog invariants: registry shape, cross-case algebra, quadrature
error honesty, and the negative controls.

The full grid battery lives in test_acceptance; here each check touches
the fewest points that can falsify the property.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from lapcyl import InvalidParams, quad
from lapcyl.catalog import (
    IdentityCase,
    ParamPoint,
    check_points,
    get_case,
    list_cases,
    point_passes,
    verify,
)
from lapcyl.catalog.cases import REGISTRY
from lapcyl.catalog.engine import _integrate_pieces
from lapcyl.quad import integrate_finite, integrate_semi_infinite
from lapcyl.special import gamma, gauss_2f1_cm, hyp_2f2, reciprocal_gamma as rg

LAPLACE_IDS = [r[0] for r in list_cases() if r[1] == "laplace_pair"]
# the originals beyond the T31-T34 family whose pieces are built from
# data (term lists, Gaussian-2F2 pieces), once hand-written closures
GAUSS_ORIGINALS = ["T42-CORRECTED", "NEG-T42", "S51-INT", "S52-INT"]
TERM_ORIGINALS = [
    "ILT-PCF-BLOCK", "ILT-PCF-BLOCK2", "ILT-KUM-BLOCK", "ILT-KUM-BLOCK-32",
    "ILT-KUM-BLOCK-12", "C341-SINGLE", "T35-POS-HALF", "T36-POS",
    "C321-ERF-MIX", "C321-REP", "C361-ERFC-SINGLE", "C361-ONE-MINUS",
    *GAUSS_ORIGINALS,
]

EXPECTED_IDS = [
    "ILT-PCF-BLOCK", "ILT-PCF-BLOCK2", "ILT-KUM-BLOCK", "ILT-KUM-BLOCK-32",
    "ILT-KUM-BLOCK-12", "T31-DIFF-HALF", "T31-KUMMER", "T32-DIFF",
    "C321-ERF-MIX", "C321-REP", "T33-SUM-HALF", "T33-KUMMER",
    "T34-NEG-HALF", "C341-SINGLE", "T35-POS-HALF", "T36-POS",
    "C361-ERFC2", "C361-REP", "C361-ERFC-SINGLE", "C361-ONE-MINUS",
    "C361-NG69", "T41-CORRECTED", "NEG-T41", "T42-CORRECTED", "NEG-T42",
    "S51-INT", "S52-INT", "RED-SUM-DIFF", "RED-SUM-ADD", "RED-RECURRENCE",
    "RED-2F1-EULER", "RED-2F1-PFAFF", "RED-2F1-CONNECT", "RED-2F1-QUAD22",
    "RED-2F1-CONTIG", "RED-APPELL", "RED-GAUSS-SUM", "RED-ERFC-REFLECT",
]


class TestRegistry:
    def test_listing_is_complete_and_ordered(self):
        rows = list_cases()
        assert [r[0] for r in rows] == EXPECTED_IDS
        assert len(rows) >= 20

    def test_listing_is_stable(self):
        assert list_cases() == list_cases()

    def test_rows_are_full_tuples(self):
        for cid, kind, label, tol in list_cases():
            assert kind in ("laplace_pair", "direct_integral", "reduction")
            assert isinstance(label, str) and label
            assert 0.0 < tol <= 1e-8

    def test_default_tols_by_kind(self):
        for cid, kind, _, tol in list_cases():
            if cid.startswith("ILT-"):
                assert tol == 1e-9
            elif cid == "C361-NG69":
                assert tol == 1e-10
            elif kind == "reduction":
                assert tol == 1e-10

    def test_unknown_id_rejected(self):
        with pytest.raises(InvalidParams):
            get_case("NO-SUCH-CASE")
        with pytest.raises(InvalidParams):
            verify("NO-SUCH-CASE")

    def test_grids_satisfy_their_own_validity(self):
        for case in REGISTRY.values():
            for pt in case.default_grid:
                assert case.validity(pt) is None, (case.id, pt)

    def test_pinned_grid_size(self):
        # the difference-product case documents a 108-point default grid
        assert len(get_case("T31-DIFF-HALF").default_grid) == 108

    def test_every_laplace_case_min_points(self):
        for case in REGISTRY.values():
            if case.kind == "laplace_pair":
                assert len(case.default_grid) >= 24, case.id


# `id mu nu x y p` and the reason the case's validity gives there.  Each
# predicate gets one row per rule, in order, whose point meets the rules
# before it and fails that one; a predicate of two or more rules also gets
# a point that fails every rule it can (S51's Re(mu + nu) < 1 and
# mu + nu != 0 exclude each other), which gets the first rule's reason.
# The NaN and inf rows pin that a rule fails unless its test holds.
REASONS = [
    ("ILT-PCF-BLOCK 0 -0.5 1 1 1", "requires nu > 0, a > 0, p > 0"),
    ("ILT-KUM-BLOCK 0 0.5 1 1 0", "requires nu > 0, x > 0, p > 0"),
    ("ILT-KUM-BLOCK-32 0 1 1 1 1", "requires -2 < nu < 1"),
    ("ILT-KUM-BLOCK-32 0 0.5 0 1 1", "requires x > 0, p > 0"),
    ("ILT-KUM-BLOCK-32 0 -2 -1 1 0", "requires -2 < nu < 1"),
    ("ILT-KUM-BLOCK-32 0 -inf 1 1 1", "requires -2 < nu < 1"),
    ("ILT-KUM-BLOCK-12 0 0 1 1 1", "requires -1 < nu < 0"),
    ("ILT-KUM-BLOCK-12 0 -0.5 1 1 -1", "requires x > 0, p > 0"),
    ("ILT-KUM-BLOCK-12 0 -1 0 1 0", "requires -1 < nu < 0"),
    ("T31-DIFF-HALF -0.5 -0.5 1 0 1", "requires x > 0, y > 0, p > 0"),
    ("T31-DIFF-HALF -0.5 1 1 1 1", "requires Re nu < 1"),
    ("T31-DIFF-HALF 0.5 0.5 1 1 1", "requires Re mu < min(1 - nu, 2 + nu)"),
    ("T31-DIFF-HALF 2 1 -1 1 1", "requires x > 0, y > 0, p > 0"),
    ("T31-DIFF-HALF -0.5 -0.5 1 1 nan", "requires x > 0, y > 0, p > 0"),
    ("T31-KUMMER -0.5 -0.5 1 1 0", "requires x > 0, y > 0, p > 0"),
    ("T31-KUMMER 0 -0.5 1 1 1", "requires Re mu < 0"),
    ("T31-KUMMER -0.5 -2 1 1 1", "requires -2 < Re nu < 1"),
    ("T31-KUMMER 0 1 0 1 1", "requires x > 0, y > 0, p > 0"),
    ("T32-DIFF -0.75 -0.5 -1 1 1", "requires x > 0, y > 0, p > 0"),
    ("T32-DIFF -0.75 1 1 1 1", "requires Re nu < 1"),
    ("T32-DIFF 0.25 -0.25 1 1 1", "requires Re mu < min(-nu, 1 + nu)"),
    ("T32-DIFF -1 -0.5 1 1 1", "requires mu != -1 (coefficient pole)"),
    ("T32-DIFF -1 2 -1 1 1", "requires x > 0, y > 0, p > 0"),
    ("T32-DIFF nan -0.5 1 1 1", "requires Re mu < min(-nu, 1 + nu)"),
    ("C321-ERF-MIX 0 0 1 1 -1", "requires x > 0, y > 0, p > 0"),
    ("C321-REP 0 0 0 1 1", "requires a > 0, b > 0"),
    ("C321-REP 0 0 1 1 0.5", "requires p = 1"),
    ("C321-REP 0 0 1 0 0", "requires a > 0, b > 0"),
    ("C321-REP 0 0 1 1 nan", "requires p = 1"),
    ("T33-KUMMER -0.6 -0.45 1 1 0", "requires x > 0, y > 0, p > 0"),
    ("T33-KUMMER -0.6 0 1 1 1", "requires -1 < Re nu < 0"),
    ("T33-KUMMER 1 -0.45 1 1 1", "requires Re mu < 1"),
    ("T33-KUMMER 1 -1 1 -1 1", "requires x > 0, y > 0, p > 0"),
    ("C341-SINGLE 0 -0.5 0 0 1", "requires x > 0, p > 0"),
    ("C341-SINGLE 0 1 1 1 1", "requires Re nu < 1"),
    ("C341-SINGLE 0 1 1 1 0", "requires x > 0, p > 0"),
    ("T35-POS-HALF -0.5 -0.5 1 1 0", "requires x > 0, y > 0, p > 0"),
    ("T35-POS-HALF 0.5 0.5 1 1 1", "requires Re(mu + nu) < 1"),
    ("T35-POS-HALF 0.5 0.5 -1 1 1", "requires x > 0, y > 0, p > 0"),
    ("T36-POS -0.5 -0.5 0 1 1", "requires x > 0, y > 0, p > 0"),
    ("T36-POS 0.5 -0.5 1 1 1", "requires Re(mu + nu) < 0 for a convergent original"),
    ("T36-POS 0 0 1 1 -1", "requires x > 0, y > 0, p > 0"),
    ("C361-ERFC-SINGLE 0 0 0 1 1", "requires b > 0"),
    ("C361-ERFC-SINGLE 0 0 1 1 2", "requires p = 1"),
    ("C361-ERFC-SINGLE 0 0 -1 1 0", "requires b > 0"),
    ("C361-NG69 0 0 1 0 0", "requires a > 0"),
    ("C361-NG69 0 0 1 1 1", "requires p = 0"),
    ("C361-NG69 0 0 1 -1 1", "requires a > 0"),
    ("T41-CORRECTED 0 0.25 1 1 0", "requires a > 0, p > 0"),
    ("NEG-T41 0 0.25 1 0 1", "requires a > 0, p > 0"),
    ("NEG-T41 0 0.25 9 9 1", "requires a <= 2 so the printed arccos argument stays in [-1, 1]"),
    ("NEG-T41 0 0.25 9 9 0", "requires a > 0, p > 0"),
    ("NEG-T41 0 0.25 1 inf 1", "requires a <= 2 so the printed arccos argument stays in [-1, 1]"),
    ("T42-CORRECTED -0.5 -0.5 1 1 0", "requires a > 0, p > 0"),
    ("T42-CORRECTED 0.5 -0.5 1 1 1", "requires Re(mu + nu) < 0"),
    ("T42-CORRECTED 0.5 0.5 1 -1 1", "requires a > 0, p > 0"),
    ("S51-INT -0.5 -0.5 1 0 0", "requires x > 0, y > 0"),
    ("S51-INT 0.5 0.5 1 1 0", "requires Re(mu + nu) < 1"),
    ("S51-INT 0.5 -0.5 1 1 0", "requires mu + nu != 0 (coefficient pole)"),
    ("S51-INT -0.5 -0.5 1 1 1", "requires p = 0"),
    ("S51-INT 1 1 -1 1 1", "requires x > 0, y > 0"),
    ("S51-INT nan 0 1 1 0", "requires Re(mu + nu) < 1"),
    ("S52-INT -0.5 -0.5 0 1 0", "requires x > 0, y > 0"),
    ("S52-INT 0.5 -0.5 1 1 0", "requires Re(mu + nu) < 0"),
    ("S52-INT -0.5 -0.5 1 1 3", "requires p = 0"),
    ("S52-INT 1 1 1 -1 1", "requires x > 0, y > 0"),
    ("RED-GAUSS-SUM 0.1 0.2 1.5 1 1", "requires (a, b, c) with a frozen target, one of "
                                      "[(-0.5, 0.5, 1.5), (0.25, 0.25, 1.0), (0.3, 0.4, 2.2)]"),
]


class TestValidity:
    @pytest.mark.parametrize("row, reason", REASONS)
    def test_each_rule_gives_its_reason(self, row, reason):
        cid, *values = row.split()
        mu, nu, x, y, p = map(float, values)
        assert get_case(cid).validity(ParamPoint(orders=(mu, nu), x=x, y=y, p=p)) == reason


    def test_out_of_range_order_rejected(self):
        pt = ParamPoint(orders=(0.5, 1.5), x=1.0, y=1.0, p=1.0)
        with pytest.raises(InvalidParams, match="T31-DIFF-HALF"):
            verify("T31-DIFF-HALF", grid=(pt,))

    def test_image_argument_beyond_pcf_range_rejected(self):
        # sqrt(2 x p) = 44.7 is outside pcf_d's |z| <= 40
        pt = ParamPoint(orders=(-0.5, -0.5), x=2.0, y=2.0, p=500.0)
        with pytest.raises(InvalidParams, match="above the supported range"):
            verify("T31-DIFF-HALF", grid=(pt,))
        with pytest.raises(InvalidParams, match="above the supported range"):
            verify("T31-DIFF-HALF", grid=[get_case("T31-DIFF-HALF").default_grid[0], pt])

    def test_gauss_sum_without_frozen_target_rejected(self):
        pt = ParamPoint(orders=(0.1, 0.2), x=1.5, y=1.0, p=1.0)
        with pytest.raises(InvalidParams, match="frozen target"):
            verify("RED-GAUSS-SUM", grid=(pt,))

    def test_half_kind_kummer_window(self):
        pt = ParamPoint(orders=(0.5,), x=1.0, y=1.0, p=1.0)
        with pytest.raises(InvalidParams, match="-1 < nu < 0"):
            verify("ILT-KUM-BLOCK-12", grid=(pt,))

    @pytest.mark.parametrize("tol", ["abc", math.nan, 0.0, -1.0])
    def test_bad_tol_rejected_before_any_evaluation(self, monkeypatch, tol):
        calls = []
        case = get_case("T31-DIFF-HALF")
        monkeypatch.setitem(REGISTRY, case.id, dataclasses.replace(
            case, image=lambda pt: calls.append("closed form")))
        monkeypatch.setattr(quad._Workspace, "evaluate", lambda *args: calls.append("integrand"))
        with pytest.raises(InvalidParams, match="tol must be a number > 0"):
            verify(case.id, tol=tol)
        assert calls == []

    def test_infinite_tol_accepted(self):
        rep = verify("RED-ERFC-REFLECT", tol=math.inf)
        assert rep.tol == math.inf and rep.verdict == "pass"

    def test_empty_grid_is_skipped(self):
        rep = verify("RED-ERFC-REFLECT", grid=())
        assert rep.verdict == "skipped"
        assert math.isnan(rep.max_rel_error)
        assert rep.evaluations == 0


class TestModelValidation:
    def _mk(self, **kw):
        base = dict(
            id="X", kind="laplace_pair", label="x",
            image=lambda pt: 1.0, validity=lambda pt: None,
            default_grid=(), tol=1e-8,
            original=lambda pt: (),
        )
        base.update(kw)
        return IdentityCase(**base)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self._mk(kind="bogus")

    def test_exactly_one_rhs_required(self):
        with pytest.raises(ValueError):
            self._mk(original=None)
        with pytest.raises(ValueError):
            self._mk(closed_rhs=lambda pt: 1.0)

    def test_validity_defaults_to_no_hypotheses(self, monkeypatch):
        base = dict(id="X", kind="reduction", label="x", image=lambda pt: 1.0,
                    closed_rhs=lambda pt: 1.0, default_grid=(), tol=1e-8)
        monkeypatch.setitem(REGISTRY, "X", IdentityCase(**base))
        check_points("X", [ParamPoint(orders=(-7.0, math.nan), x=-1.0, y=math.inf, p=0.0)])


def image(cid, pt):
    """Closed-form side of a case at a point inside its validity region."""
    case = get_case(cid)
    assert case.validity(pt) is None, (cid, pt)
    return case.image(pt)


class TestImageAlgebra:
    """Cross-case identities among the closed forms, no quadrature."""

    def test_difference_sum_single_chain(self):
        # the single-product image is the mean of the difference image
        # and the sum image, point by point
        case34 = get_case("T34-NEG-HALF")
        for pt in case34.default_grid:
            v31 = image("T31-DIFF-HALF", pt)
            v33 = image("T33-SUM-HALF", pt)
            v34 = image("T34-NEG-HALF", pt)
            scale = max(abs(v31), abs(v33), abs(v34), 1e-300)
            assert abs(v34 - 0.5 * (v31 + v33)) <= 1e-12 * scale

    def test_single_product_image_makes_two_pcf_calls(self, monkeypatch):
        # D_mu(sqrt(2yp)) and D_nu(-sqrt(2xp)); D_nu(+sqrt(2xp)) is not needed
        from lapcyl.catalog import cases

        calls, pcf_d = [], cases.pcf_d

        def counting(nu, z):
            calls.append((nu, z))
            return pcf_d(nu, z)

        monkeypatch.setattr(cases, "pcf_d", counting)
        grid = get_case("T34-NEG-HALF").default_grid
        for pt in grid:
            image("T34-NEG-HALF", pt)
        assert len(calls) == 2 * len(grid)

    @pytest.mark.parametrize("cid", ["T35-POS-HALF", "T36-POS"])
    def test_positive_product_images_are_symmetric(self, cid):
        case = get_case(cid)
        for pt in case.default_grid:
            swapped = ParamPoint(orders=(pt.nu, pt.mu), x=pt.y, y=pt.x, p=pt.p)
            v = image(cid, pt)
            w = image(cid, swapped)
            assert abs(v - w) <= 1e-12 * max(abs(v), abs(w), 1e-300)


class TestQuadratureHonesty:
    """Tightening rel_tol by two decades moves the answer by less than
    the error estimate reported at the base tolerance."""

    @pytest.mark.parametrize("cid", LAPLACE_IDS)
    def test_doubling_precision_within_estimate(self, cid):
        # on the whole p group of the middle grid point, per component
        case = get_case(cid)
        mid = case.default_grid[len(case.default_grid) // 2]
        group = [pt for pt in case.default_grid
                 if (pt.orders, pt.x, pt.y) == (mid.orders, mid.x, mid.y)]
        tight = dataclasses.replace(case, original=lambda pt: tuple(
            dataclasses.replace(pc, spec=dataclasses.replace(pc.spec, rel_tol=1e-13))
            for pc in case.original(pt)))
        ps = [pt.p for pt in group]
        base = _integrate_pieces(case.original(mid), ps)
        tighter = _integrate_pieces(tight.original(mid), ps)
        assert all(base.converged) and all(tighter.converged)
        for a, b, est in zip(base.value, tighter.value, base.error_estimate):
            assert est > 0.0
            assert abs(a - b) <= est


class TestNegativeControls:
    @pytest.mark.parametrize("neg, pos", [
        ("NEG-T41", "T41-CORRECTED"),
        ("NEG-T42", "T42-CORRECTED"),
    ])
    def test_wrong_forms_fail_loudly(self, neg, pos):
        bad = verify(neg)
        good = verify(pos)
        assert good.verdict == "pass"
        assert bad.verdict == "fail"
        assert bad.max_rel_error >= 1e-2
        # discrimination: at least three orders between the two worlds
        assert bad.max_rel_error >= 1e3 * good.max_rel_error

    def test_controls_are_flagged(self):
        for case in REGISTRY.values():
            assert case.negative_control == case.id.startswith("NEG-")


class TestSpotChecks:
    @pytest.mark.parametrize("cid", [
        "ILT-PCF-BLOCK", "ILT-KUM-BLOCK-12", "C321-REP", "C361-NG69",
    ])
    def test_light_cases_pass(self, cid):
        rep = verify(cid)
        assert rep.verdict == "pass"
        assert rep.max_rel_error <= rep.tol

    def test_point_record_fields(self):
        pt = get_case("C361-ERFC-SINGLE").default_grid[0]
        rec = verify("C361-ERFC-SINGLE", grid=(pt,)).records[0]
        assert rec.converged
        expect = abs(rec.lhs - rec.rhs) / max(abs(rec.lhs), abs(rec.rhs), 1e-300)
        assert rec.rel_error == expect
        assert rec.evaluations > 0

    def test_eval_sides_agree(self):
        pt = get_case("C361-ERFC-SINGLE").default_grid[1]
        rec = verify("C361-ERFC-SINGLE", grid=(pt,)).records[0]
        assert abs(rec.lhs - rec.rhs) <= 1e-9 * abs(rec.lhs)


# Known defect, pinned as a strict xfail so that fixing it shows up here.
_ENDPOINT_UNDERFLOW = (
    "ROADMAP item 1: as frac(nu) nears 1 the endpoint substitution's u ** q "
    "underflows to 0, the 2F1 complement of the original becomes infinite "
    "and gauss_2f1_cm raises DomainError inside the integrand")


class TestEndpointWeights:
    @pytest.mark.parametrize("nu", [
        0.9,
        pytest.param(0.99, marks=pytest.mark.xfail(strict=True, reason=_ENDPOINT_UNDERFLOW)),
        pytest.param(0.999, marks=pytest.mark.xfail(strict=True, reason=_ENDPOINT_UNDERFLOW)),
    ])
    def test_order_near_one_passes(self, nu):
        pt = ParamPoint(orders=(-0.5, nu), x=1.0, y=1.0, p=1.0)
        rep = verify("T31-DIFF-HALF", grid=(pt,))
        assert rep.verdict == "pass"
        assert rep.records[0].rel_error <= 1e-13


class TestZeroOrders:
    """T34's predicate admits mu = 0 and nu = 0, where Gamma(-mu/2) or
    Gamma(-nu/2) has a pole; its original is finite there."""

    @pytest.mark.parametrize("mu, nu", [(0.0, -0.5), (-0.5, 0.0), (0.0, 0.5)])
    def test_t34_passes(self, mu, nu):
        pt = ParamPoint(orders=(mu, nu), x=1.0, y=1.0, p=1.0)
        rep = verify("T34-NEG-HALF", grid=(pt,))
        assert rep.verdict == "pass"
        if mu == 0.0:
            # D_0(z) = e^{-z^2/4}, so at x = y the image is Corollary 3.4.1's
            single = image("C341-SINGLE", ParamPoint(orders=(nu,), x=1.0, y=1.0, p=1.0))
            assert abs(rep.records[0].lhs - single) <= 1e-14 * abs(single)


# The endpoint exponents the built originals declared by hand before their
# hints were derived from the builders' data: the (0,x) piece's 2F1
# argument tends to -infinity at x, the (x,inf) piece's to 1 at x.
def _lam_inf(explicit, fa, fb):
    return explicit + min(0.0, fa, fb)


def _lam_one(explicit, cab):
    return explicit + min(0.0, cab)


def _hand_hints(cid, mu, nu):
    """[(exponent_at_lower, exponent_at_upper)] per piece; a single-order
    case has mu = nu."""
    s = mu + nu
    plain = {
        "ILT-PCF-BLOCK": [(nu - 1.0, 0.0)],
        "ILT-PCF-BLOCK2": [(nu - 1.0, 0.0)],
        "ILT-KUM-BLOCK": [(0.25, nu - 1.0)],
        "ILT-KUM-BLOCK-32": [(nu / 2.0, -(1.0 + nu) / 2.0)],
        "ILT-KUM-BLOCK-12": [((nu - 1.0) / 2.0, -nu / 2.0 - 1.0)],
        "C341-SINGLE": [(nu / 2.0, -(1.0 + nu) / 2.0), (-(1.0 + nu) / 2.0, 0.0)],
        "T35-POS-HALF": [(-(1.0 + s) / 2.0, 0.0)],
        "T36-POS": [(-1.0 - s / 2.0, 0.0)],
        "C321-ERF-MIX": [(-0.5, 0.0), (0.0, 0.0)],
        "C321-REP": [(-0.5, 0.0), (0.0, 0.0)],
        "C361-ERFC-SINGLE": [(-0.5, 0.0)],
        "C361-ONE-MINUS": [(-0.5, 0.0), (-0.5, 0.0)],
        "T42-CORRECTED": [(-(1.0 + s), 0.0)],
        "NEG-T42": [(-(1.0 + s), 0.0)],
        "S51-INT": [(-s, 0.0)],
        "S52-INT": [(-(1.0 + mu + nu), 0.0)],
    }
    if cid in plain:
        return plain[cid]
    lo = ((nu - mu) / 2.0, _lam_inf(-(1.0 + nu) / 2.0, -mu / 2.0, (1.0 + nu) / 2.0))
    hi = (_lam_one(-(1.0 + s) / 2.0, (1.0 + s) / 2.0), 0.0)
    if cid == "T32-DIFF":
        lo = (-(1.0 + mu - nu) / 2.0,
              _lam_inf(-(1.0 + nu) / 2.0, -(1.0 + mu) / 2.0, (1.0 + nu) / 2.0))
        hi = (min(_lam_one(-(2.0 + s) / 2.0, (2.0 + s) / 2.0), _lam_one(-s / 2.0, s / 2.0)), 0.0)
    elif cid == "T33-KUMMER":
        lo = ((nu - mu) / 2.0, _lam_inf(-1.0 - nu / 2.0, (1.0 - mu) / 2.0, 1.0 + nu / 2.0))
    return [lo, hi]


class TestDerivedHints:
    @pytest.mark.parametrize("cid", [
        "T31-DIFF-HALF", "T31-KUMMER", "T32-DIFF",
        "T33-SUM-HALF", "T33-KUMMER", "T34-NEG-HALF",
        *TERM_ORIGINALS,
    ])
    def test_hints_equal_hand_derived(self, cid):
        case = get_case(cid)
        for pt in (*case.default_grid, *_off_diagonal(case)):
            pieces = case.original(pt)
            want = _hand_hints(cid, pt.mu, pt.nu)
            decay = _gauss_rates(cid, pt)[1]
            assert len(pieces) == len(want), pt
            for pc, w in zip(pieces, want):
                g = (pc.spec.exponent_at_lower, pc.spec.exponent_at_upper)
                assert abs(g[0] - w[0]) <= 1e-15 and abs(g[1] - w[1]) <= 1e-15, (pt, g, w)
                assert abs(pc.spec.decay_rate - decay) <= 4 * np.spacing(decay), (pt, pc.spec)


def _off_diagonal(case):
    """A few default points moved to x != y, either way round."""
    return [dataclasses.replace(pt, x=xx, y=yy)
            for pt in case.default_grid[:: len(case.default_grid) // 4]
            for xx, yy in ((0.3, 1.7), (2.5, 0.4))]


def _gauss_rates(cid, pt):
    """(damp, decay) of a Gaussian-2F2 original as written by hand: its
    e^{-damp t^2} factor and its decay hint; (0, 0) for any other case."""
    x, y = pt.x, pt.y
    if cid in ("T42-CORRECTED", "NEG-T42"):
        return 0.5 / y, 0.5 / math.sqrt(y)
    if cid in ("S51-INT", "S52-INT"):
        return (x + y) / (4.0 * x * y), math.sqrt((2.0 * x + y) / (8.0 * x * y))
    return 0.0, 0.0


# The originals of TERM_ORIGINALS, each written out as one line in
# (t, d_lo, d_hi) as their hand-written integrands were, one function per
# piece, the pieces that stay closures included.  A function returns the
# parts whose sum is the original: T36's brace and C361-ONE-MINUS's first
# piece are differences that can cancel, so the test scales by the parts'
# magnitudes.
def _one_line_originals(cid, pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    s = mu + nu
    if cid in ("C321-ERF-MIX", "C321-REP"):
        sc = math.exp(-y) if cid == "C321-REP" else 1.0
        return [lambda t, dl, dh: [sc * math.sqrt(y) / math.pi / (np.sqrt(t) * (y + t))],
                lambda t, dl, dh: [-sc * math.sqrt(x) / math.pi / (np.sqrt(y + dl) * (y + t))]]
    if cid == "C361-ERFC-SINGLE":
        return [lambda t, dl, dh: [math.sqrt(x) * math.exp(-x) / math.pi / (np.sqrt(t) * (t + x))]]
    if cid == "C361-ONE-MINUS":
        cx, cy = (math.sqrt(v) * math.exp(-v) / math.pi for v in (x, y))
        return [lambda t, dl, dh: [cx / (np.sqrt(t) * (t + x)),
                                   -cx * math.exp(-y) / ((t + x + y) * np.sqrt(t + y))],
                lambda t, dl, dh: [cy / (np.sqrt(t) * (t + y))]]

    def f22(z):  # zeroed past z = 200, where the Gaussian has won
        return hyp_2f2(-mu, -nu, -s / 2.0, (1.0 - s) / 2.0, np.minimum(z, 200.0)) * (z <= 200.0)

    if cid in ("T42-CORRECTED", "NEG-T42"):
        return [lambda t, dl, dh: [rg(-s) * y ** (s / 2.0) * t ** (-(1.0 + s))
                                   * np.exp(-t * t / (2.0 * y)) * f22(t * t / (4.0 * y))]]
    if cid in ("S51-INT", "S52-INT"):
        k = 1.0 if cid == "S52-INT" else 0.0
        return [lambda t, dl, dh: [t ** (-s - k) * np.exp(-(x + y) / (4.0 * x * y) * t * t)
                                   * f22(t * t / (8.0 * x))]]
    if cid == "ILT-PCF-BLOCK":
        return [lambda t, dl, dh: [2.0 ** (-nu) * math.sqrt(y) * t ** (nu - 1.0)
                                   * (t + y) ** (-nu - 0.5)]]
    if cid == "ILT-PCF-BLOCK2":
        return [lambda t, dl, dh: [2.0 ** (0.5 - nu) * t ** (nu - 1.0) * (t + y) ** (0.5 - nu)]]
    if cid == "ILT-KUM-BLOCK":
        return [lambda t, dl, dh: [x ** (-nu - 0.25) * gamma(nu + 1.25) * rg(1.25) * rg(nu)
                                   * t ** 0.25 * dh ** (nu - 1.0)]]
    if cid == "ILT-KUM-BLOCK-32":
        return [lambda t, dl, dh: [t ** (nu / 2.0) * dh ** (-(1.0 + nu) / 2.0)]]
    if cid == "ILT-KUM-BLOCK-12":
        return [lambda t, dl, dh: [t ** ((nu - 1.0) / 2.0) * dh ** (-nu / 2.0 - 1.0)]]
    if cid == "C341-SINGLE":
        c1 = 2.0 ** (-nu / 2.0) * math.sqrt(math.pi) * rg(-nu) * rg(1.0 + nu / 2.0)
        c2 = 2.0 ** (nu / 2.0) * rg((1.0 - nu) / 2.0)
        return [lambda t, dl, dh: [c1 * t ** (nu / 2.0) * dh ** (-(1.0 + nu) / 2.0)],
                lambda t, dl, dh: [c2 * t ** (nu / 2.0) * dl ** (-(1.0 + nu) / 2.0)]]
    if cid == "T35-POS-HALF":
        return [lambda t, dl, dh: [
            2.0 ** (s / 2.0) * rg((1.0 - s) / 2.0) * t ** (-(1.0 + s) / 2.0)
            * (y + t) ** (mu / 2.0) * (x + t) ** (nu / 2.0)
            * gauss_2f1_cm(-mu / 2.0, -nu / 2.0, (1.0 - s) / 2.0, x * y / ((x + t) * (y + t)))]]
    assert cid == "T36-POS"

    def t36(t, dl, dh):
        cm = x * y / ((x + t) * (y + t))
        pre = (2.0 ** (s / 2.0) / math.sqrt(x) * rg(-s / 2.0) * t ** (-1.0 - s / 2.0)
               * (y + t) ** (mu / 2.0) * (x + t) ** ((1.0 + nu) / 2.0))
        return [pre * gauss_2f1_cm(-mu / 2.0, -(1.0 + nu) / 2.0, -s / 2.0, cm),
                -pre * nu * t / (s * (x + t))
                * gauss_2f1_cm(-mu / 2.0, (1.0 - nu) / 2.0, 1.0 - s / 2.0, cm)]

    return [t36]


def _groups(points):
    """Indices of the points that share one integral, by (orders, x, y):
    groups in order of their first point, indices in grid order."""
    groups = {}
    for i, pt in enumerate(points):
        groups.setdefault((pt.orders, pt.x, pt.y), []).append(i)
    return list(groups.values())


def _first_group(points):
    return [points[i] for i in _groups(points)[0]]


def _nodes(rng, lower, upper):
    """Seeded nodes inside (lower, upper), dense toward both ends."""
    if math.isinf(upper):
        return lower + 10.0 ** rng.uniform(-6.0, 2.0, 40)
    u = np.concatenate([rng.uniform(0.0, 1.0, 20), 10.0 ** rng.uniform(-6.0, -1.0, 10),
                        1.0 - 10.0 ** rng.uniform(-6.0, -1.0, 10)])
    return lower + (upper - lower) * u


class TestTermOriginals:
    """Every piece of a built original equals its original written out by
    hand at seeded nodes.  The off-diagonal points have x != y, so a term
    whose d and Y slots were swapped shows here; the ILT-PCF grids have
    x = y, so verify alone could not see it.  Off powers of two the
    builder's exponent -damp t^2 rounds unlike the hand-written one, so a
    Gaussian piece's bound grows with damp t^2."""

    @pytest.mark.parametrize("cid", TERM_ORIGINALS)
    def test_pieces_match_one_line_originals(self, cid):
        case = get_case(cid)
        rng = np.random.default_rng(13)
        for pt in (*case.default_grid, *_off_diagonal(case)):
            damp = _gauss_rates(cid, pt)[0]
            assert case.validity(pt) is None, pt
            pieces = case.original(pt)
            wants = _one_line_originals(cid, pt)
            assert len(pieces) == len(wants)
            for pc, want in zip(pieces, wants):
                lo, up = pc.spec.lower, pc.spec.upper
                t = _nodes(rng, lo, up)
                args = (t, t - lo, up - t)
                parts = want(*args)
                err = np.abs(pc.integrand(*args) - sum(parts))
                bound = 1e-15 * (1.0 + damp * t * t) * sum(map(np.abs, parts))
                assert np.all(err <= bound), (pt, pc.spec)


class TestCaseVerdicts:
    """A case verdict and its max_rel_error agree with the per-point
    verdicts in either order of the points, and a point whose group
    integral did not converge fails."""

    @pytest.mark.parametrize("errors", [(1e-13, math.nan), (math.nan, 1e-13)])
    def test_nan_point_fails_its_case(self, monkeypatch, errors):
        # one closed form reads NaN at one of the two points
        case = get_case("RED-ERFC-REFLECT")
        grid = case.default_grid[:2]
        rhs = {pt: 1.0 + e for pt, e in zip(grid, errors)}
        monkeypatch.setitem(REGISTRY, case.id, dataclasses.replace(
            case, image=lambda pt: 1.0, closed_rhs=rhs.__getitem__))
        rep = verify(case.id, grid=grid)
        assert [r.params for r in rep.records] == list(grid)
        assert [math.isnan(r.rel_error) for r in rep.records] == [
            math.isnan(e) for e in errors]
        assert [point_passes(r, rep.tol) for r in rep.records] == [
            not math.isnan(e) for e in errors]
        assert rep.verdict == "fail"
        assert math.isnan(rep.max_rel_error)

    def test_group_that_does_not_converge_fails_its_rows(self, monkeypatch):
        # the group's integral raises NonConvergence, whose partial result
        # the rows report; pcf_d stays on its series route at these orders,
        # so the closed forms need no quadrature of their own
        monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 6)
        group = _first_group(get_case("T31-DIFF-HALF").default_grid)
        assert [(pt.orders, pt.x, pt.y, pt.p) for pt in group] == [
            ((-1.5, -1.5), 0.5, 0.5, p) for p in (0.5, 1.0, 3.0)]
        rep = verify("T31-DIFF-HALF", grid=group)
        assert rep.verdict == "fail"
        for rec in rep.records:
            # within tolerance: a row fails only for want of a converged integral
            assert rec.rel_error <= rep.tol
            assert not rec.converged
            assert rec.evaluations == 780


class TestSharedIntegrals:
    """The points of a case that share (orders, x, y) share one
    vector-valued integral."""

    @pytest.mark.parametrize("cid", LAPLACE_IDS)
    def test_grouped_matches_per_point(self, cid):
        rep = verify(cid)
        assert [r.params for r in rep.records] == list(get_case(cid).default_grid)
        for rec in rep.records:
            one = verify(cid, grid=(rec.params,)).records[0]
            assert one.lhs == rec.lhs
            assert abs(one.rhs - rec.rhs) <= rep.tol / 100.0 * abs(one.rhs), rec.params

    @pytest.mark.parametrize("cid", ["T41-CORRECTED", "ILT-KUM-BLOCK"])
    def test_shuffled_grid_gives_identical_records(self, cid):
        grid = list(get_case(cid).default_grid)
        base = {r.params: r for r in verify(cid).records}
        random.Random(7).shuffle(grid)
        shuffled = verify(cid, grid=grid)
        assert [r.params for r in shuffled.records] == grid
        for rec in shuffled.records:
            assert rec == base[rec.params]

    def test_report_counts_each_shared_integral_once(self):
        case = get_case("T41-CORRECTED")
        rep = verify(case.id)
        groups = _groups(case.default_grid)
        assert len(groups) == 9 and all(len(idx) == 3 for idx in groups)
        shared = []
        for idx in groups:
            counts = {rep.records[i].evaluations for i in idx}
            assert len(counts) == 1
            shared.append(counts.pop())
        group = [case.default_grid[i] for i in groups[0]]
        assert shared[0] == _integrate_pieces(case.original(group[0]),
                                              [pt.p for pt in group]).evaluations
        assert rep.evaluations == sum(shared)
        assert rep.evaluations < sum(r.evaluations for r in rep.records)

    def test_interleaved_groups_keep_grid_order(self):
        grid = get_case("T41-CORRECTED").default_grid
        mixed = grid[::2] + grid[1::2]
        rep = verify("T41-CORRECTED", grid=mixed)
        assert [r.params for r in rep.records] == list(mixed)
        assert _groups(mixed)[0] == [0, 1, 14]
        # the split group still shares one integral, counted once
        assert len({rep.records[i].evaluations for i in (0, 1, 14)}) == 1
        assert rep.evaluations == verify("T41-CORRECTED").evaluations


class TestOneKernel:
    """The engine applies e^{-pt} to every original: a kernel-free direct
    integral runs at p = 0, and an erf representation is its Laplace
    pair's original at p = 1 times a constant."""

    @pytest.mark.parametrize("cid", ["C361-NG69", "S51-INT"])
    def test_kernel_at_p_zero_is_exact(self, cid):
        case = get_case(cid)
        pt = case.default_grid[0]
        assert pt.p == 0.0
        (piece,) = case.original(pt)
        integrate = integrate_semi_infinite if math.isinf(piece.spec.upper) else integrate_finite
        res = integrate(piece.integrand, piece.spec, distance_form=True)
        (rec,) = verify(cid, grid=[pt]).records
        assert rec.rhs == complex(res.value)
        assert rec.evaluations == res.evaluations

    def test_erfc_product_is_the_pair_at_p_one(self):
        reps = verify("C361-REP").records
        pairs = verify("C361-ERFC2", grid=[dataclasses.replace(r.params, p=1.0)
                                           for r in reps]).records
        assert len(reps) == 16
        for rep, pair in zip(reps, pairs):
            assert rep.evaluations == pair.evaluations, rep.params
            want = pair.rhs.real * math.exp(-(rep.params.x + rep.params.y))
            assert abs(rep.rhs.real - want) <= 8 * np.spacing(want), rep.params


class TestPlansPerPiece:
    """Each 2F1 term of an original gets one Gauss2F1Plan, built with its
    piece, however many integrand calls the integral makes."""

    @pytest.mark.parametrize("cid, terms", [
        ("T31-DIFF-HALF", 2),   # one term on (0, x), one on (x, inf)
        ("T35-POS-HALF", 1),
        ("T36-POS", 2),         # the brace's two 2F1s
        ("ILT-KUM-BLOCK", 0),   # terms with no 2F1 build no plan
        ("C341-SINGLE", 0),
    ])
    def test_one_plan_per_term(self, monkeypatch, cid, terms):
        from lapcyl.catalog import cases

        built, calls = [], []

        class Counting(cases.Gauss2F1Plan):
            def __init__(self, a, b, c):
                built.append((a, b, c))
                super().__init__(a, b, c)

            def __call__(self, w):
                calls.append(w.size)
                return super().__call__(w)

        monkeypatch.setattr(cases, "Gauss2F1Plan", Counting)
        group = _first_group(get_case(cid).default_grid)
        rep = verify(cid, grid=group)
        assert rep.verdict == "pass"
        assert len(built) == terms
        # each plan served several integrand calls (T35's first group makes 9)
        assert len(calls) >= 5 * len(built)
