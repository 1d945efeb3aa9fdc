"""The identity catalog: every case the harness certifies.

Conventions
-----------
* Every integral piece supplies its original WITHOUT the e^{-pt}
  kernel, which the engine multiplies in at the point's p.  A direct
  integral's validity pins p to the kernel its identity has: 1 for the
  erf representations (their Laplace pairs' originals times a
  constant), 0 for the others.  Constant prefactors are folded into
  the integrand closures at build time, so a Piece is just (f, spec).
* Integrands receive (t, d_lo, d_hi) arrays, d_lo/d_hi the exact
  displacements from the endpoints.  Powers of displacements must use
  d_lo/d_hi, never t - endpoint, or accuracy dies at strong endpoint
  exponents.
* Every piece that a builder can state goes through one, and each
  builder derives its piece's hints from the same numbers, so no
  exponent or decay rate is written twice.
  - Power-law pieces (the building blocks, T31-T36 and their
    corollaries, and the erf pieces c t^{-1/2}/(t + x) or /(y + t)) are
    term lists: each term (c, A, B, G, (a, b, c')) stands for
    c t^A d^B Y^G 2F1(a, b; c'; 1 - cm), and a term whose 2F1 slot is
    None has no 2F1 factor.  Three builders fix d, Y and cm per
    geometry: `_lo_piece` on (0,x) with d = x - t, `_hi_piece` on
    (x,inf) with d = t - x, `_pos_piece` on (0,inf) with d = x + t.
  - `_gauss_piece` states the Gaussian-damped 2F2 original on (0,inf)
    that T42, NEG-T42, S51 and S52 share.
  - Closures are left only where no builder fits: (y+t) on (x,inf)
    (C321-ERF-MIX's second piece), x+y+t (C361-ERFC2, C361-ONE-MINUS's
    first piece), arcsin or arccos (T41, NEG-T41), and C361-NG69's
    e^{-y t^2}/(1 + t^2) on (0,1).
* Every 2F1 of an original is a Gauss2F1Plan built with its piece,
  outside the integrand, so the work that depends only on the 2F1's
  parameters is done once per integral, not on every integrand call.
  Closed-form images make one-shot calls.
* Parameter packing: two-order cases read (mu, nu) from orders and use
  x, y, p literally.  Error-function cases use a = sqrt(y), b = sqrt(x).
  Single-parameter transforms mirror their lone scale into both x and y
  so grid files stay uniform.  Reduction cases note their packing
  inline.
* A validity predicate is `_requires(*rules)` over ordered (test, reason)
  rules, and gives the reason of the first rule whose test does not hold,
  or None; a NaN parameter fails each rule that compares it by <, > or ==.
  A hypothesis that several identities share is one module constant, such
  as `_XYP_POS` or `_NU_BELOW_1`; a rule that tests the same thing under
  another reason (the erf cases' a, b > 0, T36's convergence) keeps its own.
* NEG-* cases encode published-but-wrong right-hand sides on purpose;
  the harness must reject them, and the exit-code layer treats that
  rejection as success.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..quad import QuadratureSpec
from ..special import (
    Gauss2F1Plan,
    appell_f1,
    erf,
    erfc,
    gamma,
    gauss_2f1,
    gauss_2f1_cm,
    hyp_2f2,
    kummer_phi,
    pcf_d,
    reciprocal_gamma,
)
from .model import IdentityCase, ParamPoint, Piece

__all__ = ["REGISTRY"]

rg = reciprocal_gamma
_RPI = math.sqrt(math.pi)

# Internal quadrature tolerances: two to three decades tighter than the
# loosest case tolerance so the verification error is dominated by the
# identities, not the integrator.
_REL = 1e-11
_ABS = 1e-15


def _spec(lower, upper, lam_lo=0.0, lam_up=0.0, decay=0.0):
    return QuadratureSpec(
        lower=float(lower),
        upper=float(upper),
        exponent_at_lower=float(lam_lo),
        exponent_at_upper=float(lam_up),
        decay_rate=float(decay),
        rel_tol=_REL,
        abs_tol=_ABS,
    )


def _grid(orders_list, xy_list, p_list):
    return tuple(
        ParamPoint(orders=o, x=float(xx), y=float(yy), p=float(pp))
        for o in orders_list
        for (xx, yy) in xy_list
        for pp in p_list
    )


_ORDER_SQUARE = tuple(itertools.product((-1.5, -1.0, -0.5), repeat=2))
_XY_THREE = ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5))
_XY_NINE = tuple(itertools.product((0.5, 1.0, 2.0), repeat=2))
_ERF_AB = tuple(
    ParamPoint(orders=(), x=b * b, y=a * a, p=1.0)
    for a in (0.25, 0.5, 1.0, 2.0)
    for b in (0.25, 0.5, 1.0, 2.0)
)


def _requires(*rules):
    """The validity predicate of (test, reason) rules: the reason of the
    first rule whose test does not hold at a point, or None."""
    def validity(pt):
        return next((reason for test, reason in rules if not test(pt)), None)

    return validity


# Hypotheses that several identities share, each stated once
_XYP_POS = (lambda pt: pt.x > 0.0 and pt.y > 0.0 and pt.p > 0.0, "requires x > 0, y > 0, p > 0")
_XP_POS = (lambda pt: pt.x > 0.0 and pt.p > 0.0, "requires x > 0, p > 0")
_AP_POS = (lambda pt: pt.y > 0.0 and pt.p > 0.0, "requires a > 0, p > 0")
_XY_POS = (lambda pt: pt.x > 0.0 and pt.y > 0.0, "requires x > 0, y > 0")
_NU_BELOW_1 = (lambda pt: pt.nu < 1.0, "requires Re nu < 1")
_SUM_NEG = (lambda pt: pt.mu + pt.nu < 0.0, "requires Re(mu + nu) < 0")
_SUM_BELOW_1 = (lambda pt: pt.mu + pt.nu < 1.0, "requires Re(mu + nu) < 1")
_P_ZERO = (lambda pt: pt.p == 0.0, "requires p = 0")
_P_ONE = (lambda pt: pt.p == 1.0, "requires p = 1")

REGISTRY: dict = {}


def _add(case: IdentityCase):
    if case.id in REGISTRY:
        raise ValueError(f"duplicate case id {case.id}")
    REGISTRY[case.id] = case


# ----------------------------------------------------------------------
# Builders: an original as c t^A d^B Y^G [2F1] terms over one of three
# geometries, or as one Gaussian-damped 2F2
# ----------------------------------------------------------------------

def _term_sum(terms, geometry, cm_of):
    """The piece's integrand: the sum, from the first term, of c t^A d^B Y^G
    F(cm) at (d, Y) = geometry(t, d_lo, d_hi); F is 2F1(a, b; c'; 1 - cm),
    or 1 where a term's (a, b, c') is None.  Each 2F1 plan is built once per
    piece, and cm = cm_of(t, d, Y) is formed only if some term has one."""
    planned = [(c, A, B, G, None if abc is None else Gauss2F1Plan(*abc))
               for c, A, B, G, abc in terms]
    uses_cm = any(abc is not None for *_, abc in terms)

    def total(t, d_lo, d_hi):
        d, yd = geometry(t, d_lo, d_hi)
        cm = cm_of(t, d, yd) if uses_cm else None
        out = None
        for c, A, B, G, F in planned:
            term = t ** A * d ** B * yd ** G
            term = c * (term if F is None else term * F(cm))
            out = term if out is None else out + term
        return out

    return total


def _lo_piece(pt, terms):
    """(0,x) piece at d = x - t, Y = y + t, cm = xy/(dY).  The 2F1 argument
    tends to -infinity at x, where |F| ~ d^{min(a, b)}; the 0 keeps the hint
    conservative when both parameters are positive.  A term with no 2F1
    contributes its plain B to the hint at x."""
    x, y = pt.x, pt.y
    f = _term_sum(terms, lambda t, d_lo, d_hi: (d_hi, y + t),
                  lambda t, d, yd: x * y / (d * yd))
    return Piece(f, _spec(0.0, x, lam_lo=min(A for _, A, _, _, _ in terms),
                          lam_up=min(B if abc is None else B + min(0.0, abc[0], abc[1])
                                     for _, _, B, _, abc in terms)))


def _hi_piece(pt, terms):
    """(x,inf) piece at d = t - x, Y = y + d, cm = d(y+t)/(tY).  The 2F1
    argument tends to 1 at x and cm scales like d, so F adds a d^{c'-a-b}
    branch when c'-a-b < 0 (a log factor at 0, which refinement absorbs).
    A term with no 2F1 contributes its plain B to the hint at x."""
    y = pt.y
    f = _term_sum(terms, lambda t, d_lo, d_hi: (d_lo, y + d_lo),  # Y = y - x + t exactly
                  lambda t, d, yd: d * (y + t) / (t * yd))
    return Piece(f, _spec(pt.x, math.inf, lam_lo=min(
        B if abc is None else B + min(0.0, abc[2] - abc[0] - abc[1])
        for _, _, B, _, abc in terms)))


def _pos_piece(pt, terms):
    """(0,inf) piece at d = x + t, Y = y + t, cm = xy/(dY).  The 2F1
    argument 1 - cm is 0 at t = 0 and tends to 1 only as t -> inf, and d
    and Y stay positive, so the one hint is min A at 0."""
    x, y = pt.x, pt.y
    f = _term_sum(terms, lambda t, d_lo, d_hi: (x + t, y + t),
                  lambda t, d, yd: x * y / (d * yd))
    return Piece(f, _spec(0.0, math.inf, lam_lo=min(A for _, A, _, _, _ in terms)))


def _gauss_piece(pt, c, A, damp, w):
    """(0,inf) piece c t^A e^{-damp t^2} 2F2(-mu, -nu; -s/2, (1-s)/2; t^2/w),
    s = mu + nu.  2F2(z) grows like e^z, so the tail's net Gaussian rate
    is damp - 1/w, whose root is the decay hint.  Every caller has
    damp >= 2/w, so the 2F2 is zeroed where t^2/w > 200: the dropped
    region contributes below e^{-200}, where the series would overflow."""
    mu, nu = pt.mu, pt.nu
    s = mu + nu

    def f(t, d_lo, d_hi):
        z = t * t / w
        F = np.zeros(z.shape, dtype=complex)
        m = z <= 200.0
        if m.any():
            F[m] = hyp_2f2(-mu, -nu, -s / 2.0, (1.0 - s) / 2.0, z[m])
        return c * t ** A * np.exp(-damp * t * t) * F

    return Piece(f, _spec(0.0, math.inf, lam_lo=A, decay=math.sqrt(damp - 1.0 / w)))


# ----------------------------------------------------------------------
# Building-block transforms
# ----------------------------------------------------------------------

def _pcf_block_image(pt):
    a, p = pt.y, pt.p
    return gamma(pt.nu) * math.exp(0.5 * a * p) * pcf_d(-2.0 * pt.nu, math.sqrt(2.0 * a * p))


def _pcf_block_original(pt):
    nu = pt.nu  # the scale a is y, so (t + a) is the Y slot
    return (_pos_piece(pt, [(2.0 ** (-nu) * math.sqrt(pt.y), nu - 1.0, 0.0, -nu - 0.5, None)]),)


_v_pcf_block = _requires(
    (lambda pt: pt.nu > 0.0 and pt.y > 0.0 and pt.p > 0.0, "requires nu > 0, a > 0, p > 0"))


_BLOCK_GRID = _grid([(v,) for v in (0.25, 0.5, 1.0)],
                    [(a, a) for a in (0.5, 1.0, 2.0)], (0.5, 1.0, 3.0))

_add(IdentityCase(
    id="ILT-PCF-BLOCK",
    kind="laplace_pair",
    label="Gamma[nu] e^{ap/2} D_{-2nu}(sqrt(2ap)), algebraic original on (0,inf)",
    image=_pcf_block_image,
    original=_pcf_block_original,
    validity=_v_pcf_block,
    default_grid=_BLOCK_GRID,
    tol=1e-9,
))


def _pcf_block2_image(pt):
    a, p = pt.y, pt.p
    return gamma(pt.nu) * math.exp(0.5 * a * p) / math.sqrt(p) * pcf_d(
        1.0 - 2.0 * pt.nu, math.sqrt(2.0 * a * p))


def _pcf_block2_original(pt):
    nu = pt.nu
    return (_pos_piece(pt, [(2.0 ** (0.5 - nu), nu - 1.0, 0.0, 0.5 - nu, None)]),)


_add(IdentityCase(
    id="ILT-PCF-BLOCK2",
    kind="laplace_pair",
    label="Gamma[nu] p^{-1/2} e^{ap/2} D_{1-2nu}(sqrt(2ap)), original on (0,inf)",
    image=_pcf_block2_image,
    original=_pcf_block2_original,
    validity=_v_pcf_block,
    default_grid=_BLOCK_GRID,
    tol=1e-9,
))


def _kum_block_image(pt):
    x, p = pt.x, pt.p
    return math.exp(-x * p) * kummer_phi(pt.nu, pt.nu + 1.25, x * p)


def _kum_block_original(pt):
    nu, x = pt.nu, pt.x
    c = x ** (-nu - 0.25) * gamma(nu + 1.25) * rg(1.25) * rg(nu)
    return (_lo_piece(pt, [(c, 0.25, nu - 1.0, 0.0, None)]),)


_v_kum_block = _requires(
    (lambda pt: pt.nu > 0.0 and pt.x > 0.0 and pt.p > 0.0, "requires nu > 0, x > 0, p > 0"))


_add(IdentityCase(
    id="ILT-KUM-BLOCK",
    kind="laplace_pair",
    label="e^{-xp} Phi(nu; nu+5/4; xp), beta-type original on (0,x)",
    image=_kum_block_image,
    original=_kum_block_original,
    validity=_v_kum_block,
    default_grid=_BLOCK_GRID,
    tol=1e-9,
))


def _kum32_image(pt):
    nu, x, p = pt.nu, pt.x, pt.p
    return (math.sqrt(x) * 2.0 / _RPI * gamma(1.0 + nu / 2.0) * gamma((1.0 - nu) / 2.0)
            * math.exp(-x * p) * kummer_phi((1.0 - nu) / 2.0, 1.5, p * x))


def _kum32_original(pt):
    nu = pt.nu
    return (_lo_piece(pt, [(1.0, nu / 2.0, -(1.0 + nu) / 2.0, 0.0, None)]),)


_v_kum32 = _requires((lambda pt: -2.0 < pt.nu < 1.0, "requires -2 < nu < 1"), _XP_POS)


_add(IdentityCase(
    id="ILT-KUM-BLOCK-32",
    kind="laplace_pair",
    label="e^{-xp} Phi((1-nu)/2; 3/2; px) scaled, original t^{nu/2}(x-t)^{-(1+nu)/2}",
    image=_kum32_image,
    original=_kum32_original,
    validity=_v_kum32,
    default_grid=_grid([(v,) for v in (-1.5, -0.5, 0.5)],
                       [(x, x) for x in (0.5, 1.0, 2.0)], (0.5, 1.0, 3.0)),
    tol=1e-9,
))


def _kum12_image(pt):
    nu, x, p = pt.nu, pt.x, pt.p
    return (x ** -0.5 / _RPI * gamma((1.0 + nu) / 2.0) * gamma(-nu / 2.0)
            * math.exp(-x * p) * kummer_phi(-nu / 2.0, 0.5, x * p))


def _kum12_original(pt):
    nu = pt.nu
    return (_lo_piece(pt, [(1.0, (nu - 1.0) / 2.0, -nu / 2.0 - 1.0, 0.0, None)]),)


_v_kum12 = _requires((lambda pt: -1.0 < pt.nu < 0.0, "requires -1 < nu < 0"), _XP_POS)


_add(IdentityCase(
    id="ILT-KUM-BLOCK-12",
    kind="laplace_pair",
    label="e^{-xp} Phi(-nu/2; 1/2; xp) scaled, original t^{(nu-1)/2}(x-t)^{-nu/2-1}",
    image=_kum12_image,
    original=_kum12_original,
    validity=_v_kum12,
    default_grid=_grid([(v,) for v in (-0.75, -0.5, -0.25)],
                       [(x, x) for x in (0.5, 1.0, 2.0)], (0.5, 1.0, 3.0)),
    tol=1e-9,
))


# ----------------------------------------------------------------------
# Two-order product transforms
# ----------------------------------------------------------------------

def _t31_lo_term(pt, c):
    """(0,x) kernel common to the difference/sum/single families, times c."""
    mu, nu = pt.mu, pt.nu
    return (c, (nu - mu) / 2.0, -(1.0 + nu) / 2.0, mu / 2.0,
            (-mu / 2.0, (1.0 + nu) / 2.0, 1.0 + (nu - mu) / 2.0))


def _t31_lo(pt):
    """The (0,x) piece that T31, T33 and T34 share, constant included."""
    mu, nu = pt.mu, pt.nu
    return _lo_piece(pt, [_t31_lo_term(
        pt, 2.0 ** ((mu - nu) / 2.0) * _RPI * rg(1.0 + (nu - mu) / 2.0) * rg(-nu))])


def _hi32_term(pt, c):
    """(x,inf) kernel with the 3/2-kind hypergeometric function, times c."""
    mu, nu = pt.mu, pt.nu
    return (c, (nu - 1.0) / 2.0, -(1.0 + (mu + nu)) / 2.0, (mu - 1.0) / 2.0,
            ((1.0 - mu) / 2.0, (1.0 - nu) / 2.0, 1.5))


def _hi12_term(pt, c):
    """(x,inf) kernel with the 1/2-kind hypergeometric function, times c."""
    mu, nu = pt.mu, pt.nu
    return (c, nu / 2.0, -(1.0 + (mu + nu)) / 2.0, mu / 2.0, (-mu / 2.0, -nu / 2.0, 0.5))


def _pcf_pair(pt, signs=(1.0, -1.0)):
    return [pcf_d(pt.mu, math.sqrt(2.0 * pt.y * pt.p))] + [
        pcf_d(pt.nu, s * math.sqrt(2.0 * pt.x * pt.p)) for s in signs]


_v_thm31 = _requires(
    _XYP_POS, _NU_BELOW_1,
    (lambda pt: pt.mu < min(1.0 - pt.nu, 2.0 + pt.nu), "requires Re mu < min(1 - nu, 2 + nu)"))


def _t31_image(pt):
    dmu, dplus, dminus = _pcf_pair(pt)
    return math.exp(0.5 * pt.p * (pt.y - pt.x)) / math.sqrt(pt.p) * dmu * (dminus - dplus)


def _t31_original(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    c2 = 2.0 ** (2.0 + (mu + nu) / 2.0) * _RPI * math.sqrt(x * y) * rg(-mu / 2.0) * rg(-nu / 2.0)
    return _t31_lo(pt), _hi_piece(pt, [_hi32_term(pt, c2)])


_add(IdentityCase(
    id="T31-DIFF-HALF",
    kind="laplace_pair",
    label="p^{-1/2} e^{p(y-x)/2} D_mu(sqrt(2yp)) [D_nu(-sqrt(2xp)) - D_nu(sqrt(2xp))]",
    image=_t31_image,
    original=_t31_original,
    validity=_v_thm31,
    default_grid=_grid(_ORDER_SQUARE,
                       tuple(itertools.product((0.5, 1.0), (0.5, 2.0))),
                       (0.5, 1.0, 3.0)),
    tol=1e-8,
))


def _t31k_image(pt):
    mu, nu, x, y, p = pt.mu, pt.nu, pt.x, pt.y, pt.p
    return (math.exp(0.5 * p * y - p * x) * pcf_d(mu, math.sqrt(2.0 * y * p))
            * kummer_phi((1.0 - nu) / 2.0, 1.5, p * x))


def _t31k_original(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    c1 = 2.0 ** (mu / 2.0 - 1.0) * _RPI / math.sqrt(x) * rg(1.0 + (nu - mu) / 2.0) * rg((1.0 - nu) / 2.0)
    c2 = 2.0 ** (mu / 2.0) * math.sqrt(y) * rg(-mu / 2.0)
    return _lo_piece(pt, [_t31_lo_term(pt, c1)]), _hi_piece(pt, [_hi32_term(pt, c2)])


_v_t31k = _requires(_XYP_POS, (lambda pt: pt.mu < 0.0, "requires Re mu < 0"),
                    (lambda pt: -2.0 < pt.nu < 1.0, "requires -2 < Re nu < 1"))


_add(IdentityCase(
    id="T31-KUMMER",
    kind="laplace_pair",
    label="e^{py/2-px} D_mu(sqrt(2yp)) Phi((1-nu)/2; 3/2; px)",
    image=_t31k_image,
    original=_t31k_original,
    validity=_v_t31k,
    default_grid=_grid(tuple(itertools.product((-1.5, -1.0, -0.5), (-1.5, -0.5, 0.5))),
                       ((0.5, 2.0), (1.0, 1.0)), (0.5, 3.0)),
    tol=1e-8,
))


def _t32_image(pt):
    dmu, dplus, dminus = _pcf_pair(pt)
    return math.exp(0.5 * pt.p * (pt.y - pt.x)) * dmu * (dminus - dplus)


def _t32_original(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    s = mu + nu
    fa1, fb1, fc1 = -(1.0 + mu) / 2.0, (1.0 + nu) / 2.0, (1.0 - mu + nu) / 2.0
    c1 = 2.0 ** ((mu - nu) / 2.0) * _RPI / math.sqrt(y) * rg(fc1) * rg(-nu)
    A1, B1, G1 = -(1.0 + mu - nu) / 2.0, -(1.0 + nu) / 2.0, (1.0 + mu) / 2.0
    c2 = 2.0 ** (2.0 + s / 2.0) * _RPI * math.sqrt(x) * rg(-(1.0 + mu) / 2.0) * rg(-nu / 2.0)
    A2, B2, G2, fb2 = (nu - 1.0) / 2.0, -(2.0 + s) / 2.0, mu / 2.0, (1.0 - nu) / 2.0
    lo = [(c1, A1, B1, G1, (fa1, fb1, fc1)),
          (c1 * mu / (1.0 - mu + nu), A1 + 1.0, B1, G1 - 1.0, (fa1 + 1.0, fb1, fc1 + 1.0))]
    hi = [(c2, A2, B2, G2, (-mu / 2.0, fb2, 1.5)),
          (-c2 * mu / (1.0 + mu), A2, B2 + 1.0, G2 - 1.0, ((2.0 - mu) / 2.0, fb2, 1.5))]
    return _lo_piece(pt, lo), _hi_piece(pt, hi)


_v_t32 = _requires(
    _XYP_POS, _NU_BELOW_1,
    (lambda pt: pt.mu < min(-pt.nu, 1.0 + pt.nu), "requires Re mu < min(-nu, 1 + nu)"),
    (lambda pt: pt.mu != -1.0, "requires mu != -1 (coefficient pole)"))


_add(IdentityCase(
    id="T32-DIFF",
    kind="laplace_pair",
    label="e^{p(y-x)/2} D_mu(sqrt(2yp)) [D_nu(-sqrt(2xp)) - D_nu(sqrt(2xp))]",
    image=_t32_image,
    original=_t32_original,
    validity=_v_t32,
    default_grid=_grid(((-0.75, -0.5), (-1.25, -0.5), (-0.75, -0.25), (-1.25, -1.5)),
                       _XY_THREE, (0.5, 1.0, 3.0)),
    tol=1e-8,
))


def _c321_image(pt):
    x, y, p = pt.x, pt.y, pt.p
    return math.exp(p * y) * erfc(math.sqrt(y * p)) * erf(math.sqrt(x * p))


def _c321_original(pt, scale=1.0):
    x, y = pt.x, pt.y
    c2 = -scale * math.sqrt(x) / math.pi

    def f2(t, d_lo, d_hi):
        return c2 / (np.sqrt(y + d_lo) * (y + t))

    return (_lo_piece(pt, [(scale * math.sqrt(y) / math.pi, -0.5, 0.0, -1.0, None)]),
            Piece(f2, _spec(x, math.inf)))


_v_pos_xyp = _requires(_XYP_POS)


_add(IdentityCase(
    id="C321-ERF-MIX",
    kind="laplace_pair",
    label="e^{py} erfc(sqrt(yp)) erf(sqrt(xp)), rational originals",
    image=_c321_image,
    original=_c321_original,
    validity=_v_pos_xyp,
    default_grid=_grid([()], _XY_NINE, (0.5, 1.0, 3.0)),
    tol=1e-8,
))


def _c321rep_image(pt):
    return erfc(pt.a) * erf(pt.b)


def _c321rep_original(pt):
    # C321-ERF-MIX's original at p = 1, times e^{-a^2}
    return _c321_original(pt, math.exp(-pt.y))


_v_erf_rep = _requires((lambda pt: pt.x > 0.0 and pt.y > 0.0, "requires a > 0, b > 0"), _P_ONE)


_add(IdentityCase(
    id="C321-REP",
    kind="direct_integral",
    label="erfc(a) erf(b) as two exponential integrals",
    image=_c321rep_image,
    original=_c321rep_original,
    validity=_v_erf_rep,
    default_grid=_ERF_AB,
    tol=1e-9,
))


def _t33_image(pt):
    dmu, dplus, dminus = _pcf_pair(pt)
    return math.exp(0.5 * pt.p * (pt.y - pt.x)) / math.sqrt(pt.p) * dmu * (dminus + dplus)


def _t33_original(pt):
    mu, nu = pt.mu, pt.nu
    c2 = 2.0 ** (1.0 + (mu + nu) / 2.0) * _RPI * rg((1.0 - nu) / 2.0) * rg((1.0 - mu) / 2.0)
    return _t31_lo(pt), _hi_piece(pt, [_hi12_term(pt, c2)])


_T3_GRID = _grid(_ORDER_SQUARE, _XY_THREE, (0.5, 3.0))

_add(IdentityCase(
    id="T33-SUM-HALF",
    kind="laplace_pair",
    label="p^{-1/2} e^{p(y-x)/2} D_mu(sqrt(2yp)) [D_nu(-sqrt(2xp)) + D_nu(sqrt(2xp))]",
    image=_t33_image,
    original=_t33_original,
    validity=_v_thm31,
    default_grid=_T3_GRID,
    tol=1e-8,
))


def _t33k_image(pt):
    mu, nu, x, y, p = pt.mu, pt.nu, pt.x, pt.y, pt.p
    return (math.exp(0.5 * p * y - p * x) / math.sqrt(p) * pcf_d(mu, math.sqrt(2.0 * y * p))
            * kummer_phi(-nu / 2.0, 0.5, p * x))


def _t33k_original(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    fa, fb, fc = (1.0 - mu) / 2.0, 1.0 + nu / 2.0, 1.0 + (nu - mu) / 2.0
    c1 = 2.0 ** (mu / 2.0) * _RPI * math.sqrt(x * y) * rg(fc) * rg(-nu / 2.0)
    c2 = 2.0 ** (mu / 2.0) * rg((1.0 - mu) / 2.0)
    return (_lo_piece(pt, [(c1, (nu - mu) / 2.0, -1.0 - nu / 2.0, (mu - 1.0) / 2.0, (fa, fb, fc))]),
            _hi_piece(pt, [_hi12_term(pt, c2)]))


_v_t33k = _requires(_XYP_POS, (lambda pt: -1.0 < pt.nu < 0.0, "requires -1 < Re nu < 0"),
                    (lambda pt: pt.mu < 1.0, "requires Re mu < 1"))


_add(IdentityCase(
    id="T33-KUMMER",
    kind="laplace_pair",
    label="p^{-1/2} e^{py/2-px} D_mu(sqrt(2yp)) Phi(-nu/2; 1/2; px)",
    image=_t33k_image,
    original=_t33k_original,
    validity=_v_t33k,
    default_grid=_grid(tuple(itertools.product((-1.4, -0.6, 0.4), (-0.7, -0.45, -0.2))),
                       ((0.5, 2.0), (1.0, 1.0)), (0.5, 3.0)),
    tol=1e-8,
))


def _t34_image(pt):
    dmu, dminus = _pcf_pair(pt, (-1.0,))
    return math.exp(0.5 * pt.p * (pt.y - pt.x)) / math.sqrt(pt.p) * dmu * dminus


def _t34_original(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    s = mu + nu
    c2 = 2.0 ** (1.0 + s / 2.0) * _RPI * math.sqrt(x * y) * rg(-mu / 2.0) * rg(-nu / 2.0)
    # c2 Gamma(-mu/2) Gamma(-nu/2) rg((1-mu)/2) rg((1-nu)/2) / (2 sqrt(xy))
    # with each Gamma rg pair cancelled: finite at mu = 0 and nu = 0
    c3 = 2.0 ** (s / 2.0) * _RPI * rg((1.0 - mu) / 2.0) * rg((1.0 - nu) / 2.0)
    return _t31_lo(pt), _hi_piece(pt, [_hi32_term(pt, c2), _hi12_term(pt, c3)])


_add(IdentityCase(
    id="T34-NEG-HALF",
    kind="laplace_pair",
    label="p^{-1/2} e^{p(y-x)/2} D_mu(sqrt(2yp)) D_nu(-sqrt(2xp))",
    image=_t34_image,
    original=_t34_original,
    validity=_v_thm31,
    default_grid=_T3_GRID,
    tol=1e-8,
))


def _c341_image(pt):
    x, p = pt.x, pt.p
    return math.exp(-0.5 * p * x) / math.sqrt(p) * pcf_d(pt.nu, -math.sqrt(2.0 * x * p))


def _c341_original(pt):
    nu = pt.nu
    c1 = 2.0 ** (-nu / 2.0) * _RPI * rg(-nu) * rg(1.0 + nu / 2.0)
    c2 = 2.0 ** (nu / 2.0) * rg((1.0 - nu) / 2.0)
    A, B = nu / 2.0, -(1.0 + nu) / 2.0
    return _lo_piece(pt, [(c1, A, B, 0.0, None)]), _hi_piece(pt, [(c2, A, B, 0.0, None)])


_v_c341 = _requires(_XP_POS, _NU_BELOW_1)


_add(IdentityCase(
    id="C341-SINGLE",
    kind="laplace_pair",
    label="p^{-1/2} e^{-px/2} D_nu(-sqrt(2xp)), two-piece original",
    image=_c341_image,
    original=_c341_original,
    validity=_v_c341,
    default_grid=_grid([(v,) for v in (-1.5, -0.5, 0.5)],
                       [(x, x) for x in (0.5, 1.0, 2.0)], (0.5, 1.0, 3.0)),
    tol=1e-8,
))


def _t35_image(pt):
    dmu, dplus = _pcf_pair(pt, (1.0,))
    return math.exp(0.5 * pt.p * (pt.y + pt.x)) / math.sqrt(pt.p) * dmu * dplus


def _t35_original(pt):
    mu, nu = pt.mu, pt.nu
    s = mu + nu
    c = 2.0 ** (s / 2.0) * rg((1.0 - s) / 2.0)
    return (_pos_piece(pt, [(c, -(1.0 + s) / 2.0, nu / 2.0, mu / 2.0,
                             (-mu / 2.0, -nu / 2.0, (1.0 - s) / 2.0))]),)


_v_t35 = _requires(_XYP_POS, _SUM_BELOW_1)


_add(IdentityCase(
    id="T35-POS-HALF",
    kind="laplace_pair",
    label="p^{-1/2} e^{p(y+x)/2} D_mu(sqrt(2yp)) D_nu(sqrt(2xp))",
    image=_t35_image,
    original=_t35_original,
    validity=_v_t35,
    default_grid=_T3_GRID,
    tol=1e-8,
))


def _t36_image(pt):
    dmu, dplus = _pcf_pair(pt, (1.0,))
    return math.exp(0.5 * pt.p * (pt.y + pt.x)) * dmu * dplus


def _t36_original(pt):
    mu, nu, x = pt.mu, pt.nu, pt.x
    s = mu + nu
    c = 2.0 ** (s / 2.0) / math.sqrt(x) * rg(-s / 2.0)
    A, B, G = -1.0 - s / 2.0, (1.0 + nu) / 2.0, mu / 2.0
    # the brace F1 - nu t/(s d) F2 as two terms
    return (_pos_piece(pt, [(c, A, B, G, (-mu / 2.0, -(1.0 + nu) / 2.0, -s / 2.0)),
                            (-c * nu / s, A + 1.0, B - 1.0, G,
                             (-mu / 2.0, (1.0 - nu) / 2.0, 1.0 - s / 2.0))]),)


_v_t36 = _requires(_XYP_POS, (lambda pt: pt.mu + pt.nu < 0.0,
                               "requires Re(mu + nu) < 0 for a convergent original"))


_add(IdentityCase(
    id="T36-POS",
    kind="laplace_pair",
    label="e^{p(y+x)/2} D_mu(sqrt(2yp)) D_nu(sqrt(2xp))",
    image=_t36_image,
    original=_t36_original,
    validity=_v_t36,
    default_grid=_T3_GRID,
    tol=1e-8,
))


def _c361_image(pt):
    x, y, p = pt.x, pt.y, pt.p
    return math.exp(p * (x + y)) * erfc(math.sqrt(y * p)) * erfc(math.sqrt(x * p))


def _c361_original(pt, scale=1.0):
    x, y = pt.x, pt.y
    c = math.pi / scale

    def f(t, d_lo, d_hi):
        xt = x + t
        yt = y + t
        return (math.sqrt(x) * np.sqrt(xt) + math.sqrt(y) * np.sqrt(yt)) / (
            c * (x + y + t) * np.sqrt(xt * yt))

    return (Piece(f, _spec(0.0, math.inf)),)


_add(IdentityCase(
    id="C361-ERFC2",
    kind="laplace_pair",
    label="e^{p(x+y)} erfc(sqrt(yp)) erfc(sqrt(xp)), rational original",
    image=_c361_image,
    original=_c361_original,
    validity=_v_pos_xyp,
    default_grid=_grid([()], _XY_NINE, (0.5, 1.0, 3.0)),
    tol=1e-8,
))


def _c361rep_image(pt):
    return erfc(pt.a) * erfc(pt.b)


def _c361rep_original(pt):
    # C361-ERFC2's original at p = 1, times e^{-(a^2 + b^2)}
    return _c361_original(pt, math.exp(-(pt.x + pt.y)))


_add(IdentityCase(
    id="C361-REP",
    kind="direct_integral",
    label="erfc(a) erfc(b) as one exponential integral",
    image=_c361rep_image,
    original=_c361rep_original,
    validity=_v_erf_rep,
    default_grid=_ERF_AB,
    tol=1e-9,
))


def _c361single_image(pt):
    return erfc(pt.b)


def _c361single_original(pt):
    x = pt.x
    return (_pos_piece(pt, [(math.sqrt(x) * math.exp(-x) / math.pi, -0.5, -1.0, 0.0, None)]),)


_v_c361single = _requires((lambda pt: pt.x > 0.0, "requires b > 0"), _P_ONE)


_add(IdentityCase(
    id="C361-ERFC-SINGLE",
    kind="direct_integral",
    label="erfc(b) = (b/pi) e^{-b^2} int_0^inf e^{-t}/((t+b^2) sqrt(t)) dt",
    image=_c361single_image,
    original=_c361single_original,
    validity=_v_c361single,
    default_grid=tuple(ParamPoint(orders=(), x=b * b, y=b * b, p=1.0)
                       for b in (0.25, 0.5, 1.0, 2.0)),
    tol=1e-9,
))


def _c361om_image(pt):
    return 1.0 - erf(pt.a) * erf(pt.b)


def _c361om_original(pt):
    x, y = pt.x, pt.y
    c1 = math.sqrt(x) * math.exp(-x) / math.pi
    c2 = math.sqrt(y) * math.exp(-y) / math.pi

    def f1(t, d_lo, d_hi):
        return c1 * (1.0 / (np.sqrt(t) * (t + x))
                     - math.exp(-y) / ((t + x + y) * np.sqrt(t + y)))

    return (Piece(f1, _spec(0.0, math.inf, lam_lo=-0.5)),
            _lo_piece(pt, [(c2, -0.5, 0.0, -1.0, None)]))


_add(IdentityCase(
    id="C361-ONE-MINUS",
    kind="direct_integral",
    label="1 - erf(a) erf(b), two-term exponential integral form",
    image=_c361om_image,
    original=_c361om_original,
    validity=_v_erf_rep,
    default_grid=_ERF_AB,
    tol=1e-9,
))


def _ng69_image(pt):
    e = erf(pt.a)
    return 1.0 - e * e


def _ng69_original(pt):
    y = pt.y
    c = 4.0 / math.pi * math.exp(-y)

    def f(t, d_lo, d_hi):
        return c * np.exp(-y * t * t) / (t * t + 1.0)

    return (Piece(f, _spec(0.0, 1.0)),)


_v_ng69 = _requires((lambda pt: pt.y > 0.0, "requires a > 0"), _P_ZERO)


_add(IdentityCase(
    id="C361-NG69",
    kind="direct_integral",
    label="1 - erf(a)^2 = (4/pi) e^{-a^2} int_0^1 e^{-a^2 s^2}/(1+s^2) ds",
    image=_ng69_image,
    original=_ng69_original,
    validity=_v_ng69,
    default_grid=tuple(ParamPoint(orders=(), x=a * a, y=a * a, p=0.0)
                       for a in (0.25, 0.5, 1.0, 2.0)),
    tol=1e-10,
))


# ----------------------------------------------------------------------
# The two corrected transforms and their published-but-wrong originals
# ----------------------------------------------------------------------

def _t41_image(pt):
    z = pt.a * math.sqrt(pt.p)
    return pcf_d(pt.nu, z) * pcf_d(-pt.nu - 1.0, z)


def _t41_original(pt):
    nu, y = pt.nu, pt.y
    lower = 0.5 * y
    c = math.sqrt(y) / math.sqrt(2.0 * math.pi)

    def f(t, d_lo, d_hi):
        return (c / (np.sqrt(d_lo * (t + lower)) * np.sqrt(t))
                * np.cos((2.0 * nu + 1.0) * np.arcsin(np.sqrt(d_lo / (2.0 * t)))))

    return (Piece(f, _spec(lower, math.inf, lam_lo=-0.5)),)


_v_t41 = _requires(_AP_POS)


_T41_GRID = _grid([(v,) for v in (-0.5, 0.25, 0.7)],
                  [(a * a, a * a) for a in (0.5, 1.0, 2.0)], (0.5, 1.0, 2.0))

_add(IdentityCase(
    id="T41-CORRECTED",
    kind="laplace_pair",
    label="D_nu(a sqrt(p)) D_{-nu-1}(a sqrt(p)), arcsin kernel on (a^2/2, inf)",
    image=_t41_image,
    original=_t41_original,
    validity=_v_t41,
    default_grid=_T41_GRID,
    tol=1e-8,
))


def _neg_t41_original(pt):
    nu, y = pt.nu, pt.y
    a = math.sqrt(y)

    def f(t, d_lo, d_hi):
        return (1.0 / (math.sqrt(2.0) * np.sqrt(d_lo * (t + a)) * np.sqrt(t))
                * np.cos((nu + 0.5) * np.arccos(y / (2.0 * t))))

    return (Piece(f, _spec(a, math.inf, lam_lo=-0.5)),)


_v_neg_t41 = _requires(_AP_POS, (lambda pt: not pt.a > 2.0,
                                  "requires a <= 2 so the printed arccos argument stays in [-1, 1]"))


_add(IdentityCase(
    id="NEG-T41",
    kind="laplace_pair",
    label="published arccos form for D_nu D_{-nu-1}; wrong, kept as a control",
    image=_t41_image,
    original=_neg_t41_original,
    validity=_v_neg_t41,
    default_grid=_T41_GRID,
    tol=1e-8,
    negative_control=True,
))


def _t42_original(pt):
    s, y = pt.mu + pt.nu, pt.y
    return (_gauss_piece(pt, rg(-s) * y ** (s / 2.0), -(1.0 + s), 0.5 / y, 4.0 * y),)


def _t42_image(pt):
    z = pt.a * pt.p
    return math.exp(0.5 * pt.y * pt.p * pt.p) * pcf_d(pt.mu, z) * pcf_d(pt.nu, z)


def _neg_t42_image(pt):
    z = pt.a * pt.p
    return math.exp(0.25 * pt.y * pt.p * pt.p) * pcf_d(pt.mu, z) * pcf_d(pt.nu, z)


_v_t42 = _requires(_AP_POS, _SUM_NEG)


_T42_GRID = _grid(_ORDER_SQUARE, [(a * a, a * a) for a in (0.5, 1.0, 2.0)], (0.5, 1.0, 2.0))

_add(IdentityCase(
    id="T42-CORRECTED",
    kind="laplace_pair",
    label="e^{a^2 p^2/2} D_mu(ap) D_nu(ap), Gaussian-damped 2F2 original",
    image=_t42_image,
    original=_t42_original,
    validity=_v_t42,
    default_grid=_T42_GRID,
    tol=1e-8,
))

_add(IdentityCase(
    id="NEG-T42",
    kind="laplace_pair",
    label="e^{a^2 p^2/4} variant of the 2F2 transform; wrong, kept as a control",
    image=_neg_t42_image,
    original=_t42_original,
    validity=_v_t42,
    default_grid=_T42_GRID,
    tol=1e-8,
    negative_control=True,
))


# ----------------------------------------------------------------------
# Definite integrals with 2F1 closed forms
# ----------------------------------------------------------------------

def _zc_parts(x, y):
    # argument of the closed-form 2F1 is y(2x+y)/(x+y)^2, complement x^2/(x+y)^2
    return (x / (x + y)) ** 2


def _s51_image(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    s = mu + nu
    cm = _zc_parts(x, y)
    f1 = gauss_2f1_cm(-mu / 2.0, -(1.0 + nu) / 2.0, -s / 2.0, cm)
    f2 = gauss_2f1_cm(-mu / 2.0, (1.0 - nu) / 2.0, 1.0 - s / 2.0, cm)
    pref = 2.0 ** (-s) * gamma((1.0 - s) / 2.0) * y * ((x + y) / (x * y)) ** ((1.0 + s) / 2.0)
    return pref * (f1 - nu * y / (s * (x + y)) * f2)


def _s51_original(pt, k=0.0):
    # T42's original at a^2 = 2x, times e^{-t^2/(4y)}, is S52's integrand
    # (k = 1); S51's is that times t
    x, y = pt.x, pt.y
    return (_gauss_piece(pt, 1.0, -(pt.mu + pt.nu) - k, (x + y) / (4.0 * x * y), 8.0 * x),)


_v_s51 = _requires(_XY_POS, _SUM_BELOW_1,
                   (lambda pt: pt.mu + pt.nu != 0.0, "requires mu + nu != 0 (coefficient pole)"),
                   _P_ZERO)


_S5_GRID = _grid(_ORDER_SQUARE, _XY_NINE, (0.0,))

_add(IdentityCase(
    id="S51-INT",
    kind="direct_integral",
    label="int_0^inf t^{-mu-nu} e^{-(x+y)t^2/(4xy)} 2F2(...; t^2/(8x)) dt, closed form",
    image=_s51_image,
    original=_s51_original,
    validity=_v_s51,
    default_grid=_S5_GRID,
    tol=1e-8,
))


def _s52_image(pt):
    mu, nu, x, y = pt.mu, pt.nu, pt.x, pt.y
    s = mu + nu
    cm = _zc_parts(x, y)
    F = gauss_2f1_cm(-mu / 2.0, -nu / 2.0, (1.0 - s) / 2.0, cm)
    return 2.0 ** (-(1.0 + s)) * gamma(-s / 2.0) * ((x + y) / (x * y)) ** (s / 2.0) * F


def _s52_original(pt):
    return _s51_original(pt, 1.0)


_v_s52 = _requires(_XY_POS, _SUM_NEG, _P_ZERO)


_add(IdentityCase(
    id="S52-INT",
    kind="direct_integral",
    label="int_0^inf t^{-1-mu-nu} e^{-(x+y)t^2/(4xy)} 2F2(...; t^2/(8x)) dt, closed form",
    image=_s52_image,
    original=_s52_original,
    validity=_v_s52,
    default_grid=_S5_GRID,
    tol=1e-8,
))


# ----------------------------------------------------------------------
# Reductions: closed form against closed form
# ----------------------------------------------------------------------
# Packing: RED-SUM-*/RED-RECURRENCE put z in x (and mirror it in y);
# 2F1 reductions put (a, b) in orders, c in x, z in y; RED-APPELL puts
# (a, b1) in orders, b2 in x, z1 in y, z2 in p; RED-ERFC-REFLECT puts z
# in both x and y.

def _red_sum_diff_lhs(pt):
    z = pt.x
    return pcf_d(pt.nu, -z) - pcf_d(pt.nu, z)


def _red_sum_diff_rhs(pt):
    nu, z = pt.nu, pt.x
    return (z * 2.0 ** ((nu + 3.0) / 2.0) * _RPI * rg(-nu / 2.0)
            * math.exp(-z * z / 4.0) * kummer_phi((1.0 - nu) / 2.0, 1.5, z * z / 2.0))


_RED_SUM_GRID = _grid([(v,) for v in (-1.5, -0.7, 0.5, 1.3)],
                      [(z, z) for z in (0.3, 1.3, 2.5, 5.0)], (1.0,))

_add(IdentityCase(
    id="RED-SUM-DIFF",
    kind="reduction",
    label="D_nu(-z) - D_nu(z) collapses to a 3/2-kind Kummer function",
    image=_red_sum_diff_lhs,
    closed_rhs=_red_sum_diff_rhs,
    default_grid=_RED_SUM_GRID,
    tol=1e-10,
))


def _red_sum_add_lhs(pt):
    z = pt.x
    return pcf_d(pt.nu, -z) + pcf_d(pt.nu, z)


def _red_sum_add_rhs(pt):
    nu, z = pt.nu, pt.x
    return (2.0 ** ((nu + 2.0) / 2.0) * _RPI * rg((1.0 - nu) / 2.0)
            * math.exp(-z * z / 4.0) * kummer_phi(-nu / 2.0, 0.5, z * z / 2.0))


_add(IdentityCase(
    id="RED-SUM-ADD",
    kind="reduction",
    label="D_nu(-z) + D_nu(z) collapses to a 1/2-kind Kummer function",
    image=_red_sum_add_lhs,
    closed_rhs=_red_sum_add_rhs,
    default_grid=_RED_SUM_GRID,
    tol=1e-10,
))


def _red_rec_lhs(pt):
    return pt.x * pcf_d(pt.nu, pt.x)


def _red_rec_rhs(pt):
    nu, z = pt.nu, pt.x
    return pcf_d(nu + 1.0, z) + nu * pcf_d(nu - 1.0, z)


_add(IdentityCase(
    id="RED-RECURRENCE",
    kind="reduction",
    label="z D_nu(z) = D_{nu+1}(z) + nu D_{nu-1}(z)",
    image=_red_rec_lhs,
    closed_rhs=_red_rec_rhs,
    default_grid=_grid([(v,) for v in (-1.5, -0.5, 0.5, 1.5)],
                       [(z, z) for z in (0.1, 0.5, 2.0, 10.0)], (1.0,)),
    tol=1e-10,
))


def _f21_grid(points):
    return tuple(ParamPoint(orders=(a, b), x=c, y=z, p=1.0) for (a, b, c, z) in points)


_F21_GRID = _f21_grid([(0.3, 0.7, 1.1, 0.3), (-0.6, 1.2, 2.3, 0.45),
                       (0.25, 0.75, 1.75, -0.35), (1.1, 0.4, 2.6, 0.2)])


def _red_euler_lhs(pt):
    a, b = pt.orders
    return gauss_2f1(a, b, pt.x, pt.y)


def _red_euler_rhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    return (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)


_add(IdentityCase(
    id="RED-2F1-EULER",
    kind="reduction",
    label="2F1 Euler transformation (1-z)^{c-a-b} flip",
    image=_red_euler_lhs,
    closed_rhs=_red_euler_rhs,
    default_grid=_F21_GRID,
    tol=1e-10,
))


def _red_pfaff_rhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))


_add(IdentityCase(
    id="RED-2F1-PFAFF",
    kind="reduction",
    label="2F1 Pfaff transformation z/(z-1) flip",
    image=_red_euler_lhs,
    closed_rhs=_red_pfaff_rhs,
    default_grid=_f21_grid([(0.3, 0.7, 1.1, -0.4), (-0.6, 1.2, 2.3, -0.25),
                            (0.55, 0.35, 1.45, -0.4)]),
    tol=1e-10,
))


def _red_connect_rhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    w = 1.0 - z
    return (gamma(c) * gamma(c - a - b) * rg(c - a) * rg(c - b)
            * gauss_2f1(a, b, a + b - c + 1.0, w)
            + gamma(c) * gamma(a + b - c) * rg(a) * rg(b)
            * w ** (c - a - b) * gauss_2f1(c - a, c - b, c - a - b + 1.0, w))


_add(IdentityCase(
    id="RED-2F1-CONNECT",
    kind="reduction",
    label="2F1 connection formula about z=1, two-series form",
    image=_red_euler_lhs,
    closed_rhs=_red_connect_rhs,
    default_grid=_f21_grid([(0.3, 0.7, 1.6, 0.3), (-0.4, 0.9, 1.85, 0.42),
                            (0.2, 1.3, 2.21, 0.35)]),
    tol=1e-10,
))


def _red_quad_rhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    w = 0.5 * (1.0 - math.sqrt(1.0 - z))
    return gauss_2f1(2.0 * a, 2.0 * b, c, w)


_add(IdentityCase(
    id="RED-2F1-QUAD22",
    kind="reduction",
    label="2F1 quadratic transformation, half-argument form",
    image=_red_euler_lhs,
    closed_rhs=_red_quad_rhs,
    default_grid=_f21_grid([(0.3, 0.5, 0.3 + 0.5 + 0.5, 0.45),
                            (-0.2, 0.8, -0.2 + 0.8 + 0.5, 0.3),
                            (0.55, 0.15, 0.55 + 0.15 + 0.5, 0.48)]),
    tol=1e-10,
))


def _red_contig_lhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    return ((c - a) * gauss_2f1(a - 1.0, b, c, z)
            + (2.0 * a - c + (b - a) * z) * gauss_2f1(a, b, c, z))


def _red_contig_rhs(pt):
    a, b = pt.orders
    c, z = pt.x, pt.y
    return a * (1.0 - z) * gauss_2f1(a + 1.0, b, c, z)


_add(IdentityCase(
    id="RED-2F1-CONTIG",
    kind="reduction",
    label="2F1 three-term contiguous relation in the first parameter",
    image=_red_contig_lhs,
    closed_rhs=_red_contig_rhs,
    default_grid=_F21_GRID,
    tol=1e-10,
))


def _red_appell_lhs(pt):
    a, b1 = pt.orders
    b2, z1, z2 = pt.x, pt.y, pt.p
    return appell_f1(a, b1, b2, b1 + b2, z1, z2)


def _red_appell_rhs(pt):
    a, b1 = pt.orders
    b2, z1, z2 = pt.x, pt.y, pt.p
    return (1.0 - z2) ** (-a) * gauss_2f1(a, b1, b1 + b2, (z1 - z2) / (1.0 - z2))


_add(IdentityCase(
    id="RED-APPELL",
    kind="reduction",
    label="Appell F1 with c=b1+b2 collapses to a single 2F1",
    image=_red_appell_lhs,
    closed_rhs=_red_appell_rhs,
    default_grid=(
        ParamPoint(orders=(0.4, 0.3), x=0.7, y=0.2, p=-0.5),
        ParamPoint(orders=(0.55, 0.6), x=0.8, y=-0.3, p=0.25),
        ParamPoint(orders=(0.3, 0.5), x=0.9, y=0.4, p=0.1),
    ),
    tol=1e-10,
))


# Targets frozen from an independent high-precision evaluation of the
# gamma-ratio value at z=1; keyed by (a, b, c).
_GAUSS_SUM_TARGETS = {
    (-0.5, 0.5, 1.5): math.pi / 4.0,
    (0.25, 0.25, 1.0): 1.180340599016096226,
    (0.3, 0.4, 2.2): 1.0900606947992392411,
}


def _red_gauss_sum_lhs(pt):
    a, b = pt.orders
    return gauss_2f1(a, b, pt.x, 1.0)


def _red_gauss_sum_rhs(pt):
    a, b = pt.orders
    return _GAUSS_SUM_TARGETS[(a, b, pt.x)]


_v_gauss_sum = _requires(
    (lambda pt: (*pt.orders, pt.x) in _GAUSS_SUM_TARGETS,
     f"requires (a, b, c) with a frozen target, one of {sorted(_GAUSS_SUM_TARGETS)}"))


_add(IdentityCase(
    id="RED-GAUSS-SUM",
    kind="reduction",
    label="2F1 at z=1 against independently frozen gamma-ratio values",
    image=_red_gauss_sum_lhs,
    closed_rhs=_red_gauss_sum_rhs,
    validity=_v_gauss_sum,
    default_grid=tuple(ParamPoint(orders=(a, b), x=c, y=1.0, p=1.0)
                       for (a, b, c) in sorted(_GAUSS_SUM_TARGETS)),
    tol=1e-10,
))


def _red_erfc_lhs(pt):
    z = pt.x
    return erfc(-z) - erfc(z)


def _red_erfc_rhs(pt):
    return 2.0 * erf(pt.x)


_add(IdentityCase(
    id="RED-ERFC-REFLECT",
    kind="reduction",
    label="erfc(-z) - erfc(z) = 2 erf(z)",
    image=_red_erfc_lhs,
    closed_rhs=_red_erfc_rhs,
    default_grid=tuple(ParamPoint(orders=(), x=z, y=z, p=1.0)
                       for z in (0.0, 0.5, 1.5, 3.0, 5.0)),
    tol=1e-10,
))
