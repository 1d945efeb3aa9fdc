"""Kummer Phi (confluent 1F1) and the 2F2 series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapcyl.special import hyper, kummer_phi, phi_scaled, hyp_2f2
from lapcyl import DomainError, ParameterPole, NonConvergence


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def brute_2f2(a1, a2, b1, b2, z, terms=200):
    """Direct rising-factorial sum, independent of the library path."""
    total = 0.0j
    term = 1.0 + 0.0j
    for k in range(terms):
        total += term
        term *= (a1 + k) * (a2 + k) / ((b1 + k) * (b2 + k) * (k + 1)) * z
        if abs(term) < 1e-20 * max(abs(total), 1.0):
            break
    return total


def test_2f2_terminating():
    # (-1)_2 = 0, so the sum stops at k=1: 1 + 0.3*(1/(0.5*1)) = 1.6
    got = hyp_2f2(-1.0, -1.0, 0.5, 1.0, 0.3)
    assert rel_err(got, 1.6) < 1e-14
    assert rel_err(got, brute_2f2(-1.0, -1.0, 0.5, 1.0, 0.3)) < 1e-14


def test_2f2_generic_points():
    pts = [
        (1.5, -0.5, 0.75, 1.25, 2.0, -1.4064061749849310212),  # frozen, 25-digit oracle
        (0.5, 0.5, 1.5, 1.25, -3.0, None),
        (-1.5, -1.0, 1.25, 1.75, 12.0, None),
    ]
    for a1, a2, b1, b2, z, frozen in pts:
        got = hyp_2f2(a1, a2, b1, b2, z)
        assert rel_err(got, brute_2f2(a1, a2, b1, b2, z)) < 1e-12
        if frozen is not None:
            assert rel_err(got, frozen) < 1e-13


def test_2f2_array_matches_scalar():
    z = np.array([0.1, 1.0, 7.5, 30.0])
    vec = hyp_2f2(-0.75, -0.25, 0.625, 1.125, z)
    for i, zi in enumerate(z):
        assert rel_err(vec[i], hyp_2f2(-0.75, -0.25, 0.625, 1.125, float(zi))) < 1e-14


def test_2f2_empty_argument():
    # a sum over no lanes settles at once
    for z in (np.array([]), np.empty((2, 0))):
        got = hyp_2f2(0.5, 0.5, 1.5, 1.5, z)
        assert got.shape == z.shape and got.dtype == complex


def test_phi_frozen_points():
    assert rel_err(kummer_phi(0.25, 0.5, 0.3), 1.170562013352713264) < 1e-13
    assert rel_err(kummer_phi(-0.75, 1.5, 2.0), -0.13155033311075555608) < 1e-12
    assert rel_err(kummer_phi(0.5, 1.25, -4.0), brute_2f2(0.5, 1.0, 1.25, 1.0, -4.0)) < 1e-11


def test_phi_large_argument_scaled():
    # e^z asymptotics push far past double range of the raw series terms
    got = kummer_phi(0.95, 1.5, 400.0)
    assert rel_err(got, 1.6625895543003521358e172) < 1e-11
    val, scale = phi_scaled(0.95, 1.5, 400.0)
    assert rel_err(val * math.exp(scale), 1.6625895543003521358e172) < 1e-11


def test_phi_kummer_transformation():
    for a, b, z in [(0.3, 1.1, 2.5), (-0.6, 0.7, 4.0), (1.2, 2.3, -3.0)]:
        lhs = kummer_phi(a, b, z)
        rhs = math.exp(z) * kummer_phi(b - a, b, -z)
        assert rel_err(lhs, rhs) < 1e-12


def test_phi_negative_argument_against_mpmath():
    # below z = -10 the series at z itself had no correct digits; Kummer's
    # transformation sums the series at -z instead
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20190802)
    draws = [(2.7, 0.6, -30.0), (0.5, 1.5, -50.0)]
    draws += [(rng.uniform(-4, 4), rng.uniform(-3, 4), rng.uniform(-60, 0)) for _ in range(60)]
    with mpmath.workdps(40):
        for a, b, z in draws:
            assert rel_err(kummer_phi(a, b, z), complex(mpmath.hyp1f1(a, b, z))) < 1e-13, (a, b, z)


def test_parameter_pole():
    with pytest.raises(ParameterPole):
        kummer_phi(0.5, 0.0, 1.0)
    with pytest.raises(ParameterPole):
        kummer_phi(0.5, -2.0, 1.0)
    with pytest.raises(ParameterPole):
        hyp_2f2(0.5, 0.5, -1.0, 1.0, 1.0)


def test_nonconvergence_with_tiny_budget(monkeypatch):
    monkeypatch.setattr(hyper, "_MAX_TERMS", 5)
    with pytest.raises(NonConvergence):
        kummer_phi(0.5, 1.5, 30.0)
    with pytest.raises(NonConvergence):
        hyp_2f2(0.5, 0.5, 1.5, 1.5, np.array([0.1, 30.0]))


def test_phi_overflow_raises():
    # Phi(1;1;z) = e^z leaves double range just below z = 710
    assert rel_err(kummer_phi(1.0, 1.0, 709.0), math.exp(709.0)) < 1e-12
    for a, b, z in [(1.0, 1.0, 710.0), (0.25, -1.7, 840.0), (2.5, 2.2, 890.0)]:
        with pytest.raises(OverflowError):
            kummer_phi(a, b, z)
    val, scale = phi_scaled(1.0, 1.0, 710.0)
    assert rel_err(math.log(val.real) + scale, 710.0) < 1e-14


def test_2f2_near_top_of_double_range():
    # 2F2(1,1;1/2,1/2;z) grows like e^z; 700 is finite, 800 overflows
    want = 2.2312094989250481e307  # mpmath.hyp2f2 at 40 digits
    assert rel_err(hyp_2f2(1.0, 1.0, 0.5, 0.5, 700.0), want) < 1e-12
    with pytest.raises(NonConvergence):
        hyp_2f2(1.0, 1.0, 0.5, 0.5, np.array([1.0, 800.0]))


def test_non_finite_input_is_a_domain_error():
    for a, b, z in [(math.nan, 1.0, 1.0), (1.0, 1.0, math.nan), (1.0, math.inf, 1.0)]:
        with pytest.raises(DomainError):
            kummer_phi(a, b, z)
        with pytest.raises(DomainError):
            phi_scaled(a, b, z)
    # a non-finite lane used to end in NonConvergence, not a domain error
    for z in (math.nan, np.array([0.5, math.nan]), np.array([1.0, -math.inf])):
        with pytest.raises(DomainError):
            hyp_2f2(1.0, 1.0, 2.0, 2.0, z)
    with pytest.raises(DomainError):
        hyp_2f2(1.0, math.nan, 2.0, 2.0, 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_phi_contiguous(a, b, z):
    # b Phi(a,b,z) - b Phi(a-1,b,z) - z Phi(a,b+1,z) = 0
    lhs = b * kummer_phi(a, b, z) - b * kummer_phi(a - 1.0, b, z) - z * kummer_phi(a, b + 1.0, z)
    scale = max(abs(kummer_phi(a, b, z)), 1.0)
    assert abs(lhs) < 1e-11 * scale * max(1.0, abs(b), abs(z))
