"""Appell F1 (Euler-integral implementation)."""

import math
import random

import mpmath
import pytest

from lapcyl.special import appell, appell_f1, gauss_2f1
from lapcyl import DomainError


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def test_frozen_points():
    # 25-digit oracle values
    assert rel_err(appell_f1(0.4, 0.3, 0.7, 1.0, 0.2, -0.5), 0.91238787860708669237) < 1e-11
    assert rel_err(appell_f1(0.6, 0.25, 0.5, 1.4, -0.3, 0.45), 1.0929180085287673229) < 1e-11


def test_reduces_to_2f1_when_b2_zero():
    got = appell_f1(0.5, 0.8, 0.0, 1.7, 0.35, -0.9)
    want = gauss_2f1(0.5, 0.8, 1.7, 0.35)
    assert rel_err(got, want) < 1e-11


def test_equal_arguments_collapse():
    # F1(a; b1, b2; c; z, z) = 2F1(a, b1+b2; c; z)
    got = appell_f1(0.45, 0.3, 0.55, 1.25, 0.4, 0.4)
    want = gauss_2f1(0.45, 0.85, 1.25, 0.4)
    assert rel_err(got, want) < 1e-11


def test_degenerate_c_sum_identity():
    # F1(a; b1, b2; b1+b2; z1, z2) = (1-z2)^{-a} 2F1(a, b1; b1+b2; (z1-z2)/(1-z2))
    a, b1, b2, z1, z2 = 0.4, 0.3, 0.7, 0.2, -0.5
    lhs = appell_f1(a, b1, b2, b1 + b2, z1, z2)
    rhs = (1.0 - z2) ** (-a) * gauss_2f1(a, b1, b1 + b2, (z1 - z2) / (1.0 - z2))
    assert rel_err(lhs, rhs) < 1e-10


def test_real_inputs_give_positive_zero_imaginary_part():
    # the lhs_im column of RED-APPELL prints this sign
    rng = random.Random(2404)
    for _ in range(30):
        a = rng.uniform(0.1, 1.5)
        c = a + rng.uniform(0.1, 1.5)
        b1, b2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        z1, z2 = rng.uniform(-3.0, 0.95), rng.uniform(-3.0, 0.95)
        got = appell_f1(a, b1, b2, c, z1, z2)
        assert math.copysign(1.0, got.imag) == 1.0 and got.imag == 0.0, (a, b1, b2, c, z1, z2)


def test_complex_input_keeps_its_imaginary_part():
    args = (0.4, 0.3 + 0.2j, 0.7, 1.0, 0.2, -0.5)
    with mpmath.workdps(25):
        want = complex(mpmath.appellf1(*args))
    got = appell_f1(*args)
    assert abs(want.imag) > 1e-3
    assert rel_err(got, want) < 1e-11


def test_domain_errors():
    with pytest.raises(DomainError):
        appell_f1(1.5, 0.3, 0.7, 1.0, 0.2, -0.5)  # Re c > Re a fails
    with pytest.raises(DomainError):
        appell_f1(-0.2, 0.3, 0.7, 1.0, 0.2, 0.3)  # Re a > 0 fails
    with pytest.raises(DomainError):
        appell_f1(0.4, 0.3, 0.7, 1.0, 1.2, 0.3)  # argument on the cut


@pytest.mark.parametrize("args", [
    (0.5, 0.3, 0.3, 1.5, math.nan, 0.1),
    (0.5, 0.3, 0.3, 1.5, 0.1, -math.inf),
    (0.5, math.nan, 0.3, 1.5, 0.1, 0.1),
    (0.5, 0.3, 0.3, math.inf, 0.1, 0.1),
])
def test_non_finite_input_is_a_domain_error(args, monkeypatch):
    # a NaN argument used to run the quadrature's whole subdivision budget
    def no_quadrature(*a, **k):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(appell, "integrate_finite", no_quadrature)
    with pytest.raises(DomainError, match="finite"):
        appell_f1(*args)
