"""Gauss 2F1 across all evaluation regions.

Frozen expecteds come from 25-digit evaluations of the defining series
(analytically continued); each case is labeled with the region of the
implementation it lands in.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapcyl.special import gauss_2f1, gauss_2f1_cm, gauss_2f1_at_one
from lapcyl import DomainError, ParameterPole


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


FROZEN = [
    # a, b, c, z, expected, region
    (-3.0, 0.7, 1.3, 0.85, None, "terminating"),
    (0.3, 0.7, 1.1, 0.3, 1.0686574643263923238, "series"),
    (0.3, 0.7, 1.6, 0.95, 1.2789814010366456762, "connection"),
    (0.3, 0.7, 1.0, 0.97, 1.8289621641084634386, "log m=0"),
    (0.25, 0.25, 2.5, 0.99, 1.0349293817942838793, "log m=2"),
    (0.7, 1.3, 1.0, 0.95, 17.501111724628886646, "flip m<0"),
    (0.3, 0.7, 1.1, -4.0, 0.71173015832768530819, "pfaff"),
    (0.5, 0.25, 1.6, -3000.0, 0.25395319554214503079, "pfaff far"),
]


def test_frozen_battery():
    for a, b, c, z, want, region in FROZEN:
        got = gauss_2f1(a, b, c, z)
        if want is not None:
            assert rel_err(got, want) < 5e-12, region


def test_terminating_is_polynomial():
    # a = -3 makes a cubic in z; evaluate it directly
    a, b, c, z = -3.0, 0.7, 1.3, 0.85
    poly = 1.0
    num = a * b / c
    term = num * z
    poly += term
    term *= (a + 1) * (b + 1) / ((c + 1) * 2) * z
    poly += term
    term *= (a + 2) * (b + 2) / ((c + 2) * 3) * z
    poly += term
    assert rel_err(gauss_2f1(a, b, c, z), poly) < 1e-14


def test_elementary_closed_forms():
    # F(1, 3/2; 3/2; 1/2) is geometric: 1/(1-z) = 2
    assert rel_err(gauss_2f1(1.0, 1.5, 1.5, 0.5), 2.0) < 1e-14
    # F(1, 1/2; 2; z) = 2/(1 + sqrt(1-z))
    assert rel_err(gauss_2f1(1.0, 0.5, 2.0, 0.75), 4.0 / 3.0) < 1e-13
    z = 0.6
    assert rel_err(gauss_2f1(1.0, 0.5, 2.0, z), 2.0 / (1.0 + math.sqrt(1.0 - z))) < 1e-13
    # F(a, 1-a; 1/2; z) = cos((2a-1) asin sqrt(z)) / sqrt(1-z)
    a, z = 0.3, 0.4
    want = math.cos((2 * a - 1) * math.asin(math.sqrt(z))) / math.sqrt(1.0 - z)
    assert rel_err(gauss_2f1(a, 1.0 - a, 0.5, z), want) < 1e-12
    # log(1+z)/z = F(1,1;2;-z)
    z = 0.8
    assert rel_err(gauss_2f1(1.0, 1.0, 2.0, -z), math.log(1.0 + z) / z) < 1e-13


def test_at_one():
    assert rel_err(gauss_2f1_at_one(-0.5, 0.5, 1.5), math.pi / 4.0) < 1e-13
    assert rel_err(gauss_2f1_at_one(0.25, 0.25, 1.0), 1.180340599016096226) < 1e-13
    assert rel_err(gauss_2f1_at_one(0.3, 0.4, 2.2), 1.0900606947992392411) < 1e-13
    assert rel_err(gauss_2f1(-0.5, 0.5, 1.5, 1.0), math.pi / 4.0) < 1e-13


def test_at_one_divergent():
    # c - a - b < 0 and nonterminating: no finite value
    with pytest.raises(DomainError):
        gauss_2f1_at_one(0.7, 1.3, 1.5)


def test_at_one_terminating_wins():
    # negative integer a terminates even when c-a-b < 0
    got = gauss_2f1_at_one(-2.0, 3.0, 1.5)
    # Chu-Vandermonde: (c-a)_n / (c)_n at n=2: (4.5*5.5)/(1.5*2.5) ... direct sum
    want = 1.0 + (-2.0) * 3.0 / 1.5 + ((-2.0) * (-1.0) * 3.0 * 4.0) / (1.5 * 2.5 * 2.0)
    assert rel_err(got, want) < 1e-14


def test_complement_entry_near_one():
    # w = 1-z passed exactly; z itself would round away the distance
    for w in (1e-14, 1e-10, 1e-6):
        got = gauss_2f1_cm(0.25, 0.55, 1.3, w)
        limit = gauss_2f1_at_one(0.25, 0.55, 1.3)
        assert rel_err(got, limit) < 1e-3  # O(w^{1/2}) approach; exact value below
    got = gauss_2f1_cm(0.25, 0.55, 1.3, 1e-10)
    # frozen: 25-digit continuation at z = 1 - 1e-10
    assert rel_err(got, 1.3334348174182597187) < 1e-12


def test_parameter_pole():
    with pytest.raises(ParameterPole):
        gauss_2f1(0.5, 0.7, 0.0, 0.3)
    with pytest.raises(ParameterPole):
        gauss_2f1(0.5, 0.7, -3.0, 0.3)
    # terminating numerator saves a negative-integer c if it stops first
    got = gauss_2f1(-2.0, 0.7, -3.0, 0.5)
    want = 1.0 + (-2.0) * 0.7 / (-3.0) * 0.5 + ((-2.0) * (-1.0) * 0.7 * 1.7) / ((-3.0) * (-2.0) * 2.0) * 0.25
    assert rel_err(got, want) < 1e-14


TERMINATING_OR_POLE = [
    # entry point, its argument, the polynomial's value at that argument
    (gauss_2f1, 0.3, 1.15785),
    (gauss_2f1, 0.2 + 0.1j,
     1.0 + (-2.0) * 0.7 / (-3.0) * (0.2 + 0.1j)
     + ((-2.0) * (-1.0) * 0.7 * 1.7) / ((-3.0) * (-2.0) * 2.0) * (0.2 + 0.1j) ** 2),
    (gauss_2f1_cm, 0.7, 1.15785),
    (lambda a, b, c, _: gauss_2f1_at_one(a, b, c), None, 1.665),
]


@pytest.mark.parametrize("fn, arg, poly", TERMINATING_OR_POLE,
                         ids=["real", "disc", "complement", "at_one"])
def test_one_pole_rule_at_every_entry_point(fn, arg, poly):
    for a, b in ((0.5, 0.7), (-4.0, 0.7)):
        with pytest.raises(ParameterPole):
            fn(a, b, -3.0, arg)
    # a numerator that terminates before c's pole gives the polynomial
    for a, b in ((-2.0, 0.7), (0.7, -2.0)):
        assert rel_err(fn(a, b, -3.0, arg), poly) < 1e-14


def test_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1_cm(0.3, 0.7, 1.1, -0.2)  # w < 0 is the cut
    with pytest.raises(DomainError):
        gauss_2f1(0.3, 0.7, 1.1, 0.3 + 0.45j)  # complex z only inside |z| <= 1/2


@pytest.mark.parametrize("w", [math.nan, math.inf, [0.3, math.nan, 0.8]])
def test_non_finite_complement_is_a_domain_error(w):
    # a NaN complement matches no region mask; its lane was left unfilled
    with pytest.raises(DomainError):
        gauss_2f1_cm(0.5, 1.0, 2.0, np.asarray(w))
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 1.0, 2.0, 1.0 - np.asarray(w))


@pytest.mark.parametrize("a, b, c", [
    (math.nan, 1.0, 2.0), (0.5, math.inf, 2.0), (0.5, 1.0, math.inf),
    (0.5, 1.0, complex(2.0, math.nan)),
])
def test_non_finite_parameter_is_a_domain_error(a, b, c):
    for call in (lambda: gauss_2f1(a, b, c, 0.3), lambda: gauss_2f1_cm(a, b, c, 0.7),
                 lambda: gauss_2f1_at_one(a, b, c)):
        with pytest.raises(DomainError, match="finite parameters"):
            call()


def test_complex_argument_in_disc():
    # frozen, 25-digit oracle
    got = gauss_2f1(0.3, 0.7, 1.1, 0.2 + 0.3j)
    want = 1.0296096869150353511 + 0.069088222834168319434j
    assert rel_err(got, want) < 1e-12


def test_array_matches_scalar():
    w = np.array([0.01, 0.3, 0.8, 1.2, 4.0, 200.0])
    vec = gauss_2f1_cm(-0.75, 0.25, 1.375, w)
    for i, wi in enumerate(w):
        assert rel_err(vec[i], gauss_2f1_cm(-0.75, 0.25, 1.375, float(wi))) < 1e-13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=-1.2, max_value=1.2),
       st.floats(min_value=-1.2, max_value=1.2),
       st.floats(min_value=0.0, max_value=0.85))
def test_euler_transformation(a, b, z):
    c = abs(a) + abs(b) + 1.3  # keep c off poles and c-a-b well positive
    lhs = gauss_2f1(a, b, c, z)
    rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
    assert rel_err(lhs, rhs) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-0.9, max_value=0.0))
def test_pfaff_transformation(a, b, z):
    c = abs(a) + abs(b) + 1.1
    lhs = gauss_2f1(a, b, c, z)
    rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
    assert rel_err(lhs, rhs) < 1e-10


def test_live_oracle_sweep():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    rng_pts = [(-0.75, 0.55, 1.625, w)
               for w in (1e-8, 0.02, 0.4, 1.0, 1.3, 7.0)]
    for a, b, c, w in rng_pts:
        want = complex(mpmath.hyp2f1(a, b, c, 1.0 - w))
        assert rel_err(gauss_2f1_cm(a, b, c, w), want) < 5e-12
