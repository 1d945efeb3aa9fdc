"""Gauss 2F1 across all evaluation regions.

Frozen expecteds come from 25-digit evaluations of the defining series
(analytically continued); each case is labeled with the region of the
implementation it lands in.
"""

import cmath
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapcyl.special import Gauss2F1Plan, gauss_2f1, gauss_2f1_cm
from lapcyl import DomainError, NonConvergence, ParameterPole


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
    assert rel_err(gauss_2f1_cm(-0.5, 0.5, 1.5, 0.0), math.pi / 4.0) < 1e-13
    assert rel_err(gauss_2f1_cm(0.25, 0.25, 1.0, 0.0), 1.180340599016096226) < 1e-13
    assert rel_err(gauss_2f1_cm(0.3, 0.4, 2.2, 0.0), 1.0900606947992392411) < 1e-13
    assert rel_err(gauss_2f1(-0.5, 0.5, 1.5, 1.0), math.pi / 4.0) < 1e-13


def test_at_one_divergent():
    # c - a - b < 0 and nonterminating: no finite value
    with pytest.raises(DomainError):
        gauss_2f1_cm(0.7, 1.3, 1.5, 0.0)


def test_at_one_terminating_wins():
    # negative integer a terminates even when c-a-b < 0
    got = gauss_2f1_cm(-2.0, 3.0, 1.5, 0.0)
    # Chu-Vandermonde: (c-a)_n / (c)_n at n=2: (4.5*5.5)/(1.5*2.5) ... direct sum
    want = 1.0 + (-2.0) * 3.0 / 1.5 + ((-2.0) * (-1.0) * 3.0 * 4.0) / (1.5 * 2.5 * 2.0)
    assert rel_err(got, want) < 1e-14


def test_at_one_overflowing_polynomial_raises_without_warning():
    # the terms of the degree-600 polynomial overflow; the library's own
    # error must come out even where numpy warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            gauss_2f1_cm(-600.0, -600.0, 0.5, 0.0)


def test_complement_entry_near_one():
    # w = 1-z passed exactly; z itself would round away the distance
    for w in (1e-14, 1e-10, 1e-6):
        got = gauss_2f1_cm(0.25, 0.55, 1.3, w)
        limit = gauss_2f1_cm(0.25, 0.55, 1.3, 0.0)
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
    # a sum that overflows before it reaches c's pole, or an argument that
    # zeroes every term after the first, still meets the pole
    with pytest.raises(ParameterPole):
        gauss_2f1(-1e6, 1.0, -200.0, 0.5)
    with pytest.raises(ParameterPole):
        gauss_2f1(-5.0, 1.0, -2.0, 0.0)


TERMINATING_OR_POLE = [
    # entry point, its argument, the polynomial's value at that argument
    (gauss_2f1, 0.3, 1.15785),
    (gauss_2f1, 0.2 + 0.1j,
     1.0 + (-2.0) * 0.7 / (-3.0) * (0.2 + 0.1j)
     + ((-2.0) * (-1.0) * 0.7 * 1.7) / ((-3.0) * (-2.0) * 2.0) * (0.2 + 0.1j) ** 2),
    (gauss_2f1_cm, 0.7, 1.15785),
    (lambda a, b, c, _: gauss_2f1_cm(a, b, c, 0.0), None, 1.665),
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
                 lambda: gauss_2f1_cm(a, b, c, 0.0)):
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


def test_tiny_argument_with_huge_parameter():
    # (1 - z)^(1e20) at z = 1e-20 is e^-1; w = 1 - z would round z to 0
    assert rel_err(gauss_2f1(-1e20, 1.0, 1.0, 1e-20), math.exp(-1.0)) < 1e-10


def test_complex_array_in_disc_matches_scalars():
    z = np.array([0.2 + 0.3j, -0.4 + 0.1j, 1e-20, 0.5])
    vec = gauss_2f1(0.3, 0.7, 1.1, z)
    assert vec.shape == z.shape
    for i, zi in enumerate(z):
        assert vec[i] == gauss_2f1(0.3, 0.7, 1.1, complex(zi))


def test_log_branch_with_c_near_a_pole():
    # c - a - b = m, c = -n + delta: Gamma(c) sits near its pole.  a > 0: near
    # a = -1 as well, F's relative sensitivity to c reaches 4e5, so the
    # rounding of c itself costs 1e-10 there
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2504)
    for _ in range(300):
        n, m = rng.randint(0, 3), rng.randint(0, 2)
        c = -n + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -2.0)
        a = rng.uniform(0.1, 2.0)
        b = c - m - a
        w = rng.uniform(0.02, 0.45)
        with mpmath.workdps(40):
            want = complex(mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(w)))
        assert rel_err(gauss_2f1_cm(a, b, c, w), want) < 1e-11, (a, b, c, w)


def _complex_draw(rng, lo, hi):
    return complex(rng.uniform(lo, hi), rng.uniform(-1.0, 1.0))


# each route's argument: w = 1 - z for the plan's regions, z in the disc
COMPLEX_PARAMETER_ROUTES = {
    "connection": lambda rng: 10.0 ** rng.uniform(-10.0, math.log10(0.49)),
    "maclaurin": lambda rng: rng.uniform(0.5, 1.5),
    "pfaff": lambda rng: 10.0 ** rng.uniform(math.log10(1.51), 3.0),
    "disc": lambda rng: cmath.rect(0.5 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)),
}


@pytest.mark.parametrize("route, m", [
    *((route, None) for route in COMPLEX_PARAMETER_ROUTES),
    *(("connection", m) for m in (-1, 0, 1, 2)),
])
def test_complex_parameters_against_mpmath(route, m):
    # c - a - b = m puts the connection region on the log branch (m < 0
    # through Euler); otherwise c - a - b is off the real axis
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(f"{route}{m}")
    for _ in range(40):
        a, b = _complex_draw(rng, -2.0, 2.0), _complex_draw(rng, -2.0, 2.0)
        c = _complex_draw(rng, 0.5, 3.0) if m is None else a + b + m
        arg = COMPLEX_PARAMETER_ROUTES[route](rng)
        with mpmath.workdps(40):
            if route == "disc":
                got, want = gauss_2f1(a, b, c, arg), mpmath.hyp2f1(a, b, c, arg)
            else:
                got, want = gauss_2f1_cm(a, b, c, arg), mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(arg))
        assert rel_err(got, complex(want)) < 1e-12, (a, b, c, arg)


def _bits(value):
    return np.asarray(value).tobytes()


# a, b, c and complements, one row per region of the evaluator
PLAN_REGIONS = [
    pytest.param(-3.0, 0.7, 1.3, [0.0, 0.15, 0.8, 40.0], id="terminating"),
    pytest.param(0.3, 0.4, 2.2, [0.0], id="w0"),
    pytest.param(0.3, 0.7, 1.6, [1e-9, 0.05, 0.3, 0.49], id="connect-generic"),
    pytest.param(0.3, 0.7, 1.0, [1e-9, 0.05, 0.3, 0.49], id="log-m0"),
    pytest.param(0.25, 0.25, 2.5, [1e-9, 0.05, 0.3, 0.49], id="log-m2"),
    pytest.param(0.7, 1.3, 1.0, [1e-9, 0.05, 0.3, 0.49], id="euler-m-1"),
    pytest.param(-0.75, 0.25, 1.375, [0.5, 0.9, 1.2, 1.5], id="maclaurin"),
    pytest.param(0.5, 0.25, 1.6, [1.6, 4.0, 200.0, 3001.0], id="pfaff"),
    pytest.param(-0.75, 0.55, 1.625, [0.0, 1e-8, 0.02, 0.4, 1.0, 1.3, 7.0], id="mixed"),
]


@pytest.mark.parametrize("a, b, c, w", PLAN_REGIONS)
def test_plan_matches_one_shot_bit_for_bit(a, b, c, w):
    plan = Gauss2F1Plan(a, b, c)
    w = np.array(w)
    for _ in range(2):
        assert _bits(plan(w)) == _bits(gauss_2f1_cm(a, b, c, w))
        for wi in w:
            assert _bits(plan(float(wi))) == _bits(gauss_2f1_cm(a, b, c, float(wi)))
    if w[0] == 0.0:
        assert plan(0.0) == gauss_2f1(a, b, c, 1.0)


@pytest.mark.parametrize("a, b, c, long_w, short_w", [
    pytest.param(0.3, 0.7, 1.6, 0.49, 1e-6, id="connect-generic"),
    pytest.param(0.25, 0.25, 2.5, 0.49, 1e-6, id="log-m2"),
    pytest.param(-0.75, 0.25, 1.375, 0.5, 1.0, id="maclaurin"),
    pytest.param(0.5, 0.25, 1.6, 2.0, 3000.0, id="pfaff"),
])
def test_plan_order_of_calls_does_not_matter(a, b, c, long_w, short_w):
    # a long series grows the plan's tables past what a short one uses;
    # either order gives the fresh calls' values bit for bit
    fresh = [_bits(gauss_2f1_cm(a, b, c, w)) for w in (long_w, short_w)]
    plan = Gauss2F1Plan(a, b, c)
    assert [_bits(plan(long_w)), _bits(plan(short_w))] == fresh
    plan = Gauss2F1Plan(a, b, c)
    assert [_bits(plan(short_w)), _bits(plan(long_w))][::-1] == fresh


def test_plan_raises_where_the_one_shot_call_does():
    # a pole in c raises on every call, also after a failed one
    pole = Gauss2F1Plan(0.5, 0.7, -3.0)
    for _ in range(2):
        with pytest.raises(ParameterPole):
            pole(0.3)
    assert rel_err(Gauss2F1Plan(-2.0, 0.7, -3.0)(0.7), 1.15785) < 1e-14
    with pytest.raises(DomainError, match="finite parameters"):
        Gauss2F1Plan(0.5, math.nan, 2.0)
    plan = Gauss2F1Plan(0.7, 1.3, 1.5)
    for w in (-0.2, math.nan, np.array([0.3, math.inf])):
        with pytest.raises(DomainError):
            plan(w)
    for _ in range(2):
        with pytest.raises(DomainError, match="Re\\(c-a-b\\) > 0"):
            plan(np.array([0.3, 0.0]))
    assert _bits(plan(0.3)) == _bits(gauss_2f1_cm(0.7, 1.3, 1.5, 0.3))


# one region's lanes, with a lane of every other region to mix them with;
# no w = 0, where Re(c-a-b) <= 0 of log-m0 and euler-m-1 has no value
ONE_REGION = [
    pytest.param(0.3, 0.7, 1.6, [1e-9, 0.05, 0.3, 0.49], [0.9, 7.0], id="connect-generic"),
    pytest.param(0.3, 0.7, 1.0, [1e-9, 0.05, 0.3, 0.49], [0.9, 7.0], id="log-m0"),
    pytest.param(0.25, 0.25, 2.5, [1e-9, 0.05, 0.3, 0.49], [0.9, 7.0], id="log-m2"),
    pytest.param(0.7, 1.3, 1.0, [1e-9, 0.05, 0.3, 0.49], [0.9, 7.0], id="euler-m-1"),
    pytest.param(-0.75, 0.25, 1.375, [0.5, 0.9, 1.2, 1.5], [0.0, 0.2, 7.0], id="maclaurin"),
    pytest.param(0.5, 0.25, 1.6, [1.6, 4.0, 200.0, 3001.0], [0.0, 0.2, 0.9], id="pfaff"),
]


@pytest.mark.parametrize("a, b, c, w, others", ONE_REGION)
def test_one_region_call_matches_its_lanes_of_a_mixed_call(a, b, c, w, others):
    # a one-region call skips the masks; the same lanes interleaved with
    # other regions' lanes take the mask path and must give the same bits
    mixed = np.array([x for pair in itertools.zip_longest(w, others) for x in pair
                      if x is not None])
    lanes = np.isin(mixed, w)
    assert mixed[lanes].tolist() == w
    plan = Gauss2F1Plan(a, b, c)
    assert _bits(plan(np.array(w))) == _bits(gauss_2f1_cm(a, b, c, mixed)[lanes])
    assert _bits(gauss_2f1_cm(a, b, c, np.array(w))) == _bits(plan(mixed)[lanes])
    # an N-D one-region argument keeps its shape and the flat call's bits
    square = np.array(w).reshape(2, 2)
    for value in (plan(square), gauss_2f1_cm(a, b, c, square)):
        assert value.shape == (2, 2)
        assert _bits(value) == _bits(plan(np.array(w)))


def test_argument_checks_of_one_min_and_max():
    plan = Gauss2F1Plan(0.3, 0.7, 1.6)
    empty = plan(np.array([]))
    assert empty.dtype == np.complex128 and empty.shape == (0,)
    # finiteness is checked before the sign, wherever the NaN lane is
    for w in ([math.nan, -1.0], [-1.0, math.nan]):
        with pytest.raises(DomainError, match="needs a finite argument"):
            plan(np.array(w))
    with pytest.raises(DomainError, match="negative complement"):
        plan(np.array([-0.5]))
