"""Gamma, reciprocal gamma, digamma."""

import cmath
import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lapcyl.special import gamma, reciprocal_gamma, digamma, is_nonpositive_integer
from lapcyl import DomainError, PoleError

SQRT_PI = math.sqrt(math.pi)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def test_half_integer_values():
    assert rel_err(gamma(0.5), SQRT_PI) < 1e-15
    assert rel_err(gamma(1.5), 0.5 * SQRT_PI) < 1e-15
    # Gamma(-3/2) = Gamma(1/2) / ((-3/2)(-1/2)) = (4/3) sqrt(pi)
    assert rel_err(gamma(-1.5), (4.0 / 3.0) * SQRT_PI) < 1e-14
    assert rel_err(gamma(-1.5), 2.3632718012073547031) < 1e-14


def test_factorials():
    for n in range(1, 12):
        assert rel_err(gamma(float(n)), math.factorial(n - 1)) < 1e-14


def test_quarter_point():
    # frozen from a 25-digit evaluation of the integral definition
    assert rel_err(gamma(0.25), 3.6256099082219083119) < 1e-14


def test_complex_point():
    # frozen, 20 digits
    want = 1.5391003433867946979 - 3.8384919018379110316j
    assert rel_err(gamma(0.1 + 0.2j), want) < 1e-13


def test_poles_raise():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma(z)


def test_reciprocal_gamma_is_entire():
    for z in (0.0, -1.0, -5.0):
        assert reciprocal_gamma(z) == 0.0
    assert rel_err(reciprocal_gamma(0.5), 1.0 / SQRT_PI) < 1e-14
    assert rel_err(reciprocal_gamma(-1.5), 3.0 / (4.0 * SQRT_PI)) < 1e-14


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0.0)
    assert is_nonpositive_integer(-3.0)
    assert not is_nonpositive_integer(1.0)
    assert not is_nonpositive_integer(-2.5)
    assert not is_nonpositive_integer(-3.0 + 0.1j)
    assert not is_nonpositive_integer(-math.inf)


@pytest.mark.parametrize("fn", [gamma, reciprocal_gamma, digamma])
@pytest.mark.parametrize("z", [-math.inf, math.inf, math.nan, complex(1.0, math.inf)])
def test_non_finite_argument_is_domain_error(fn, z):
    with pytest.raises(DomainError):
        fn(z)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.floats(min_value=0.1, max_value=20.0))
def test_recurrence(x):
    assert rel_err(gamma(x + 1.0), x * gamma(x)) < 1e-13


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.floats(min_value=0.05, max_value=10.0))
def test_duplication(x):
    lhs = gamma(x) * gamma(x + 0.5)
    rhs = 2.0 ** (1.0 - 2.0 * x) * SQRT_PI * gamma(2.0 * x)
    assert rel_err(lhs, rhs) < 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_reflection(x):
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    assert rel_err(gamma(x) * gamma(1.0 - x), math.pi / math.sin(math.pi * x)) < 1e-12


def test_digamma_frozen():
    assert rel_err(digamma(0.3), -3.5025242222001331249) < 1e-13
    assert rel_err(digamma(-1.7), -1.4857174995110567089) < 1e-12
    assert rel_err(digamma(1.0), -0.57721566490153286061) < 1e-14


def test_digamma_recurrence():
    for z in (0.2, 1.7, -0.4, 3.3, 0.5 + 0.5j):
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-12 * max(1.0, abs(digamma(z)))


def test_digamma_poles():
    with pytest.raises(PoleError):
        digamma(0.0)
    with pytest.raises(PoleError):
        digamma(-4.0)


def test_conjugate_symmetry():
    z = 0.7 + 1.3j
    assert cmath.isclose(gamma(z.conjugate()), gamma(z).conjugate(), rel_tol=1e-13)


def _mp(fn, x):
    with mpmath.workdps(30):
        return complex(fn(mpmath.mpf(x)))


def test_large_argument_against_mpmath():
    # base^(z - 1/2) leaves double range from z = 142.58 on, before e^-base
    # brings the product back: both functions returned NaN or raised there
    rng = random.Random(2401)
    for x in [142.6, 171.6] + [rng.uniform(140.0, 171.6) for _ in range(40)]:
        assert rel_err(gamma(x), _mp(mpmath.gamma, x)) < 1e-14, x
        assert rel_err(reciprocal_gamma(x), _mp(mpmath.rgamma, x)) < 1e-14, x


def test_large_negative_argument_against_mpmath():
    rng = random.Random(2402)
    for x in [-141.6] + [rng.uniform(-170.5, -140.0) for _ in range(40)]:
        assert rel_err(gamma(x), _mp(mpmath.gamma, x)) < 1e-14, x
        assert rel_err(reciprocal_gamma(x), _mp(mpmath.rgamma, x)) < 1e-14, x


def test_near_poles_against_mpmath():
    # sin(pi x) is taken at the exact x - n: rounding pi x cost |x| eps / |x - n|
    rng = random.Random(2501)
    points = [-3.0 + 1e-13, -20.0 + 1e-12, -100.0 + 1e-10]
    points += [-rng.randint(0, 20) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -2.0)
               for _ in range(300)]
    for x in points:
        assert rel_err(gamma(x), _mp(mpmath.gamma, x)) < 1e-14, x
        assert rel_err(reciprocal_gamma(x), _mp(mpmath.rgamma, x)) < 1e-14, x


def test_digamma_near_poles_against_mpmath():
    rng = random.Random(2502)
    for _ in range(300):
        x = -rng.randint(0, 20) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -2.0)
        assert rel_err(digamma(x), _mp(mpmath.digamma, x)) < 1e-14, x


@pytest.mark.parametrize("x", [-174.0 + 1e-10, -176.5, -178.0 + 1e-10, -180.5, -1500.5])
def test_reflection_to_subnormal_against_mpmath(x):
    # 1/Gamma(1 - x) is subnormal or 0 here: pi / sin(pi x) goes in before the
    # last product, so Gamma(x) keeps the digits its own magnitude allows
    want = _mp(mpmath.gamma, x)
    assert abs(gamma(x) - want) <= max(1e-14 * abs(want), 5e-324), x


@pytest.mark.parametrize("x", [-170.97, -172.00001, -174.0 + 1e-10])
def test_reciprocal_reflection_past_gamma_range(x):
    # Gamma(1 - x) passes double range, sin(pi x) brings 1/Gamma(x) back
    assert rel_err(reciprocal_gamma(x), _mp(mpmath.rgamma, x)) < 1e-14, x


def test_large_imaginary_part_underflow_and_overflow():
    # |Gamma(1/2 + 500i)| = sqrt(pi / cosh(500 pi)), about e^-785; from |Im z| of
    # about 950 on, base ** p alone leaves double range at Re z < 1/2
    for z in (0.5 + 500j, -0.5 + 500j, -0.5 + 1000j, -0.5 - 1000j, 0.3 + 3000j):
        assert gamma(z) == 0.0
        with pytest.raises(OverflowError):
            reciprocal_gamma(z)
    with pytest.raises(OverflowError, match="double range"):
        reciprocal_gamma(0.5 + 500j)


@pytest.mark.parametrize("z", [0.49 + 230j, 0.49 - 230j, 0.3 + 240j, -20.3 + 300j, -20.3 - 300j])
def test_reflection_at_large_imaginary_part(z):
    # sin(pi z) overflows from |Im z| of about 226 on, though both values are normal
    with mpmath.workdps(30):
        want_g, want_rg = complex(mpmath.gamma(z)), complex(mpmath.rgamma(z))
    assert rel_err(gamma(z), want_g) < 1e-12
    assert rel_err(reciprocal_gamma(z), want_rg) < 1e-12


def test_complex_plane_against_mpmath():
    # a value within 4e-15 |z| (a subnormal within 1e-320), or OverflowError only
    # where the value passes double range: base ** p forms |base|^Re p and
    # e^(-Im p arg base) apart, and either can leave double range where the half
    # does not.  gamma(488.1+2884.1j), about 1e-279, raised, and
    # reciprocal_gamma(-0.5+1000j), about 6e684, returned 0
    rng = random.Random(2503)
    points = [488.1040610920677 + 2884.104285764374j, 1436.0 + 8300.0j, -0.5 + 1000j]
    for _ in range(400):
        y = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 4.0)
        points.append(complex(rng.uniform(-2000.0, 2000.0), y))
    for z in points:
        for fn, exact in ((gamma, mpmath.gamma), (reciprocal_gamma, mpmath.rgamma)):
            with mpmath.workdps(30):
                want = exact(mpmath.mpc(z))
            try:
                got = fn(z)
            except OverflowError:
                assert abs(want) > sys.float_info.max, (fn.__name__, z)
                continue
            assert abs(want) <= sys.float_info.max, (fn.__name__, z)
            if abs(want) < sys.float_info.min:
                assert abs(got - complex(want)) <= 1e-320, (fn.__name__, z)
            else:
                assert rel_err(got, complex(want)) < 4e-15 * abs(z), (fn.__name__, z)


def test_reciprocal_gamma_underflows_to_subnormal_or_zero():
    assert reciprocal_gamma(180.0) == 0.0
    assert reciprocal_gamma(200.75) == 0.0
    assert reciprocal_gamma(1500.5) == 0.0      # e^base alone passes double range
    rng = random.Random(2403)
    for x in [171.7, 175.0] + [rng.uniform(171.6, 178.0) for _ in range(20)]:
        got = reciprocal_gamma(x)
        assert got.imag == 0.0 and 0.0 <= got.real < sys.float_info.min, x
        assert abs(got - _mp(mpmath.rgamma, x)) <= 1e-310, x


def test_never_nan_across_the_real_line():
    # a value, PoleError or OverflowError, never NaN; each raises
    # OverflowError only where its value passes double range
    for x in [-400.0 + 0.37 * k for k in range(2163)]:
        for fn, exact in ((gamma, mpmath.gamma), (reciprocal_gamma, mpmath.rgamma)):
            try:
                got = fn(x)
            except OverflowError:
                assert abs(exact(x)) > sys.float_info.max, (fn.__name__, x)
                continue
            except PoleError:
                continue
            assert cmath.isfinite(got), (fn.__name__, x)


def _binade_draws(rng, count, imag=0.0):
    # Re z in (-2^k, -2^k + 1): 1 - z lands one binade above z, so forming it rounds
    return [complex(rng.uniform(-2.0 ** k, -2.0 ** k + 1.0), rng.uniform(-imag, imag))
            for k in range(1, 8) for _ in range(count)]


def test_rounding_of_one_minus_z_against_mpmath():
    # the reflection takes Gamma at w = 1 - z; rounding Re w by d cost psi(w) d,
    # 6.9e-14 at -127.63418279395974, before e^(psi(w) d) put it back
    rng = random.Random(2601)
    points = [complex(-127.63418279395974)] + _binade_draws(rng, 40)
    points += [complex(rng.uniform(-170.0, -1.0)) for _ in range(200)]
    for bound, zs in ((4e-15, points), (3e-14, _binade_draws(rng, 43, imag=5.0))):
        for z in zs:
            with mpmath.workdps(40):
                want_g, want_rg = complex(mpmath.gamma(z)), complex(mpmath.rgamma(z))
            assert rel_err(gamma(z), want_g) < bound, z
            assert rel_err(reciprocal_gamma(z), want_rg) < bound, z
