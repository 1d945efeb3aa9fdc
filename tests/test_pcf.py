"""Parabolic cylinder D_nu: closed forms, recurrence, both evaluation routes."""

import math
import random
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import lapcyl.quad as quad
import lapcyl.special.pcf as pcf_module
from lapcyl.special import pcf_d, erfc, gamma, reciprocal_gamma
from lapcyl import DomainError

SQRT_PI = math.sqrt(math.pi)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def test_order_zero_is_gaussian():
    # D_0(z) = e^{-z^2/4}
    assert rel_err(pcf_d(0.0, 2.0), math.exp(-1.0)) < 1e-14
    for z in (0.0, 0.7, -3.1, 5.0):
        assert rel_err(pcf_d(0.0, z), math.exp(-z * z / 4.0)) < 1e-13


def test_order_one():
    # D_1(z) = z e^{-z^2/4}
    assert rel_err(pcf_d(1.0, 1.5), 1.5 * math.exp(-0.5625)) < 1e-14
    assert rel_err(pcf_d(1.0, 1.5), 0.85467423709638451465) < 1e-14


def test_order_minus_one_is_erfc():
    # D_{-1}(z) = sqrt(pi/2) e^{z^2/4} erfc(z/sqrt 2)
    for z in (1.0, 0.3, -2.0, 2.5):
        want = math.sqrt(math.pi / 2.0) * math.exp(z * z / 4.0) * erfc(z / math.sqrt(2.0))
        assert rel_err(pcf_d(-1.0, z), want) < 1e-13


def test_value_at_zero():
    # D_mu(0) = 2^{mu/2} sqrt(pi) / Gamma((1-mu)/2)
    for mu in (-1.7, -0.5, 0.25, 0.5, 2.3):
        want = 2.0 ** (mu / 2.0) * SQRT_PI * reciprocal_gamma((1.0 - mu) / 2.0)
        assert rel_err(pcf_d(mu, 0.0), complex(want)) < 1e-14
    # odd positive integer order: the prefactor pole makes it vanish
    assert abs(pcf_d(1.0, 0.0)) == 0.0
    assert abs(pcf_d(3.0, 0.0)) == 0.0


def test_frozen_oracle_points():
    # 25-digit oracle, both small-z series and large-z integral routes
    assert rel_err(pcf_d(0.25, 1.5), 0.64971951274600949688) < 1e-13
    assert rel_err(pcf_d(-1.5, 0.8), 0.48105066235833828511) < 1e-13
    assert rel_err(pcf_d(-0.5, 10.0), 4.3756306267890676714e-12) < 1e-12
    assert rel_err(pcf_d(1.5, 6.0), 0.0017949478241013083085) < 1e-12
    assert rel_err(pcf_d(0.7, -3.2), -1.5819305662756600529) < 1e-13


def test_recurrence_beyond_double_range_raises():
    # D_400.5(5) is about 2.7e433: the climb stops at its first infinite value
    with pytest.raises(OverflowError, match="double precision range"):
        pcf_d(400.5, 5.0)


def test_integral_route_at_order_minus_200():
    # 1/Gamma(201.5) is below the smallest subnormal and t^200.5 overflows at
    # the far nodes; D_-200.5(5) itself is about 5e-219
    with mpmath.workdps(30):
        want = float(mpmath.pcfd(-200.5, 5.0))
    assert rel_err(pcf_d(-200.5, 5.0), want) < 1e-12


def _peak(nu, z):
    """The peak t_p of t^(-nu-1) e^(-t^2/2 - z t) for nu < -1, its width and
    the log of that integrand there."""
    nu, z = mpmath.mpf(nu), mpmath.mpf(z)
    tp = (mpmath.sqrt(z * z - 4 * (nu + 1)) - z) / 2
    width = 1 / mpmath.sqrt(1 + (-nu - 1) / tp ** 2)
    return tp, width, (-nu - 1) * mpmath.log(tp) - tp * (tp / 2 + z)


def _log_scale(nu, z):
    # log of D_nu(z)'s prefactor e^(-z^2/4) / Gamma(-nu) times the integrand's peak
    return _peak(nu, z)[2] - mpmath.loggamma(-nu) - mpmath.mpf(z) ** 2 / 4


def _pcf_oracle(nu, z):
    # D_nu(z) = e^(-z^2/4) / Gamma(-nu) int_0^inf t^(-nu-1) e^(-t^2/2 - z t) dt,
    # nu < 0, at 30 digits over panels two widths wide about the peak;
    # mpmath.pcfd takes about a second per point at these orders
    tp, width, log_f = _peak(nu, z)
    nu, z = mpmath.mpf(nu), mpmath.mpf(z)

    def f(t):
        return mpmath.exp((-nu - 1) * mpmath.log(t) - t * (t / 2 + z) - log_f)

    points = [0] + [tp + k * width for k in range(-40, 41, 2) if tp + k * width > 0]
    return float(mpmath.quad(f, points + [mpmath.inf], method="gauss-legendre")
                 * mpmath.exp(_log_scale(nu, z)))


def test_integral_route_at_large_negative_order():
    # t^-nu and 1/Gamma(1 - nu) leave double range on their own below nu of
    # about -127 and -170.6; in one exponent they do not
    rng = random.Random(2507)
    checked = 0
    with warnings.catch_warnings(), mpmath.workdps(30):
        warnings.simplefilter("error")
        for _ in range(400):
            nu, z = rng.uniform(-420.0, -100.0), rng.uniform(3.0, 40.0)
            got = pcf_d(nu, z)
            # Laplace's estimate of |D| skips the oracle far below 1e-290
            width = _peak(nu, z)[1]
            if _log_scale(nu, z) + mpmath.log(width * mpmath.sqrt(2 * mpmath.pi)) < math.log(1e-291):
                continue
            want = _pcf_oracle(nu, z)
            if abs(want) >= 1e-290:
                checked += 1
                assert rel_err(got, want) < 1e-12, (nu, z)
    assert checked >= 50
    with mpmath.workdps(30):
        assert rel_err(_pcf_oracle(-130.5, 3.0), float(mpmath.pcfd(-130.5, 3.0))) < 1e-15


def test_integral_route_p99_against_mpmath():
    # frac(nu) stays below ROADMAP item 1's near-integer defect
    rng = random.Random(2506)
    errs = []
    for _ in range(600):
        nu, z = rng.uniform(-3.0, 0.98), rng.uniform(3.0, 40.0)
        with mpmath.workdps(30):
            want = float(mpmath.pcfd(nu, z))
        errs.append(rel_err(pcf_d(nu, z), want))
    errs.sort()
    assert errs[593] < 3e-14 and errs[-1] < 5e-14


def test_series_route_near_integer_order_at_negative_z():
    # both prefactors' 1/Gamma sit near a pole there
    rng = random.Random(2503)
    for lo, hi in ((-7.0, math.log10(2e-6)), (-10.0, -9.0)):
        for _ in range(150):
            nu = rng.randint(2, 5) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
            z = rng.uniform(-20.0, -0.5)
            with mpmath.workdps(30):
                want = complex(mpmath.pcfd(nu, z))
            assert rel_err(pcf_d(nu, z), want) < 1e-12, (nu, z)


def test_recurrence_small_z():
    for nu in (-1.5, -0.5, 0.5, 1.5):
        for z in (0.1, 0.5, 2.0, -1.3):
            lhs = z * pcf_d(nu, z)
            rhs = pcf_d(nu + 1.0, z) + nu * pcf_d(nu - 1.0, z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_recurrence_large_z():
    # crosses the series/integral route boundary
    for nu in (-1.5, -0.5, 0.5, 1.5):
        for z in (4.5, 6.0, 10.0):
            lhs = z * pcf_d(nu, z)
            rhs = pcf_d(nu + 1.0, z) + nu * pcf_d(nu - 1.0, z)
            assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(pcf_d(nu + 1.0, z)))


def test_route_agreement_at_boundary():
    # the series route still has ~11 good digits at z=3.2; the integral
    # route must agree to within the series' own cancellation loss
    from lapcyl.special.pcf import _pcf_series, _pcf_integral
    for nu in (-1.3, -0.5, 0.6):
        series = _pcf_series(complex(nu), complex(3.2))
        (integral,) = _pcf_integral((nu,), 3.2)
        assert rel_err(integral, series) < 1e-11


def test_recurrence_route_against_mpmath():
    # nu >= 1 at z >= 3 climbs the recurrence from D_{m-1} and D_m, m =
    # frac(nu), both taken from one two-component integral; frac(nu) stays
    # below ROADMAP item 1's near-integer defect
    rng = random.Random(4242)
    for _ in range(120):
        nu = rng.randint(1, 2) + rng.uniform(0.0, 0.98)
        z = rng.uniform(3.0, 40.0)
        with mpmath.workdps(30):
            want = float(mpmath.pcfd(nu, z))
        assert rel_err(pcf_d(nu, z), want) < 1e-13, (nu, z)


@pytest.mark.parametrize("nu, z", [(2.5, 8.0), (-0.75, 5.5)])
def test_integral_route_makes_one_quadrature(monkeypatch, nu, z):
    calls = []
    quadrature = pcf_module.integrate_semi_infinite

    def counted(f, spec, **kw):
        calls.append(spec)
        return quadrature(f, spec, **kw)

    monkeypatch.setattr(pcf_module, "integrate_semi_infinite", counted)
    pcf_d(nu, z)
    assert len(calls) == 1


def test_integral_route_maps_its_positive_endpoint_power(monkeypatch):
    # at nu < 0 the integrand carries t^(-nu), a positive non-integer power
    # at t = 0, which the endpoint map makes an integer one: 11 integrand
    # calls where bisection towards the branch point took 16
    calls = []
    evaluate = quad._Workspace.evaluate

    def counted(self, g, lo, hi):
        calls.append(len(lo))
        return evaluate(self, g, lo, hi)

    monkeypatch.setattr(quad._Workspace, "evaluate", counted)
    got = pcf_d(-0.75, 5.5)
    with mpmath.workdps(30):
        want = float(mpmath.pcfd(-0.75, 5.5))
    assert rel_err(got, want) < 1e-14
    assert len(calls) <= 11


def test_reflection_combinations():
    # D_nu(-z) - D_nu(z) and the odd Kummer series must match
    from lapcyl.special import kummer_phi
    for nu in (-1.5, -0.7, 0.5):
        for z in (0.4, 1.1, 2.2):
            diff = pcf_d(nu, -z) - pcf_d(nu, z)
            want = (z * 2.0 ** ((nu + 3.0) / 2.0) * SQRT_PI
                    * reciprocal_gamma(-nu / 2.0)
                    * math.exp(-z * z / 4.0)
                    * kummer_phi((1.0 - nu) / 2.0, 1.5, z * z / 2.0))
            assert rel_err(diff, want) < 1e-12


def test_domain_cap():
    with pytest.raises(DomainError):
        pcf_d(0.5, 41.0)
    with pytest.raises(DomainError):
        pcf_d(0.5, -45.0)


@pytest.mark.parametrize("nu, z", [
    (0.5, math.nan), (math.nan, 1.0), (0.5, math.inf), (-math.inf, 5.0),
    (0.5, complex(1.0, math.nan)),
])
def test_non_finite_input_is_a_domain_error(nu, z):
    # abs(nan) > 40 is False, so a NaN argument used to return nan
    with pytest.raises(DomainError, match="finite"):
        pcf_d(nu, z)


# Known defect, pinned as a strict xfail so that fixing it shows up here.
_ENDPOINT_UNDERFLOW = (
    "ROADMAP item 1: as frac(nu) nears 1 the integral route's endpoint "
    "substitution underflows, t ** (-nu) times its Jacobian is inf * 0, and "
    "the quadrature raises NonConvergence")


@pytest.mark.xfail(strict=True, reason=_ENDPOINT_UNDERFLOW)
@pytest.mark.parametrize("nu, z", [(0.995, 5.0), (0.999, 3.5), (1.9985, 10.0)])
def test_integral_route_near_integer_order(nu, z):
    with mpmath.workdps(30):
        want = complex(mpmath.pcfd(nu, z))
    assert rel_err(pcf_d(nu, z), want) < 1e-12


_SERIES_CANCELLATION = (
    "ROADMAP item 4: the series route (real z < 3) loses digits to "
    "cancellation at large |nu| as z nears 3 and raises nothing")


@pytest.mark.xfail(strict=True, reason=_SERIES_CANCELLATION)
@pytest.mark.parametrize("nu, z", [
    (-40.5, 2.9),       # -1.036e-32 where D is +1.131e-32
    (-280.5, 1.0),      # 6.1e-3
    (170.5, 2.9),       # 5.7e-3
    (-290.5, 2.0),      # -3.1e-296 where D is +2.3e-310
])
def test_series_route_at_large_order(nu, z):
    with mpmath.workdps(40):
        want = complex(mpmath.pcfd(nu, z))
    assert rel_err(pcf_d(nu, z), want) < 1e-10


def test_conjugate_symmetry():
    nu = 0.3 + 0.4j
    z = 1.2
    a = pcf_d(nu, z)
    b = pcf_d(nu.conjugate(), z)
    assert rel_err(a.conjugate(), b) < 1e-13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=-1.9, max_value=1.9),
       st.floats(min_value=-3.5, max_value=3.5))
def test_recurrence_property(nu, z):
    lhs = z * pcf_d(nu, z)
    rhs = pcf_d(nu + 1.0, z) + nu * pcf_d(nu - 1.0, z)
    scale = max(abs(lhs), abs(pcf_d(nu + 1.0, z)), 1e-3)
    assert abs(lhs - rhs) < 1e-11 * scale
