"""Gamma, reciprocal gamma and digamma for complex arguments.

gamma and reciprocal_gamma share one route: the Lanczos approximation
(g = 607/128, 15 coefficients) at w = z for Re z >= 1/2, and at w = 1 - z
through the reflection formula, with sin(pi z) at the exact z - n.  Half of
the power base^(w - 1/2) goes on each side of the other factors, so a value
past double range raises OverflowError and one below it underflows to a
subnormal or 0.  About 2e-15 relative on the real line: the error d that
rounding 1 - z makes is put back as a factor e^(psi(1 - z) d).
reciprocal_gamma returns exactly 0.0 at the poles; the identity catalog
relies on that to switch off vanishing prefactors.
digamma feeds the logarithmic branches of the Gauss series: upward
recurrence into Re z >= 10, then the Bernoulli asymptotic series, and a
reflection whose cot is taken at the exact z - n.  All three raise
DomainError at a non-finite argument.
"""

from __future__ import annotations

import cmath
import math

from .._exceptions import DomainError, PoleError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def is_nonpositive_integer(z) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def _finite(z, name) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} needs a finite argument, got {z}")
    return z


def _lanczos_sum(z: complex) -> complex:
    # valid for Re z >= 0.5
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (z + (k - 1))
    return acc


def _gamma_pow(z: complex, s: float) -> complex:
    # Gamma(z)^s for s = 1 or -1, with Gamma(z) Gamma(1-z) = pi / sin(pi z) and
    # sin(pi z) = (-1)^n sin(pi (z - n)) when Re z < 1/2
    right = z.real >= 0.5
    w = z if right else 1.0 - z
    base = w + _LANCZOS_G - 0.5
    t, scale, e = (s, 1.0, -s * base / 2.0) if right else (-s, 1.0, s * base / 2.0)
    if not right:
        n = round(z.real)
        x = math.pi * (z - n)
        if abs(x.imag) < 20.0:
            scale = ((-1) ** n * math.pi / cmath.sin(x)) ** s
        else:
            # pi / sin x = -sg 2 pi i e^(i sg x) to double precision, where sin x can overflow
            sg = math.copysign(1.0, x.imag)
            scale, e = (-sg * (-1) ** n * 2j * math.pi) ** s, e + s * sg * 0.5j * x
        # Re w = 1 - Re z rounds by d (TwoSum); Gamma(w + d) = Gamma(w) e^(psi(w) d)
        # with psi(w) = log w - 1/(2w) to O(w^-2)
        bv = w.real - 1.0
        d = (1.0 - (w.real - bv)) - (z.real + bv)
        if d:
            scale *= cmath.exp(t * (cmath.log(w) - 0.5 / w) * d)
    p, lb = t * (w - 0.5) / 2.0, cmath.log(base)
    lp = p * lb
    # base ** p forms e^(Re p Re lb), e^(Im p Im lb) and their quotient: each, like e^e, a double
    big = max(abs(p.real * lb.real), abs(p.imag * lb.imag), abs(lp.real), abs(e.real))
    half = base ** p * cmath.exp(e) if big < 700.0 else cmath.exp(lp + e)
    out = half * (scale * (math.sqrt(2.0 * math.pi) * _lanczos_sum(w)) ** t) * half
    if not cmath.isfinite(out):
        raise OverflowError(f"Gamma({z}) ** {s:g} lies past double range")
    return out


def gamma(z) -> complex:
    """Complex gamma function.  Raises PoleError at 0, -1, -2, ..."""
    z = _finite(z, "gamma")
    if is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z}")
    return _gamma_pow(z, 1.0)


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z), entire; exactly 0.0 at nonpositive integers."""
    z = _finite(z, "reciprocal_gamma")
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return _gamma_pow(z, -1.0)


def digamma(z) -> complex:
    """Complex digamma (psi) function.  Raises PoleError at 0, -1, -2, ..."""
    z = _finite(z, "digamma")
    if is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at {z}")
    if z.real < 0.5:
        # psi(z) = psi(1-z) - pi cot(pi (z - n)), z - n exact
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * (z - round(z.real)))
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    u = 1.0 / (z * z)
    # ln z - 1/(2z) - 1/(12 z^2) + 1/(120 z^4) - 1/(252 z^6) + ...
    tail = -u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u / 12.0))))))
    return acc + cmath.log(z) - 0.5 / z + tail
