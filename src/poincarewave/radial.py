"""Spin-1/2 radial machinery on the real slice z = Re r = Re r*.

The first-order system in the four radial functions reduces, under
f3 = -+ f4 and f2 = +- f1, to a pair of coupled first-order equations and
then to a single second-order Bessel-type equation

    z^2 f1'' - z f1' - (l^2 - 1 - 4 kappa kappa_dot z^2) f1 = 0,

solved by z J_{+-l}(a z).  The coefficient 4 kappa kappa_dot fixes the
argument scale at a = 2 sqrt(kappa kappa_dot), and the evaluator uses that
closed form, ``argument_scale``.  The printed solution writes
sqrt(kappa kappa_dot); ``verify.resolve_scale`` settles the factor of two by
direct residual comparison, as part of the ``radial`` verification suite.
The residual functions here are the field equations that suite checks.
"""

from __future__ import annotations

import cmath
import math
from typing import Literal

from .errors import DomainError, NonPositiveProduct
from .halfint import HalfInt
from . import specfun
from .value import Value, slot_setters

SignPair = Literal["+-", "-+"]

_ONE = HalfInt(2)


def _positive_half_integer(q: HalfInt) -> bool:
    return q.twice > 0 and q.twice % 2 == 1


class RadialParams(Value):
    """The radial mass parameters, the constants of the two Bessel branches
    and the orders l and l_dot."""

    __slots__ = ("kappa", "kappa_dot", "C1", "C2", "l", "l_dot")

    def __init__(self, kappa: complex, kappa_dot: complex, C1: complex, C2: complex,
                 l: HalfInt, l_dot: HalfInt):
        for name, v in (("kappa", kappa), ("kappa_dot", kappa_dot), ("C1", C1), ("C2", C2)):
            if not cmath.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
        if kappa == 0 or kappa_dot == 0:
            raise NonPositiveProduct("kappa and kappa_dot must be nonzero")
        for name, q in (("l", l), ("l_dot", l_dot)):
            if not _positive_half_integer(q):
                raise ValueError(f"{name} must be in {{1/2, 3/2, 5/2, ...}}, got {q}")
        _set_kappa(self, kappa)
        _set_kappa_dot(self, kappa_dot)
        _set_C1(self, C1)
        _set_C2(self, C2)
        _set_l(self, l)
        _set_l_dot(self, l_dot)


_set_kappa, _set_kappa_dot, _set_C1, _set_C2, _set_l, _set_l_dot = slot_setters(RadialParams)


class RadialPoint(Value):
    """A point z > 0 on the real radial slice."""

    __slots__ = ("z",)

    def __init__(self, z: float):
        if not z > 0.0:
            raise ValueError(f"radial coordinate must be positive, got {z}")
        _set_z(self, z)


_set_z, = slot_setters(RadialPoint)


def radial_values(rp: RadialParams, z: float, a: float):
    """f1, f1', f1'', f4 and f4' at z, from one Bessel triple per branch.

    f1 = C1 a z J_l(az) + C2 a z J_{-l}(az);
    d/dz [a z J_nu(az)] = a J_nu + a^2 z J_nu', with J_nu' from the
    two-sided identity and J_nu'' from the Bessel equation itself (no
    finite differences).  f4 = (1 / 2 kappa) ((l+1)/z f1 - f1') and its
    derivative follow from these three.  DomainError when (a z)^2, which
    J_nu'' divides by, underflows to 0, or when a z is not finite.
    """
    l = rp.l
    f1 = d1 = d2 = 0.0 + 0.0j
    for C, nu in ((rp.C1, l), (rp.C2, -l)):
        if C == 0:
            continue
        az = a * z
        if az * az == 0.0:  # the J'' term below divides by it
            raise DomainError(f"(a*z)^2 underflows to 0 at z={z}, a*z={az}")
        if not math.isfinite(az):  # bessel_j_half takes finite arguments only
            raise DomainError(f"a*z is not finite at z={z}, a*z={az}")
        jm = specfun.bessel_j_half(nu - _ONE, az)
        j0 = specfun.bessel_j_half(nu, az)
        jp = specfun.bessel_j_half(nu + _ONE, az)
        dj = 0.5 * (jm - jp)
        nuf = nu.twice / 2.0
        ddj = -dj / az + (nuf * nuf / (az * az) - 1.0) * j0
        f1 += C * a * z * j0
        d1 += C * (a * j0 + a * az * dj)
        d2 += C * (2.0 * a * a * dj + a * a * az * ddj)
    lp1 = l.twice / 2.0 + 1.0
    f4 = (lp1 / z * f1 - d1) / (2.0 * rp.kappa)
    f4p = (-lp1 / (z * z) * f1 + lp1 / z * d1 - d2) / (2.0 * rp.kappa)
    return f1, d1, d2, f4, f4p


def f1_solution(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    """C1 a z J_l(a z) + C2 a z J_{-l}(a z)."""
    return radial_values(rp, pt.z, a)[0]


def f4_from_f1(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    """f4 = (1 / 2 kappa) ((l+1)/z f1 - f1'), derivative taken analytically.

    Equals (a^2 / 2 kappa) z (C1 J_{l+1}(az) - C2 J_{-l-1}(az)) by the
    Bessel recurrences.
    """
    return radial_values(rp, pt.z, a)[3]


def _positive_product(kappa: complex, kappa_dot: complex) -> complex:
    prod = complex(kappa) * complex(kappa_dot)
    if not cmath.isfinite(prod):
        raise NonPositiveProduct(
            f"kappa * kappa_dot = {prod} is not finite, kappa={kappa}, kappa_dot={kappa_dot}")
    if abs(prod.imag) > 1e-14 * abs(prod) or not prod.real > 0.0:
        raise NonPositiveProduct(
            f"kappa * kappa_dot must be real and positive, got {prod}"
        )
    return prod


def argument_scale(kappa: complex, kappa_dot: complex) -> float:
    """Bessel argument scale a = 2 sqrt(kappa kappa_dot), in closed form.

    Bitwise the value ``verify.resolve_scale`` returns when the doubled
    candidate wins, which the ``radial`` verification suite checks.
    """
    return 2.0 * cmath.sqrt(_positive_product(kappa, kappa_dot)).real


def reduced_system_residual(
    rp: RadialParams, pt: RadialPoint, a: float
) -> tuple[complex, complex]:
    """Left-hand sides of the reduced pair, both evaluated on the slice z:

    f4' + (l_dot / z) f4 - 2 kappa f1   and
    f1' - ((l + 1) / z) f1 + 2 kappa_dot f4.
    """
    z = pt.z
    f1, d1, _, f4, f4p = radial_values(rp, z, a)
    ld = rp.l_dot.twice / 2.0
    lp1 = rp.l.twice / 2.0 + 1.0
    r1 = f4p + ld / z * f4 - 2.0 * rp.kappa * f1
    r2 = d1 - lp1 / z * f1 + 2.0 * rp.kappa_dot * f4
    return r1, r2


def full_system_residual(
    rp: RadialParams, pt: RadialPoint, a: float, signs: SignPair
) -> tuple[complex, complex, complex, complex]:
    """Residuals of the four printed first-order equations under
    f2 = +-f1, f3 = -+f4 (sign pair '+-' means f2 = +f1, f3 = -f4)."""
    if signs not in ("+-", "-+"):
        raise ValueError(f"signs must be '+-' or '-+', got {signs!r}")
    s = 1.0 if signs == "+-" else -1.0
    z = pt.z
    f1, d1, _, f4, f4p = radial_values(rp, z, a)
    f2, d2f = s * f1, s * d1
    f3, d3f = -s * f4, -s * f4p
    ldh = rp.l_dot.twice / 2.0 + 0.5  # l_dot + 1/2
    lh = rp.l.twice / 2.0 + 0.5
    k, kd = rp.kappa, rp.kappa_dot
    e1 = -2.0 * d3f + f3 / z + 2.0 * ldh / z * f4 - 4.0 * k * f1
    e2 = 2.0 * f4p - f4 / z - 2.0 * ldh / z * f3 - 4.0 * k * f2
    e3 = 2.0 * d1 - f1 / z - 2.0 * lh / z * f2 - 4.0 * kd * f3
    e4 = -2.0 * d2f + f2 / z + 2.0 * lh / z * f1 - 4.0 * kd * f4
    return e1, e2, e3, e4
