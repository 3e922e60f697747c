"""Spin-1/2 radial machinery on the real slice z = Re r = Re r*.

The first-order system in the four radial functions reduces, under
f3 = -+ f4 and f2 = +- f1, to a pair of coupled first-order equations and
then to a single second-order Bessel-type equation

    z^2 f1'' - z f1' - (l^2 - 1 - 4 kappa kappa_dot z^2) f1 = 0,

solved by z J_{+-l}(a z).  The coefficient 4 kappa kappa_dot fixes the
argument scale at a = 2 sqrt(kappa kappa_dot), and the evaluator uses that
closed form, ``argument_scale``.  The printed solution writes
sqrt(kappa kappa_dot); ``resolve_scale`` settles the factor of two by direct
residual comparison, and the ``radial`` verification suite runs it as the
check that the closed form is the right one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NonPositiveProduct
from .halfint import HalfInt
from . import specfun
from .dirac import SIGMA

SignPair = Literal["+-", "-+"]

_ONE = HalfInt(2)


@dataclass(frozen=True)
class LambdaSet:
    lam: tuple[np.ndarray, np.ndarray, np.ndarray]
    lam_star: tuple[np.ndarray, np.ndarray, np.ndarray]
    c: float
    c_dot: float


def lambda_set(c: float, c_dot: float) -> LambdaSet:
    """Lambda_i = (c/2) sigma_i and Lambda*_i = (c_dot/2) sigma_i.

    At c = c_dot = 2 the matrices coincide with the Pauli matrices exactly.
    """
    lam = tuple(0.5 * c * SIGMA[i] for i in (1, 2, 3))
    lam_star = tuple(0.5 * c_dot * SIGMA[i] for i in (1, 2, 3))
    return LambdaSet(lam, lam_star, c, c_dot)


def _positive_half_integer(q: HalfInt) -> bool:
    return q.twice > 0 and q.twice % 2 == 1


@dataclass(frozen=True)
class RadialParams:
    kappa: complex
    kappa_dot: complex
    C1: complex
    C2: complex
    l: HalfInt
    l_dot: HalfInt

    def __post_init__(self) -> None:
        if self.kappa == 0 or self.kappa_dot == 0:
            raise NonPositiveProduct("kappa and kappa_dot must be nonzero")
        for name, q in (("l", self.l), ("l_dot", self.l_dot)):
            if not _positive_half_integer(q):
                raise ValueError(f"{name} must be in {{1/2, 3/2, 5/2, ...}}, got {q}")


@dataclass(frozen=True)
class RadialPoint:
    z: float

    def __post_init__(self) -> None:
        if not self.z > 0.0:
            raise ValueError(f"radial coordinate must be positive, got {self.z}")


def _f1_with_derivatives(rp: RadialParams, z: float, a: float):
    """f1, f1', f1'' at z, all via Bessel identities (no finite differences).

    f1 = C1 a z J_l(az) + C2 a z J_{-l}(az);
    d/dz [a z J_nu(az)] = a J_nu + a^2 z J_nu', with J_nu' from the
    two-sided identity and J_nu'' from the Bessel equation itself.
    """
    l = rp.l
    out = [0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j]
    for C, nu in ((rp.C1, l), (rp.C2, -l)):
        if C == 0:
            continue
        az = a * z
        jm = specfun.bessel_j_half(nu - _ONE, az)
        j0 = specfun.bessel_j_half(nu, az)
        jp = specfun.bessel_j_half(nu + _ONE, az)
        d1 = 0.5 * (jm - jp)
        nuf = nu.twice / 2.0
        d2 = -d1 / az + (nuf * nuf / (az * az) - 1.0) * j0
        out[0] += C * a * z * j0
        out[1] += C * (a * j0 + a * az * d1)
        out[2] += C * (2.0 * a * a * d1 + a * a * az * d2)
    return tuple(out)


def f1_solution(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    """C1 a z J_l(a z) + C2 a z J_{-l}(a z)."""
    return _f1_with_derivatives(rp, pt.z, a)[0]


def f1_derivative(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    return _f1_with_derivatives(rp, pt.z, a)[1]


def f4_from_f1(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    """f4 = (1 / 2 kappa) ((l+1)/z f1 - f1'), derivative taken analytically.

    Equals (a^2 / 2 kappa) z (C1 J_{l+1}(az) - C2 J_{-l-1}(az)) by the
    Bessel recurrences.
    """
    z = pt.z
    f1, d1, _ = _f1_with_derivatives(rp, z, a)
    lp1 = rp.l.twice / 2.0 + 1.0
    return (lp1 / z * f1 - d1) / (2.0 * rp.kappa)


def _f4_with_derivative(rp: RadialParams, z: float, a: float):
    f1, d1, d2 = _f1_with_derivatives(rp, z, a)
    lp1 = rp.l.twice / 2.0 + 1.0
    f4 = (lp1 / z * f1 - d1) / (2.0 * rp.kappa)
    f4p = (-lp1 / (z * z) * f1 + lp1 / z * d1 - d2) / (2.0 * rp.kappa)
    return f4, f4p


def _positive_product(kappa: complex, kappa_dot: complex) -> complex:
    prod = complex(kappa) * complex(kappa_dot)
    if abs(prod.imag) > 1e-14 * abs(prod) or prod.real <= 0.0:
        raise NonPositiveProduct(
            f"kappa * kappa_dot must be real and positive, got {prod}"
        )
    return prod


def argument_scale(kappa: complex, kappa_dot: complex) -> float:
    """Bessel argument scale a = 2 sqrt(kappa kappa_dot), in closed form.

    Bitwise the value ``resolve_scale`` returns when the doubled candidate
    wins, which the ``radial`` verification suite checks.
    """
    return 2.0 * cmath.sqrt(_positive_product(kappa, kappa_dot)).real


def resolve_scale(kappa: complex, kappa_dot: complex) -> float:
    """Bessel argument scale a such that z J_l(a z) solves the radial ODE.

    The equation's coefficient 4 kappa kappa_dot implies a = 2 sqrt(k kd)
    while the printed solution writes sqrt(k kd); the two candidates are
    compared by their ODE residuals at l = 1/2 over z in [0.5, 20] and the
    winner is returned.  The doubled candidate wins at machine precision,
    so the evaluator uses ``argument_scale`` and this comparison is the
    ``radial`` verification suite's check of it.
    """
    root = cmath.sqrt(_positive_product(kappa, kappa_dot)).real
    half = HalfInt(1)
    probe = RadialParams(kappa, kappa_dot, 1.0, 0.3, half, half)
    best_a, best_res = None, None
    for a in (root, 2.0 * root):
        worst = 0.0
        for z in np.geomspace(0.5, 20.0, 9):
            r, scale = _bessel_ode_parts(probe, float(z), a)
            worst = max(worst, abs(r) / scale)
        if best_res is None or worst < best_res:
            best_a, best_res = a, worst
    return best_a


def _bessel_ode_parts(rp: RadialParams, z: float, a: float):
    f1, d1, d2 = _f1_with_derivatives(rp, z, a)
    lsq = (rp.l.twice / 2.0) ** 2
    kk4 = 4.0 * rp.kappa * rp.kappa_dot
    res = z * z * d2 - z * d1 - (lsq - 1.0 - kk4 * z * z) * f1
    scale = abs(z * z * d2) + abs(z * d1) + abs((lsq - 1.0) * f1) + abs(kk4 * z * z * f1)
    return res, max(scale, 1e-300)


def bessel_ode_residual(rp: RadialParams, pt: RadialPoint, a: float) -> complex:
    """z^2 f1'' - z f1' - (l^2 - 1 - 4 kappa kappa_dot z^2) f1."""
    return _bessel_ode_parts(rp, pt.z, a)[0]


def reduced_system_residual(
    rp: RadialParams, pt: RadialPoint, a: float
) -> tuple[complex, complex]:
    """Left-hand sides of the reduced pair, both evaluated on the slice z:

    f4' + (l_dot / z) f4 - 2 kappa f1   and
    f1' - ((l + 1) / z) f1 + 2 kappa_dot f4.
    """
    z = pt.z
    f1, d1, _ = _f1_with_derivatives(rp, z, a)
    f4, f4p = _f4_with_derivative(rp, z, a)
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
    f1, d1, _ = _f1_with_derivatives(rp, z, a)
    f4, f4p = _f4_with_derivative(rp, z, a)
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
