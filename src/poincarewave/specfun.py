"""Gauss hypergeometric series and half-integer Bessel functions.

Every closed-form expression handled by this package reduces to one of two
primitives: the series 2F1(a, b; c; x) and the Bessel functions J_nu of
half-integer order.  Both are evaluated in plain double precision; high
precision belongs to the verification oracles, not to this kernel.
"""

from __future__ import annotations

import math

from .errors import (
    IntegerOrderUnsupported,
    NonConvergent,
    NonPositiveArgument,
    PoleInDenominator,
    TermCapExceeded,
)
from .halfint import HalfInt

SERIES_RELTOL = 1e-16
SERIES_TERM_CAP = 10**6


def _nonpos_int(v: float) -> int | None:
    """Return int(v) when v is a non-positive integer, else None."""
    if v <= 0 and v == round(v):
        return int(round(v))
    return None


def _termination_index(a: float, b: float) -> int | None:
    """Last series index when a or b is a non-positive integer.

    If both parameters terminate the series, the smaller index is used
    (the two truncations sum identically; the shorter one is canonical).
    """
    na, nb = _nonpos_int(a), _nonpos_int(b)
    if na is not None and nb is not None:
        return min(-na, -nb)
    if na is not None:
        return -na
    if nb is not None:
        return -nb
    return None


def _check_pole(a: float, b: float, c: float) -> int | None:
    jmax = _termination_index(a, b)
    nc = _nonpos_int(c)
    if nc is not None:
        # (c)_j first vanishes at j = 1 - c; the numerator must have
        # terminated strictly before that index.
        pole_j = 1 - nc
        if jmax is None or jmax >= pole_j:
            raise PoleInDenominator(
                f"2F1({a}, {b}; {c}; x): denominator pole at term {pole_j} "
                "reached before series termination"
            )
    return jmax


def _sum_series(a: float, b: float, c: float, x: complex, jmax: int | None) -> complex:
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    j = 0
    while True:
        if jmax is not None and j >= jmax:
            return s
        term *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
        s += term
        j += 1
        if jmax is None:
            if abs(term) < SERIES_RELTOL * abs(s):
                return s
            if j >= SERIES_TERM_CAP:
                raise TermCapExceeded(
                    f"2F1 series did not converge within {SERIES_TERM_CAP} terms"
                )


def hyp2f1(a: float, b: float, c: float, x: complex) -> complex:
    """Gauss series 2F1(a, b; c; x).

    Terminating series (a or b a non-positive integer) are summed exactly
    term by term.  Non-terminating series are summed directly for |x| < 1
    with x not on the negative real axis.  For real x < 0 the Pfaff map
    x -> x/(x-1) is applied first, which brings the argument into [0, 1)
    and keeps convergence geometric even as x -> -1; this is the only
    analytic continuation performed.  No 1 - x connection is applied, so
    as the (mapped) argument nears 1 the series needs ever more terms and
    raises TermCapExceeded once it needs more than SERIES_TERM_CAP.  The
    Lorentz kernel takes its two l = 1/2 factors that would hit this in
    closed form (``hypersph.z_assoc``) and calls this only for the rest.
    """
    x = complex(x)
    jmax = _check_pole(a, b, c)
    if jmax is not None:
        return _sum_series(a, b, c, x, jmax)
    if x.imag == 0.0 and x.real < 0.0:
        z = x.real / (x.real - 1.0)
        return (1.0 - x.real) ** (-a) * hyp2f1(a, c - b, c, z)
    if abs(x) < 1.0:
        return _sum_series(a, b, c, x, None)
    raise NonConvergent(
        f"2F1 series with |x| = {abs(x):.3g} >= 1 does not terminate"
    )


def _seed_half(x: float) -> tuple[float, float]:
    """(J_{-1/2}, J_{1/2}) at x > 0."""
    s = math.sqrt(2.0 / (math.pi * x))
    return s * math.cos(x), s * math.sin(x)


def bessel_j_half(nu: HalfInt, x: float) -> float:
    """Bessel function J_nu for half-integer nu (positive or negative).

    Seeds J_{1/2} = sqrt(2/(pi x)) sin x and J_{-1/2} = sqrt(2/(pi x)) cos x
    feed the three-term recurrence, applied upward for nu > 1/2 and downward
    for nu < -1/2.  Downward, and upward while x >= nu, the recurrence
    tracks the dominant solution and is stable.  Upward with x < nu it is
    not: J_nu is then the minimal solution and the error grows with each
    step (relative error 0.14 at nu = 7/2, x = 0.01).
    """
    if nu.is_integer:
        raise IntegerOrderUnsupported(f"integer order {nu} not supported")
    if not x > 0.0:
        raise NonPositiveArgument(f"Bessel argument must be positive, got {x}")
    jm, jp = _seed_half(x)  # J_{-1/2}, J_{+1/2}
    if nu.twice == 1:
        return jp
    if nu.twice == -1:
        return jm
    if nu.twice > 0:
        prev, cur = jm, jp
        v = 0.5
        while v < nu.twice / 2.0:
            prev, cur = cur, (2.0 * v / x) * cur - prev
            v += 1.0
        return cur
    prev, cur = jp, jm
    v = -0.5
    while v > nu.twice / 2.0:
        prev, cur = cur, (2.0 * v / x) * cur - prev
        v -= 1.0
    return cur


def bessel_j_half_derivative(nu: HalfInt, x: float) -> float:
    """J_nu'(x) via the identity J' = (J_{nu-1} - J_{nu+1}) / 2."""
    one = HalfInt(2)
    return 0.5 * (bessel_j_half(nu - one, x) - bessel_j_half(nu + one, x))
