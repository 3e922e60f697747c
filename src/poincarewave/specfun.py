"""Gauss hypergeometric series and half-integer Bessel functions.

Every closed-form expression handled by this package reduces to one of two
primitives: the series 2F1(a, b; c; x) and the Bessel functions J_nu of
half-integer order.  Both are evaluated in plain double precision; high
precision belongs to the verification oracles, not to this kernel.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    DomainError,
    IntegerOrderUnsupported,
    NonConvergent,
    NonPositiveArgument,
    PoleInDenominator,
    TermCapExceeded,
)
from .halfint import HalfInt

SERIES_RELTOL = 1e-16
# Terms any one series may sum.  The kernel's series stop within 53 terms
# and verify's sampled box within 500; a polynomial of a higher degree is
# refused when it is compiled, and any other series when it reaches this.
SERIES_TERM_CAP = 1000


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
    ends = [-n for n in (_nonpos_int(a), _nonpos_int(b)) if n is not None]
    return min(ends, default=None)


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


class GaussSeries:
    """The Gauss series 2F1(a, b; c; x) compiled for one triple (a, b, c).

    Everything that does not depend on x is worked out once, at build:
    the check that a, b and c are finite (DomainError), the pole check
    (PoleInDenominator here, not at call time), the termination index
    ``jmax`` and, for a polynomial, all of its term ratios
    (a+j)(b+j)/((c+j)(j+1)) of DLMF 15.2.1.  A polynomial of a degree
    ``jmax`` > SERIES_TERM_CAP raises TermCapExceeded here.  Nothing
    changes after the build but the Pfaff partner, made on first use.  A
    non-terminating series works out each ratio as it goes and raises
    TermCapExceeded if it has not reached SERIES_RELTOL within
    SERIES_TERM_CAP terms.  Either way each term is applied as
    ``term *= r * x``, the order ``hyp2f1`` has always used, so values
    are bitwise those of a term-by-term sum.
    """

    __slots__ = ("a", "b", "c", "jmax", "ratios", "_pfaff")

    def __init__(self, a: float, b: float, c: float):
        if not all(map(math.isfinite, (a, b, c))):
            raise DomainError(f"2F1({a}, {b}; {c}; x): the parameters must be finite")
        self.a, self.b, self.c = a, b, c
        self.jmax = _check_pole(a, b, c)
        n = self.jmax or 0
        if n > SERIES_TERM_CAP:
            raise TermCapExceeded(f"2F1({a}, {b}; {c}; x): {n} terms, past the cap of "
                                  f"{SERIES_TERM_CAP}")
        self.ratios = tuple((a + j) * (b + j) / ((c + j) * (j + 1)) for j in range(n))
        self._pfaff: GaussSeries | None = None

    def pfaff(self) -> "GaussSeries":
        """The partner (a, c - b; c) of the Pfaff map (DLMF 15.8.1)."""
        if self._pfaff is None:
            self._pfaff = GaussSeries(self.a, self.c - self.b, self.c)
        return self._pfaff

    def __call__(self, x: complex, _angle: float | None = None) -> complex:
        # _angle is ignored: the kernel plan calls its tau factors with tau
        # too, since some of them switch to a closed form in tau
        x = complex(x)
        s = term = 1.0 + 0.0j
        if self.jmax is not None:
            for r in self.ratios:
                term *= r * x
                s += term
            return s
        if x.imag == 0.0 and x.real < 0.0:
            z = x.real / (x.real - 1.0)
            return (1.0 - x.real) ** (-self.a) * self.pfaff()(z)
        if not abs(x) < 1.0:
            raise NonConvergent(f"|x| = {abs(x):.3g} >= 1 and the series does not terminate")
        a, b, c = self.a, self.b, self.c
        for j in range(SERIES_TERM_CAP):
            term *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
            s += term
            if abs(term) < SERIES_RELTOL * abs(s):
                return s
        raise TermCapExceeded(f"the series did not converge within {SERIES_TERM_CAP} terms")


def hyp2f1(a: float, b: float, c: float, x: complex) -> complex:
    """Gauss series 2F1(a, b; c; x).

    Terminating series (a or b a non-positive integer) are summed exactly
    term by term.  Non-terminating series are summed directly for |x| < 1
    with x not on the negative real axis.  For real x < 0 the Pfaff map
    x -> x/(x-1) is applied first, which brings the argument into [0, 1)
    and keeps convergence geometric even as x -> -1; this is the only
    analytic continuation performed.  No 1 - x connection is applied, so
    as the (mapped) argument nears 1 the series needs ever more terms and
    raises TermCapExceeded once it needs more than SERIES_TERM_CAP = 1000
    (at x = 0.999 for 2F1(1, 1; 2; x)), as does a polynomial of a higher
    degree.  A parameter or an x that is not finite raises DomainError at
    once.  Each error names (a, b, c) and the x given here, also where the
    Pfaff map has run the series on x/(x-1).

    This compiles a ``GaussSeries`` and calls it once; the Lorentz kernel
    (``hypersph.z_assoc``) keeps its compiled series in a per-index plan
    instead, and takes its factors that would near the x -> 1 limit in
    closed form, so up to l = 1001/2 it meets neither NonConvergent nor
    TermCapExceeded.
    """
    if not cmath.isfinite(x):
        raise DomainError(f"2F1({a}, {b}; {c}; {x}): x must be finite")
    series = GaussSeries(a, b, c)
    try:
        return series(x)
    except (NonConvergent, TermCapExceeded) as exc:
        raise type(exc)(f"2F1({a}, {b}; {c}; {x}): {exc}") from None


def _seed_half(x: float) -> tuple[float, float]:
    """(J_{-1/2}, J_{1/2}) at x > 0."""
    s = math.sqrt(2.0 / (math.pi * x))
    return s * math.cos(x), s * math.sin(x)


def bessel_j_half(nu: HalfInt, x: float) -> float:
    """Bessel function J_nu for half-integer nu (positive or negative).

    Seeds J_{1/2} = sqrt(2/(pi x)) sin x and J_{-1/2} = sqrt(2/(pi x)) cos x
    feed the three-term recurrence J_{v+s} = (2v/x) J_v - J_{v-s}, stepping
    s = +1 from (J_{-1/2}, J_{1/2}) for nu > 0 and s = -1 from
    (J_{1/2}, J_{-1/2}) for nu < 0, |nu| - 1/2 steps in all.  Downward, and
    upward while x >= nu, the recurrence tracks the dominant solution and
    is stable.  Upward with x < nu it is not: J_nu is then the minimal
    solution and the error grows with each step (relative error 0.14 at
    nu = 7/2, x = 0.01).
    """
    if nu.is_integer:
        raise IntegerOrderUnsupported(f"integer order {nu} not supported")
    if not x > 0.0:
        raise NonPositiveArgument(f"Bessel argument must be positive, got {x}")
    jm, jp = _seed_half(x)  # J_{-1/2}, J_{+1/2}
    step, prev, cur = (1.0, jm, jp) if nu.twice > 0 else (-1.0, jp, jm)
    v = 0.5 * step
    for _ in range(abs(nu.twice) // 2):
        prev, cur = cur, (2.0 * v / x) * cur - prev
        v += step
    return cur


def bessel_j_half_derivative(nu: HalfInt, x: float) -> float:
    """J_nu'(x) via the identity J' = (J_{nu-1} - J_{nu+1}) / 2."""
    one = HalfInt(2)
    return 0.5 * (bessel_j_half(nu - one, x) - bessel_j_half(nu + one, x))
