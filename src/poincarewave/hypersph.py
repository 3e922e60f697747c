"""Functions on the Lorentz group.

The kernel Z^l_m(theta, tau) is a finite sum over k = -l ... l of products
of two Gauss hypergeometric factors; the associated functions attach an
exponential phase in (phi, eps) (plain phase for the undotted family,
conjugated phase for the dotted one).

The evaluation domain is open: theta in (0, pi), tau in (0, inf).  Individual
k-terms carry tanh^{-k}(tau/2), which diverges termwise as tau -> 0 for
k > 0, and no limiting prescription is adopted at the endpoints.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError, InvalidIndex, PoleInDenominator
from .halfint import HalfInt, unit_range
from .specfun import GaussSeries

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class EulerAngles:
    """Six Lorentz-group parameters (phi, eps, theta, tau, phi2, eps2).

    The last pair is identically zero for every function evaluated here.
    """

    phi: float = 0.0
    eps: float = 0.0
    theta: float = 0.0
    tau: float = 0.0
    phi2: float = 0.0
    eps2: float = 0.0

    def __post_init__(self) -> None:
        if self.phi2 != 0.0 or self.eps2 != 0.0:
            raise DomainError("phi2 and eps2 must be zero")


@dataclass(frozen=True)
class HypersphIndex:
    l: HalfInt
    m: HalfInt

    def __post_init__(self) -> None:
        if self.l.twice < 0:
            raise InvalidIndex(f"l must be non-negative, got {self.l}")
        if (self.m.twice - self.l.twice) % 2 != 0:
            raise InvalidIndex(f"m = {self.m} not congruent to l = {self.l} mod 1")
        if abs(self.m.twice) > self.l.twice:
            raise InvalidIndex(f"|m| = |{self.m}| exceeds l = {self.l}")


def sum_index_values(idx: HypersphIndex) -> list[HalfInt]:
    """The k-sum runs over -l, -l+1, ..., l: exactly 2l+1 values."""
    return unit_range(-idx.l, idx.l)


def _check_open_domain(theta: float, tau: float) -> None:
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")


def _term_params(idx: HypersphIndex, k: HalfInt):
    l, m = idx.l, idx.m
    a1 = (m.twice - l.twice) / 2.0 + 1.0
    b1 = 1.0 - (l.twice + k.twice) / 2.0
    c1 = (m.twice - k.twice) / 2.0 + 1.0
    a2 = 1.0 - l.twice / 2.0
    c2 = 1.0 - k.twice / 2.0
    return a1, b1, c1, a2, b1, c2


class KernelTerm(NamedTuple):
    """The k-term i^n tan^n(theta/2) tanh^{-k}(tau/2) F_theta F_tau, n = m - k.

    ``theta`` is F_theta as a function of -tan^2(theta/2), ``tau`` is F_tau
    as a function of tanh^2(tau/2); None marks the l = 1/2 factor that
    ``z_assoc`` takes in closed form.
    """

    unit: complex  # i^n
    n: int
    exponent: float  # -k
    theta: GaussSeries | None
    tau: GaussSeries | None


def kernel_plan(idx: HypersphIndex) -> tuple[KernelTerm, ...]:
    """The compiled k-sum of Z^l_m, one term per k = -l ... l, built on
    first use and kept for the last 64 indices used.

    An index that is not evaluable raises PoleInDenominator here, with the
    message of its first pole (k from -l up, the theta factor before the
    tau factor), before any term is summed.  A build that raised is not
    kept, so each call raises a fresh exception.
    """
    return _compiled_plan(idx.l.twice, idx.m.twice)


# Keyed by (2l, 2m): hashing two ints costs a tenth of hashing the index.
@functools.lru_cache(maxsize=64)
def _compiled_plan(l_twice: int, m_twice: int) -> tuple[KernelTerm, ...]:
    idx = HypersphIndex(HalfInt(l_twice), HalfInt(m_twice))
    terms = []
    for k in sum_index_values(idx):
        n = (idx.m.twice - k.twice) // 2  # m - k, an integer
        a1, b1, c1, a2, b2, c2 = _term_params(idx, k)
        # the two non-terminating triples of l = 1/2 (see z_assoc)
        theta = None if (a1, b1, c1) == (1.0, 1.0, 2.0) else GaussSeries(a1, b1, c1)
        tau = None if (a2, b2, c2) == (0.5, 1.0, 1.5) else GaussSeries(a2, b2, c2)
        terms.append(KernelTerm(_I_POWERS[n % 4], n, -k.twice / 2.0, theta, tau))
    return tuple(terms)


def index_is_evaluable(idx: HypersphIndex) -> bool:
    """True when no k-term of Z^l_m hits a pole of a denominator parameter.

    The printed formula is termwise singular for some index pairs (a
    non-positive c parameter whose pole falls inside the terminating sum);
    building the plan of such a pair raises PoleInDenominator.
    """
    try:
        kernel_plan(idx)
    except PoleInDenominator:
        return False
    return True


def z_assoc(idx: HypersphIndex, theta: float, tau: float) -> complex:
    """The kernel Z^l_m(theta, tau).

    cos^{2l}(theta/2) cosh^{2l}(tau/2) times the k-sum of
    i^{m-k} tan^{m-k}(theta/2) tanh^{-k}(tau/2)
    * 2F1(m-l+1, 1-l-k; m-k+1; -tan^2(theta/2))
    * 2F1(-l+1, 1-l-k; -k+1; tanh^2(tau/2)).

    m - k is always an integer, so i^{m-k} cycles through the four units;
    tanh^{-k} uses the principal real branch (its base is positive on the
    open domain).  The k-sum is accumulated in order k = -l ... l with
    compensated summation so grid sweeps are bitwise reproducible.
    Everything that depends on (l, m) alone comes from ``kernel_plan``,
    taken right after the domain check: an index that is not evaluable
    raises PoleInDenominator there, before any factor is evaluated.

    At l = 1/2 both non-terminating factors are elementary and are taken
    in closed form, so that kernel holds up to theta -> pi and until its
    value overflows (tau ~ 1408 near theta = pi/2):
    2F1(1, 1; 2; -t^2) = log(1 + t^2)/t^2 (DLMF 15.4.2), where t^2
    underflows to 0 only where the series is 1 to double precision, and
    2F1(1/2, 1; 3/2; h^2) = atanh(h)/h = (tau/2)/h (DLMF 15.4.3), taken
    from tau itself since h rounds to 1 for tau >~ 38.  Every other factor
    is a compiled ``GaussSeries``.  The non-terminating ones sit at k = -l
    (and at l = 0); near their endpoints they slow and then raise
    TermCapExceeded (the theta factor of m = l as theta -> pi) or
    NonConvergent (the tau factor of l >= 3/2 once tanh^2(tau/2) rounds to
    1).  A prefactor or result that is not finite raises OverflowError
    naming the point, and so does a k-term power tan^{m-k}(theta/2) or
    tanh^{-k}(tau/2) that overflows or divides by 0 (m - k < 0 as theta
    -> 0, k > 0 as tau -> 0), and a tau so small that tanh(tau/2)
    underflows to 0 (tau = 5e-324) when l > 0.
    """
    _check_open_domain(theta, tau)
    return _z(idx, kernel_plan(idx), theta, tau)


def _z(idx: HypersphIndex, plan: tuple[KernelTerm, ...], theta: float, tau: float) -> complex:
    """Z^l_m(theta, tau) from the plan of idx, on a point of the open domain."""
    l = idx.l
    t = math.tan(0.5 * theta)
    h = math.tanh(0.5 * tau)
    if h == 0.0 and l.twice:
        raise _vanishing_tanh(idx, tau)
    try:
        prefactor = math.cos(0.5 * theta) ** l.twice * math.cosh(0.5 * tau) ** l.twice
    except OverflowError:  # cosh(tau/2), or its power, past the double range
        raise _overflow(idx, theta, tau) from None
    t2 = t * t
    x = complex(-t2)  # the series arguments, converted once, not per factor
    y = complex(h * h)

    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan carry
    for unit, n, exponent, theta_f, tau_f in plan:
        try:
            power = unit * t**n * h**exponent
        except (OverflowError, ZeroDivisionError):  # n < 0 as t -> 0, k > 0 as h -> 0
            raise _overflow(idx, theta, tau) from None
        term = (
            power
            * (theta_f(x) if theta_f is not None else (math.log1p(t2) / t2 if t2 else 1.0))
            * (tau_f(y) if tau_f is not None else (0.5 * tau) / h)
        )
        yv = term - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
    z = prefactor * total
    if not cmath.isfinite(z):
        raise _overflow(idx, theta, tau)
    return z


def z_grid(
    idx: HypersphIndex, thetas: Sequence[float], taus: Sequence[float]
) -> list[list[complex]]:
    """Z^l_m over the grid thetas x taus: row i holds Z(thetas[i], tau) for
    each tau, and each value is bitwise ``z_assoc(idx, theta, tau)``.

    A k-term splits into a theta part and a tau part, and its series
    factors F_theta and F_tau depend on one grid value each, so for this
    call every series factor of the plan keeps its values: each runs once
    per theta and once per tau, and each point is ``z_assoc``'s k-sum of
    them.  DomainError and PoleInDenominator are raised before any series
    runs, as ``z_assoc`` raises them at the first point in row order that
    fails either; any other error is ``z_assoc``'s at the first point in
    row order that fails, and nothing is returned.
    """
    if not (thetas and taus):
        return [[] for _ in thetas]
    # z_assoc's error at the first point in row order that is outside the
    # domain or has no plan: the first point, the plan, then the first row
    # and the first column
    _check_open_domain(thetas[0], taus[0])
    plan = kernel_plan(idx)
    for tau in taus:
        _check_open_domain(thetas[0], tau)
    for theta in thetas:
        _check_open_domain(theta, taus[0])
    plan = tuple(term._replace(theta=term.theta and functools.cache(term.theta),
                               tau=term.tau and functools.cache(term.tau)) for term in plan)
    return [[_z(idx, plan, theta, tau) for tau in taus] for theta in thetas]


def _overflow(idx: HypersphIndex, theta: float, tau: float) -> OverflowError:
    return OverflowError(f"Z^{idx.l}_{idx.m}(theta={theta}, tau={tau}) overflows")


def _vanishing_tanh(idx: HypersphIndex, tau: float) -> OverflowError:
    return OverflowError(
        f"tanh(tau/2) underflows to 0 at tau={tau}, where the k > 0 terms of "
        f"Z^{idx.l}_{idx.m} diverge")


def phase(m: HalfInt, ang: EulerAngles, dotted: bool) -> complex:
    """The phase e^{-m(eps + i phi)} of ``m_assoc``, or e^{-m(eps - i phi)}
    of ``m_assoc_dotted`` when ``dotted``."""
    mval = m.twice / 2.0
    if dotted:
        return cmath.exp(-mval * (ang.eps - 1j * ang.phi))
    return cmath.exp(-mval * (ang.eps + 1j * ang.phi))


def m_assoc(idx: HypersphIndex, ang: EulerAngles) -> complex:
    """Associated function e^{-m(eps + i phi)} Z^l_m(theta, tau)."""
    return phase(idx.m, ang, False) * z_assoc(idx, ang.theta, ang.tau)


def m_assoc_dotted(idx: HypersphIndex, ang: EulerAngles) -> complex:
    """Dotted counterpart: same Z kernel with conjugated phase convention,
    e^{-m(eps - i phi)} Z^l_m(theta, tau)."""
    return phase(idx.m, ang, True) * z_assoc(idx, ang.theta, ang.tau)


def m_assoc_pair(
    idx: HypersphIndex, idx_dot: HypersphIndex, ang: EulerAngles
) -> tuple[complex, complex]:
    """``m_assoc(idx, ang)`` and ``m_assoc_dotted(idx_dot, ang)``, bitwise.

    The two families share the kernel and differ only in phase, so when
    ``idx_dot == idx`` the kernel is evaluated once.
    """
    z = z_assoc(idx, ang.theta, ang.tau)
    z_dot = z if idx_dot == idx else z_assoc(idx_dot, ang.theta, ang.tau)
    return phase(idx.m, ang, False) * z, phase(idx_dot.m, ang, True) * z_dot
