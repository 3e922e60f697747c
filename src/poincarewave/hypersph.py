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
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, InvalidIndex, PoleInDenominator, TermCapExceeded
from .halfint import HalfInt, unit_range
from .specfun import SERIES_TERM_CAP, GaussSeries, _check_pole
from .value import Value, slot_setters

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

# Which (l, m) have a k-sum free of poles, as index_is_evaluable finds them.
_EVALUABLE_RULE = ("Z^l_m is evaluable for every m at l in {0, 1/2, 1}, for m = -l "
                  "or m >= l - 1 at half-integer l >= 3/2, and for no m at integer l >= 2")


class EulerAngles(Value):
    """Six Lorentz-group parameters (phi, eps, theta, tau, phi2, eps2).

    The last pair is identically zero for every function evaluated here.
    """

    __slots__ = ("phi", "eps", "theta", "tau", "phi2", "eps2")

    def __init__(self, phi: float = 0.0, eps: float = 0.0, theta: float = 0.0,
                 tau: float = 0.0, phi2: float = 0.0, eps2: float = 0.0):
        if not (math.isfinite(phi) and math.isfinite(eps)):
            raise DomainError(f"phi and eps must be finite, got {phi} and {eps}")
        if phi2 != 0.0 or eps2 != 0.0:
            raise DomainError("phi2 and eps2 must be zero")
        _set_phi(self, phi)
        _set_eps(self, eps)
        _set_theta(self, theta)
        _set_tau(self, tau)
        _set_phi2(self, phi2)
        _set_eps2(self, eps2)


_set_phi, _set_eps, _set_theta, _set_tau, _set_phi2, _set_eps2 = slot_setters(EulerAngles)


class HypersphIndex(Value):
    """The index pair (l, m) of Z^l_m."""

    __slots__ = ("l", "m")

    def __init__(self, l: HalfInt, m: HalfInt):
        if l.twice < 0:
            raise InvalidIndex(f"l must be non-negative, got {l}")
        if (m.twice - l.twice) % 2 != 0:
            raise InvalidIndex(f"m = {m} not congruent to l = {l} mod 1")
        if abs(m.twice) > l.twice:
            raise InvalidIndex(f"|m| = |{m}| exceeds l = {l}")
        _set_l(self, l)
        _set_m(self, m)


_set_l, _set_m = slot_setters(HypersphIndex)


def sum_index_values(idx: HypersphIndex) -> list[HalfInt]:
    """The k-sum runs over -l, -l+1, ..., l: exactly 2l+1 values."""
    return unit_range(-idx.l, idx.l)


def _check_open_domain(theta: float, tau: float) -> None:
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")


def check_domain(thetas: Sequence[float], taus: Sequence[float]) -> None:
    """Raise ``z_assoc``'s DomainError for the first point of the non-empty
    grid thetas x taus, in row order, that lies outside the open domain:
    the first row, then the first column."""
    for tau in taus:
        _check_open_domain(thetas[0], tau)
    for theta in thetas:
        _check_open_domain(theta, taus[0])


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

    ``theta`` is F_theta as a function of x = -tan^2(theta/2), ``tau`` is
    F_tau as a function of y = tanh^2(tau/2) and tau: a ``GaussSeries``,
    or one that switches to a closed form past 1/2 (``_theta_factor``,
    ``_tau_factor``).  None marks the l = 1/2 factor that ``z_assoc``
    takes in closed form.
    """

    unit: complex  # i^n
    n: int
    exponent: float  # -k
    theta: Callable[[complex], complex | float] | None
    tau: Callable[[complex, float], complex | float] | None


def _theta_factor(series: GaussSeries):
    """F_theta for ``series``: the series itself, but for the non-terminating
    2F1(1, 1; c; -t^2) of m = l, c = 2l + 1 >= 3 (l = 0's (1, 1; 1) has a
    terminating Pfaff partner).  That one is summed through its Pfaff
    partner, whose ratio tends to z = t^2/(1 + t^2), while z < 1/2, and
    past that taken in closed form (DLMF 15.8.1 with 15.4.2's log series):
    (c - 1) [log(1 + t^2) - sum_{k=1}^{c-2} z^k/k] / ((1 + t^2) z^{c-1}).
    """
    if series.jmax is not None or series.c < 3.0:
        return series
    c = round(series.c)

    def factor(x: complex) -> complex | float:
        t2 = -x.real
        if t2 < 1.0:  # z < 1/2
            return series(x)
        z = t2 / (1.0 + t2)
        # the bracket cancels up to ~350-fold (c = 8, z = 1/2), so there its
        # log is that of the rounded z; far out z rounds to 1
        parts = [-math.log1p(-z) if t2 < 4.0 else math.log1p(t2)]
        zk = 1.0
        for k in range(1, c - 1):
            zk *= z
            parts.append(-zk / k)
        return (c - 1) * math.fsum(parts) / ((1.0 + t2) * zk * z)

    return factor


def _tau_factor(series: GaussSeries):
    """F_tau for ``series``: the series itself, but for the two kinds that
    do not terminate or that cancel as y = h^2 = tanh^2(tau/2) -> 1.  Those
    are summed while y < 1/2 and past that taken from tau, in powers of
    E = e^{-tau}, so they hold where h rounds to 1:
    - 2F1(1, 1; 1; y) = cosh^2(tau/2), the k = 0 factor of l = 0;
    - 2F1(1 - l, 1; 1 + l; y), the k = -l factor of l = n + 1/2, is
      l [(-1)^n C(2n, n) tau E^{2n} + sum_{j=1}^{n} (-1)^{n-j} C(2n, n-j)
      (E^{2(n-j)} - E^{2(n+j)})/(2j)] / (h^{2n+1} (1 + E)^{4n}) (DLMF
      15.8.1 and 8.17.8, the integral of sinh^{2n}), whose denominator is
      (1 - E^2)^{2n-1} (1 - E)^2 since h (1 + E) = 1 - E;
    - 2F1(1 - l, 1 - 2l; 1 - l; y) = (1 - y)^{2l-1} = sech^{4l-2}(tau/2),
      the k = l factor of half-integer l >= 3/2 (DLMF 15.4.6), with
      sech^2(tau/2) = 4E/(1 + E)^2.
    """
    a, b, c = series.a, series.b, series.c
    if series.jmax is None and c == 1.0:
        def form(tau: float) -> float:
            ch = math.cosh(0.5 * tau)
            return ch * ch
    elif series.jmax is None:
        n = round(c - 1.5)
        head = (-1) ** n * math.comb(2 * n, n)
        coefs = [(-1) ** (n - j) * math.comb(2 * n, n - j) / (2 * j) for j in range(1, n + 1)]

        def form(tau: float) -> float:
            e = math.exp(-tau)
            e2 = e * e
            pw = [1.0]  # E^{2j}, j = 0 ... 2n
            for _ in range(2 * n):
                pw.append(pw[-1] * e2)
            s = head * tau * pw[n]
            for j, coef in enumerate(coefs, 1):
                s += coef * (pw[n - j] - pw[n + j])
            return (c - 1.0) * s / ((1.0 - e2) ** (2 * n - 1) * (1.0 - e) ** 2)
    elif a == c and b <= -2.0 and a != round(a):
        def form(tau: float) -> float:
            e = math.exp(-tau)
            return (4.0 * e / ((1.0 + e) * (1.0 + e))) ** -b
    else:
        return series

    def factor(y: complex, tau: float) -> complex | float:
        return series(y) if y.real < 0.5 else form(tau)

    return factor


def kernel_plan(idx: HypersphIndex) -> tuple[KernelTerm, ...]:
    """The compiled k-sum of Z^l_m, one term per k = -l ... l, built on
    first use and kept for the last 64 indices used.

    An index that is not evaluable raises PoleInDenominator here, with the
    message of its first pole (k from -l up, the theta factor before the
    tau factor) followed by the rule of which indices are evaluable, before
    any factor is built.  Past l = 1001/2 an evaluable index raises
    TermCapExceeded naming l right after the pole checks, also before any
    factor is built: its k = l tau factor 2F1(1 - l, 1 - 2l; 1 - l; y) is
    a polynomial of degree 2l - 1 > SERIES_TERM_CAP.  A build that raised
    is not kept, so each call raises a fresh exception.
    """
    return _compiled_plan(idx.l.twice, idx.m.twice)


def _check_poles(idx: HypersphIndex) -> None:
    """Raise the PoleInDenominator of the first pole of idx's k-sum, if any."""
    try:
        for k in map(HalfInt, range(-idx.l.twice, idx.l.twice + 1, 2)):
            params = _term_params(idx, k)
            _check_pole(*params[:3])
            _check_pole(*params[3:])
    except PoleInDenominator as exc:
        raise PoleInDenominator(f"{exc}; {_EVALUABLE_RULE}") from None


# Keyed by (2l, 2m): hashing two ints costs a tenth of hashing the index.
@functools.lru_cache(maxsize=64)
def _compiled_plan(l_twice: int, m_twice: int) -> tuple[KernelTerm, ...]:
    idx = HypersphIndex(HalfInt(l_twice), HalfInt(m_twice))
    _check_poles(idx)
    if l_twice - 1 > SERIES_TERM_CAP:
        raise TermCapExceeded(
            f"Z^{idx.l}_{idx.m}: at l = {idx.l} its k = l factor 2F1(1 - l, 1 - 2l; 1 - l; y) "
            f"has {l_twice - 1} terms, past the cap of {SERIES_TERM_CAP}")
    terms = []
    for k in sum_index_values(idx):
        n = (idx.m.twice - k.twice) // 2  # m - k, an integer
        a1, b1, c1, a2, b2, c2 = _term_params(idx, k)
        # the two non-terminating triples of l = 1/2 (see z_assoc)
        theta = None if (a1, b1, c1) == (1.0, 1.0, 2.0) else _theta_factor(
            GaussSeries(a1, b1, c1))
        tau = None if (a2, b2, c2) == (0.5, 1.0, 1.5) else _tau_factor(
            GaussSeries(a2, b2, c2))
        terms.append(KernelTerm(_I_POWERS[n % 4], n, -k.twice / 2.0, theta, tau))
    return tuple(terms)


def index_is_evaluable(idx: HypersphIndex) -> bool:
    """True when no k-term of Z^l_m hits a pole of a denominator parameter.

    The printed formula is termwise singular for some index pairs (a
    non-positive c parameter whose pole falls inside the terminating sum);
    building the plan of such a pair raises PoleInDenominator.
    """
    try:
        _check_poles(idx)
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
    is a compiled ``GaussSeries``, but for the non-terminating ones of
    other l (the theta factor of m = l and the tau factor of l = 0 and of
    half-integer l, all at k = -l) and the k = l tau factor of half-integer
    l >= 3/2, a polynomial that cancels as tanh^2(tau/2) -> 1.  These are
    elementary too: each is its series while its argument (sin^2(theta/2),
    through the Pfaff map, or tanh^2(tau/2)) is below 1/2, where the series
    converges in a few dozen terms, and a closed form in t^2 or tau past
    that (``_theta_factor``, ``_tau_factor``).  So no series runs to its
    term cap or meets |x| = 1, and besides DomainError, PoleInDenominator
    and, past l = 1001/2, the TermCapExceeded of ``kernel_plan``, the
    kernel raises only OverflowError naming the point: for a prefactor
    that is not finite, a result whose modulus is not, a k-term power
    tan^{m-k}(theta/2) or tanh^{-k}(tau/2) that overflows or divides by 0
    (m - k < 0 as theta -> 0, k > 0 as tau -> 0), and a tau so small that
    tanh(tau/2) underflows to 0 (tau = 5e-324) when l > 0.
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
            * (tau_f(y, tau) if tau_f is not None else (0.5 * tau) / h)
        )
        yv = term - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
    z = prefactor * total
    try:
        if math.isfinite(abs(z)):
            return z
    except OverflowError:  # both parts finite, |z| past the double range
        pass
    raise _overflow(idx, theta, tau)


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
    # domain or has no plan: the first point, the plan, then the rest
    _check_open_domain(thetas[0], taus[0])
    plan = kernel_plan(idx)
    check_domain(thetas, taus)
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
    of ``m_assoc_dotted`` when ``dotted``; OverflowError naming m, phi and
    eps when it leaves the double range."""
    mval = m.twice / 2.0
    arg = ang.eps - 1j * ang.phi if dotted else ang.eps + 1j * ang.phi
    try:
        v = cmath.exp(-mval * arg)
        # the parts of v can be finite while |v| is past the double range
        if math.isfinite(abs(v)):
            return v
    except (OverflowError, ValueError):  # e^{-m eps}, or m phi, past the double range
        pass
    raise OverflowError(f"e^(-m(eps {'-' if dotted else '+'} i phi)) at m={m}, "
                        f"phi={ang.phi}, eps={ang.eps} overflows")


def m_assoc(idx: HypersphIndex, ang: EulerAngles) -> complex:
    """Associated function e^{-m(eps + i phi)} Z^l_m(theta, tau)."""
    return phase(idx.m, ang, False) * z_assoc(idx, ang.theta, ang.tau)


def m_assoc_dotted(idx: HypersphIndex, ang: EulerAngles) -> complex:
    """Dotted counterpart: same Z kernel with conjugated phase convention,
    e^{-m(eps - i phi)} Z^l_m(theta, tau)."""
    return phase(idx.m, ang, True) * z_assoc(idx, ang.theta, ang.tau)

