"""Assembled wavefunction on the ten-parameter group manifold.

Each bispinor component is the product of a translation factor (one row of
a plane-wave amplitude times the phase) and a Lorentz factor (radial
function times associated hyperspherical function).  The printed lines are
scalar products: bispinor row i pairs with row i of the r-th amplitude,
rows 1-2 with u_r e^{-ipx} and rows 3-4 with v_r e^{+ipx}.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence

from . import dirac, hypersph
from .dirac import FourMomentum, u_amplitude, v_amplitude
from .errors import DomainError, SizeCapExceeded
from .halfint import HalfInt
from .hypersph import EulerAngles, HypersphIndex
from .radial import RadialParams, SignPair, argument_scale, radial_values

GRID_SIZE_CAP = 10**7

_PLUS_HALF = HalfInt(1)

GRID_AXES = ("x1", "x2", "x3", "x4", "phi", "eps", "theta", "tau")
_X_AXES = GRID_AXES[:4]

Factor = tuple[complex, complex, complex, complex]
# What a factor of ``sweep`` returns for one point: (key, entries).
Entry = tuple[Any, tuple[complex, ...]]


@dataclass(frozen=True)
class GroupPoint:
    x: tuple[float, float, float, float]
    ang: EulerAngles

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.x)):
            raise DomainError(f"x must be finite, got {self.x}")


@dataclass(frozen=True)
class SpinConfig:
    p: FourMomentum
    r: int
    rp: RadialParams
    radius: float
    sign_pair: SignPair = "+-"

    def __post_init__(self) -> None:
        if self.r not in (1, 2):
            raise ValueError(f"r must be 1 or 2, got {self.r}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")
        if self.sign_pair not in ("+-", "-+"):
            raise ValueError(f"sign_pair must be '+-' or '-+', got {self.sign_pair!r}")


@dataclass(frozen=True)
class PoincareBispinor:
    psi1: complex
    psi2: complex
    psi1_dot: complex
    psi2_dot: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.psi1, self.psi2, self.psi1_dot, self.psi2_dot)


def _translation_part(cfg: SpinConfig) -> Callable[[Sequence[float]], Factor]:
    """The translation factor as a function of x.  The amplitude entries
    depend only on the config and are taken once."""
    p = cfg.p
    u1, u2, _, _ = u_amplitude(cfg.r, p).components
    _, _, v3, v4 = v_amplitude(cfg.r, p).components

    def at(x: Sequence[float]) -> Factor:
        pw_u = dirac.plane_wave(x, p, "+")
        pw_v = dirac.plane_wave(x, p, "-")
        return (u1 * pw_u, u2 * pw_u, v3 * pw_v, v4 * pw_v)

    return at


def _lorentz_part(cfg: SpinConfig) -> Callable[[EulerAngles], Factor]:
    """The Lorentz factor as a function of the angles.  The scale, f1, f4
    and the indices depend only on the config and are taken once."""
    rp = cfg.rp
    s = 1.0 if cfg.sign_pair == "+-" else -1.0
    a = argument_scale(rp.kappa, rp.kappa_dot)
    f1, _, _, f4, _ = radial_values(rp, cfg.radius, a)
    c1, c2, c3, c4 = f1, s * f1, -s * f4, f4
    up = HypersphIndex(rp.l, _PLUS_HALF)
    dn = HypersphIndex(rp.l, -_PLUS_HALF)
    up_d = HypersphIndex(rp.l_dot, _PLUS_HALF)
    dn_d = HypersphIndex(rp.l_dot, -_PLUS_HALF)

    def at(ang: EulerAngles) -> Factor:
        m_up, md_up = hypersph.m_assoc_pair(up, up_d, ang)
        m_dn, md_dn = hypersph.m_assoc_pair(dn, dn_d, ang)
        return (c1 * m_up, c2 * m_dn, c3 * md_up, c4 * md_dn)

    return at


def lorentz_factor(cfg: SpinConfig, ang: EulerAngles) -> Factor:
    """The four Lorentz-part scalars (radial times hyperspherical):

    L1 = f1 M^{+1/2}_l,  L2 = s f1 M^{-1/2}_l,
    L3 = -s f4 Mdot^{+1/2}_{l_dot},  L4 = f4 Mdot^{-1/2}_{l_dot},

    with s = +1 for sign pair '+-' and s = -1 for '-+', and the radial
    functions at the Bessel argument scale a = 2 sqrt(kappa kappa_dot).

    Both m = +1/2 and m = -1/2 must be admissible for l (and l_dot), which
    restricts half-integer orders to l = 1/2; larger half-integer l raises
    PoleInDenominator from the hyperspherical sum.
    """
    return _lorentz_part(cfg)(ang)


def translation_factor(cfg: SpinConfig, gp: GroupPoint) -> Factor:
    """Row-wise translation scalars: u_r rows 1-2 with e^{-ipx}, v_r rows
    3-4 with e^{+ipx}."""
    return _translation_part(cfg)(gp.x)


def bispinor(cfg: SpinConfig, gp: GroupPoint) -> PoincareBispinor:
    """Componentwise product of translation and Lorentz factors."""
    t, lo = translation_factor(cfg, gp), lorentz_factor(cfg, gp.ang)
    return PoincareBispinor(*map(operator.mul, t, lo))


def _validate_axis(name: str, values: Sequence[float]) -> None:
    if name not in GRID_AXES:
        raise DomainError(f"unknown grid axis {name!r}; valid axes: {GRID_AXES}")
    if len(values) == 0:
        raise DomainError(f"axis {name!r} has no points")


def sweep(
    axes: Mapping[str, Sequence[float]],
    left_axes: Collection[str],
    left: Callable[..., Entry],
    right: Callable[..., Entry],
) -> Iterator[tuple[Any, Any, tuple[complex, ...]]]:
    """Evaluate a grid that is the product of two factors over disjoint axes.

    The grid is the cartesian product of ``axes`` (name -> values) in
    lexicographic order, the first axis slowest.  ``left`` takes the axes
    named in ``left_axes`` as keyword arguments and ``right`` the others;
    each returns ``(key, entries)``: a label for its point and a tuple of
    complex factor entries.

    Every error is raised before this returns: SizeCapExceeded, any error
    of a factor, which is evaluated once per point of its sub-grid, and
    OverflowError when an entry is not finite or when max|left_i| *
    max|right_i|, the largest product of component i, is not.  The
    iterator returned then yields, for each grid point in order,
    ``(left key, right key, left entries * right entries)``, the product
    taken componentwise, and cannot raise.
    """
    names = list(axes)
    total = math.prod(len(axes[name]) for name in names)
    if total > GRID_SIZE_CAP:
        raise SizeCapExceeded(f"grid of {total} points exceeds cap {GRID_SIZE_CAP}")
    tables = []
    for fn, sub in ((left, [n for n in names if n in left_axes]),
                    (right, [n for n in names if n not in left_axes])):
        tables.append([fn(**dict(zip(sub, point)))
                       for point in itertools.product(*(axes[n] for n in sub))])
    lt, rt = tables
    for a, b in zip(_largest(lt), _largest(rt)):
        if not math.isfinite(a * b):
            raise OverflowError("a product of the grid factors overflows")

    # A point's index into each table is a mixed-radix number over that
    # factor's axes.  The right factor's place values are scaled by
    # len(lt), so the sum of a point's per-axis offsets carries both
    # indices and divmod splits them.
    steps = []
    place = {True: 1, False: len(lt)}
    for name in reversed(names):
        side = name in left_axes
        steps.append([k * place[side] for k in range(len(axes[name]))])
        place[side] *= len(axes[name])
    steps.reverse()

    def pairs():
        for offsets in itertools.product(*steps):
            j, i = divmod(sum(offsets), len(lt))
            (lk, lv), (rk, rv) = lt[i], rt[j]
            yield lk, rk, tuple(map(operator.mul, lv, rv))

    return pairs()


def _largest(table: list[Entry]) -> list[float]:
    """The largest modulus of each component over a factor table."""
    mags = [[abs(v) for v in entries] for _, entries in table]
    if not all(map(math.isfinite, itertools.chain.from_iterable(mags))):
        raise OverflowError("a grid factor is not finite")
    return [max(col) for col in zip(*mags)]


def grid_rows(
    cfg: SpinConfig,
    axes: Mapping[str, Sequence[float]],
) -> Iterator[tuple[tuple[float, float, float, float], EulerAngles, Factor]]:
    """The rows of ``grid_eval`` as an iterator of ``(x, angles, psi)``.

    ``axes`` maps every name in GRID_AXES to its values; a fixed
    parameter is an axis of one value.  The grid is evaluated as the
    factorization, through ``sweep``: the config-only work once, the
    translation factor as a function of (x1, x2, x3, x4) once per point of
    the x sub-grid, the Lorentz factor as a function of (phi, eps, theta,
    tau) once per point of the angle sub-grid, and each row as their
    componentwise product.  The (theta, tau) values are checked first,
    with ``z_assoc``'s message for the first point in row order outside
    its domain.  Every error is raised before this returns.
    """
    for name in axes:
        _validate_axis(name, axes[name])
    missing = [name for name in GRID_AXES if name not in axes]
    if missing:
        raise DomainError(f"grid axes {missing} are missing")
    hypersph.check_domain(axes["theta"], axes["tau"])
    translation = _translation_part(cfg)
    lorentz = _lorentz_part(cfg)

    def at_x(x1: float, x2: float, x3: float, x4: float) -> Entry:
        x = (x1, x2, x3, x4)
        return x, translation(x)

    def at_angles(phi: float, eps: float, theta: float, tau: float) -> Entry:
        ang = EulerAngles(phi, eps, theta, tau)
        return ang, lorentz(ang)

    return sweep(axes, _X_AXES, at_x, at_angles)


def grid_eval(
    cfg: SpinConfig,
    base: GroupPoint,
    axes: Mapping[str, Sequence[float]],
) -> list[tuple[GroupPoint, PoincareBispinor]]:
    """Evaluate the bispinor over a cartesian grid.

    ``axes`` maps parameter names (subset of GRID_AXES) to value lists;
    unswept parameters come from ``base``.  Rows are emitted in
    lexicographic order of the axes in mapping order, and each row equals
    a pointwise ``bispinor`` call bitwise (see ``grid_rows``).
    """
    b = base.ang
    fixed = zip(GRID_AXES, (*base.x, b.phi, b.eps, b.theta, b.tau))
    full = {**axes, **{name: [v] for name, v in fixed if name not in axes}}
    return [(GroupPoint(x, ang), PoincareBispinor(*psi))
            for x, ang, psi in grid_rows(cfg, full)]
