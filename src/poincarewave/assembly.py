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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import dirac, hypersph
from .dirac import FourMomentum, u_amplitude, v_amplitude
from .errors import DomainError, OrderNotEvaluable, SizeCapExceeded
from .halfint import HalfInt
from .hypersph import EulerAngles, HypersphIndex
from .radial import RadialParams, SignPair, argument_scale, radial_values
from .value import Value, slot_setters

GRID_SIZE_CAP = 10**7

_PLUS_HALF = HalfInt(1)
_MINUS_HALF = -_PLUS_HALF
_UP = HypersphIndex(_PLUS_HALF, _PLUS_HALF)
_DOWN = HypersphIndex(_PLUS_HALF, _MINUS_HALF)

GRID_AXES = ("x1", "x2", "x3", "x4", "phi", "eps", "theta", "tau")
_X_AXES = GRID_AXES[:4]

# |u_i| and |v_i| times this bound every translation entry, and their
# products with the Lorentz entries, up to the few roundings in between
# (each at most 2**-53 relative), with room to spare.
_ROUNDING_MARGIN = 1.0 + 2.0**-40

Factor = tuple[complex, complex, complex, complex]


class Linspace(Sequence[float]):
    """The n values of ``np.linspace(lo, hi, n)``, each computed when it is
    read, so an axis of any length takes constant memory.

    Value i is numpy's own arithmetic, so bitwise np.linspace's value:
    i*step + lo with step = span/(n-1), or (i/(n-1))*span + lo when the
    step underflows to 0, and hi last; a single point is 0*span + lo.
    Each value lies between lo and hi, up to the rounding of a subnormal
    step, so the values are all finite when the two ends are, and the
    largest modulus is that of an end.
    """

    __slots__ = ("lo", "hi", "n", "_span", "_step")

    def __init__(self, lo: float, hi: float, n: int):
        if n < 1:
            raise DomainError(f"grid axis needs at least one point, got {n}")
        self.lo, self.hi, self.n = lo, hi, n
        self._span = hi - lo
        self._step = self._span / (n - 1) if n > 1 else 0.0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> float:
        j = i + self.n if i < 0 else i
        if not 0 <= j < self.n:
            raise IndexError(f"index {i} out of range for {self.n} points")
        return self._value(j)

    def __iter__(self) -> Iterator[float]:
        return map(self._value, range(self.n))

    def _value(self, i: int) -> float:
        if i == self.n - 1:
            return self.hi if i else 0.0 * self._span + self.lo
        if self._step != 0:
            return i * self._step + self.lo
        return (i / (self.n - 1)) * self._span + self.lo


def _max_abs(values: Sequence[float]) -> float:
    """The largest |value| on an axis, from the ends of a ``Linspace``."""
    if isinstance(values, Linspace):
        return max(abs(values[0]), abs(values[-1]))
    return max(map(abs, values))


class GroupPoint(Value):
    """A point of the group manifold: the coordinates x = (x1, x2, x3, x4)
    and the Lorentz angles."""

    __slots__ = ("x", "ang")

    def __init__(self, x: tuple[float, float, float, float], ang: EulerAngles):
        if len(x) != 4:
            raise DomainError(f"x must hold four coordinates, got {x}")
        if not all(map(math.isfinite, x)):
            raise DomainError(f"x must be finite, got {x}")
        _set_x(self, x)
        _set_ang(self, ang)


_set_x, _set_ang = slot_setters(GroupPoint)


class SpinConfig(Value):
    """Everything the bispinor depends on but the group point."""

    __slots__ = ("p", "r", "rp", "radius", "sign_pair")

    def __init__(self, p: FourMomentum, r: int, rp: RadialParams, radius: float,
                 sign_pair: SignPair = "+-"):
        if r not in (1, 2):
            raise ValueError(f"r must be 1 or 2, got {r}")
        if not radius > 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not math.isfinite(radius):
            raise ValueError(f"radius must be finite, got {radius}")
        if sign_pair not in ("+-", "-+"):
            raise ValueError(f"sign_pair must be '+-' or '-+', got {sign_pair!r}")
        for name, q in (("l", rp.l), ("l_dot", rp.l_dot)):
            if q != _PLUS_HALF:
                raise OrderNotEvaluable(name, (
                    f"{name} must be 1/2, got {q}: the Lorentz factor takes Z^l_m at "
                    "m = +1/2 and at m = -1/2, and both are evaluable only at l = 1/2"))
        _set_p(self, p)
        _set_r(self, r)
        _set_rp(self, rp)
        _set_radius(self, radius)
        _set_sign_pair(self, sign_pair)


_set_p, _set_r, _set_rp, _set_radius, _set_sign_pair = slot_setters(SpinConfig)


class PoincareBispinor(Value):
    """The four components of psi at one point."""

    __slots__ = ("psi1", "psi2", "psi1_dot", "psi2_dot")

    def __init__(self, psi1: complex, psi2: complex, psi1_dot: complex, psi2_dot: complex):
        _set_psi1(self, psi1)
        _set_psi2(self, psi2)
        _set_psi1_dot(self, psi1_dot)
        _set_psi2_dot(self, psi2_dot)

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.psi1, self.psi2, self.psi1_dot, self.psi2_dot)


_set_psi1, _set_psi2, _set_psi1_dot, _set_psi2_dot = slot_setters(PoincareBispinor)


def _translation_part(cfg: SpinConfig) -> tuple[Factor, Callable[[Sequence[float]], Factor]]:
    """The amplitude entries u_r rows 1-2 and v_r rows 3-4, which depend
    only on the config, and the translation factor as a function of x."""
    p = cfg.p
    u1, u2, _, _ = u_amplitude(cfg.r, p).components
    _, _, v3, v4 = v_amplitude(cfg.r, p).components

    def at(x: Sequence[float]) -> Factor:
        pw_u = dirac.plane_wave(x, p, "+")
        pw_v = dirac.plane_wave(x, p, "-")
        return (u1 * pw_u, u2 * pw_u, v3 * pw_v, v4 * pw_v)

    return (u1, u2, v3, v4), at


def _radial_coefficients(cfg: SpinConfig) -> Factor:
    """f1, s f1, -s f4 and f4 at the radius: the config-only part of the
    Lorentz factor."""
    rp = cfg.rp
    s = 1.0 if cfg.sign_pair == "+-" else -1.0
    f1, _, _, f4, _ = radial_values(rp, cfg.radius, argument_scale(rp.kappa, rp.kappa_dot))
    return f1, s * f1, -s * f4, f4


def _phases(ang: EulerAngles) -> Factor:
    """The phases of M^{+1/2}, M^{-1/2}, Mdot^{+1/2} and Mdot^{-1/2} at
    (phi, eps)."""
    return (hypersph.phase(_PLUS_HALF, ang, False), hypersph.phase(_MINUS_HALF, ang, False),
            hypersph.phase(_PLUS_HALF, ang, True), hypersph.phase(_MINUS_HALF, ang, True))


def _lorentz(c: Factor, z: tuple[complex, complex], ph: Factor) -> Factor:
    """c_i (phase_i Z_i), Z_i the m = +1/2 kernel for i = 1, 3 and the
    m = -1/2 one for i = 2, 4: c_i times ``m_assoc`` or ``m_assoc_dotted``,
    bitwise."""
    up, down = z
    return (c[0] * (ph[0] * up), c[1] * (ph[1] * down),
            c[2] * (ph[2] * up), c[3] * (ph[3] * down))


def lorentz_factor(cfg: SpinConfig, ang: EulerAngles) -> Factor:
    """The four Lorentz-part scalars (radial times hyperspherical):

    L1 = f1 M^{+1/2}_l,  L2 = s f1 M^{-1/2}_l,
    L3 = -s f4 Mdot^{+1/2}_{l_dot},  L4 = f4 Mdot^{-1/2}_{l_dot},

    with s = +1 for sign pair '+-' and s = -1 for '-+', and the radial
    functions at the Bessel argument scale a = 2 sqrt(kappa kappa_dot).

    Both m = +1/2 and m = -1/2 must be evaluable for l (and l_dot), which
    ``SpinConfig`` holds to l = l_dot = 1/2; the dotted family shares the
    undotted kernel and differs only by its phase.
    """
    z = hypersph.z_assoc(_UP, ang.theta, ang.tau), hypersph.z_assoc(_DOWN, ang.theta, ang.tau)
    return _lorentz(_radial_coefficients(cfg), z, _phases(ang))


def translation_factor(cfg: SpinConfig, gp: GroupPoint) -> Factor:
    """Row-wise translation scalars: u_r rows 1-2 with e^{-ipx}, v_r rows
    3-4 with e^{+ipx}."""
    return _translation_part(cfg)[1](gp.x)


def bispinor(cfg: SpinConfig, gp: GroupPoint) -> PoincareBispinor:
    """Componentwise product of translation and Lorentz factors."""
    t, lo = translation_factor(cfg, gp), lorentz_factor(cfg, gp.ang)
    return PoincareBispinor(*map(operator.mul, t, lo))


def _points(values: Sequence[float]) -> int:
    """The number of values on an axis; a Linspace's may be past what
    ``len`` can return."""
    return values.n if isinstance(values, Linspace) else len(values)


def check_grid_size(counts: Iterable[int]) -> None:
    """SizeCapExceeded when a grid of axes with these point counts has more
    than GRID_SIZE_CAP points."""
    total = math.prod(counts)
    if total > GRID_SIZE_CAP:
        raise SizeCapExceeded(f"grid of {total} points exceeds cap {GRID_SIZE_CAP}")


def sweep(
    outer: Iterable[tuple[complex, ...]],
    inner: Sequence[tuple[complex, ...]],
    outer_bound: Sequence[float],
) -> Iterator[tuple[complex, ...]]:
    """Evaluate a grid that is the product of an outer and an inner factor.

    Each factor gives its sub-grid's points in order, each point a tuple
    of complex factor entries; which point is which is the caller's to
    know.  ``outer`` is read as the rows are read, one point per pass over
    ``inner``, so memory grows with the inner sub-grid alone; ``inner`` is
    a table built before the call.  ``outer_bound`` is the caller's
    promise that reading ``outer`` cannot raise and that |outer entry i| <=
    outer_bound[i] at every point.

    OverflowError is raised before this returns when an inner entry is not
    finite or when outer_bound[i] * max|inner entry i|, the bound of the
    product of component i, is not.  The iterator returned then yields, for
    each outer point and, within it, each inner point, the outer entries
    times the inner entries, taken componentwise, and cannot raise.
    """
    for a, b in zip(outer_bound, _largest(inner)):
        if not math.isfinite(a * b):
            raise OverflowError("a product of the grid factors overflows")
    return (tuple(map(operator.mul, ov, iv)) for ov in outer for iv in inner)


def _product(seqs: Sequence[Sequence], f: Callable) -> Iterator[tuple]:
    """The points of ``itertools.product(*seqs)`` in its order, with ``f``
    applied to each value as the walk reaches it: a value of a sequence
    once per point of the sequences before it.  Each sequence is read
    anew on every pass instead of being copied into a tuple first, so a
    lazy axis stays lazy, and nothing is held but the current point."""
    if not seqs:
        return iter([()])
    *outer, last = seqs
    return ((*head, v) for head in _product(outer, f) for v in map(f, last))


def _largest(table: Sequence[tuple[complex, ...]]) -> list[float]:
    """The largest modulus of each component over a factor table, taken
    one component at a time so that only one column of moduli is held."""
    largest = []
    for i in range(len(table[0]) if table else 0):
        try:
            mags = [abs(entries[i]) for entries in table]
        except OverflowError:  # both parts finite, the modulus past the double range
            mags = [math.inf]
        if not all(map(math.isfinite, mags)):
            raise OverflowError("a grid factor is not finite")
        largest.append(max(mags))
    return largest


def grid_rows(
    cfg: SpinConfig,
    axes: Mapping[str, Sequence[float]],
) -> Iterator[Factor]:
    """The rows of a grid over every axis, as an iterator of the four
    components of psi at each point of
    ``itertools.product(*(axes[name] for name in GRID_AXES))``, in its
    order, whatever the order of ``axes``.

    ``axes`` maps every name in GRID_AXES to its values; a fixed
    parameter is an axis of one value.  The grid is evaluated as the
    factorization, through ``sweep``: the config-only work once, and each
    row as the componentwise product of the translation factor, a function
    of (x1, x2, x3, x4), with the Lorentz factor, a function of
    (phi, eps, theta, tau).  The Lorentz factor is a table over the angle
    sub-grid, made from the two kernels Z^{1/2}_{+-1/2} over the
    (theta, tau) sub-grid, from one ``hypersph.z_table`` call whose factors
    run once per theta and once per tau, and the four phases once per
    (phi, eps) point; the tables are read by position, so every value,
    signed zeros among them, keeps its own entry.  The translation factor
    is streamed: it is evaluated when the iterator reaches its x point.

    Everything the translation factor could raise is decided before any x
    is evaluated: its amplitude entries, and PhaseOverflow unless
    |E| max|x4| + sum_i |p_i| max|x_i| is finite, which bounds every phase
    p.x.  Each of its entries then has modulus at most |u_i| or |v_i| up
    to rounding, which ``_ROUNDING_MARGIN`` covers in the bound it gives
    ``sweep``.  The size cap is checked first, from the point counts, so a
    Linspace of more points than ``len`` can return is refused by the cap.
    The (theta, tau) values are checked next, with ``z_assoc``'s message
    for the first point in row order outside its domain.  A kernel error
    is ``z_assoc``'s at the first failing (theta, tau) point in row order,
    the m = +1/2 kernel's where both fail there.  The phase table, of
    n_phi n_eps points, is built before the kernel table, of n_theta n_tau
    points, so a phase error is raised before any kernel work and before a
    kernel error.  Every error is raised before this returns.
    """
    for name in axes:
        if name not in GRID_AXES:
            raise DomainError(f"unknown grid axis {name!r}; valid axes: {GRID_AXES}")
    missing = [name for name in GRID_AXES if name not in axes]
    if missing:
        raise DomainError(f"grid axes {missing} are missing")
    counts = [_points(axes[name]) for name in GRID_AXES]
    check_grid_size(counts)
    for name, n in zip(GRID_AXES, counts):
        if not n:
            raise DomainError(f"axis {name!r} has no points")
    thetas, taus, phis, epss = (axes[name] for name in ("theta", "tau", "phi", "eps"))
    hypersph.check_domain(thetas, taus)
    amplitudes, translation = _translation_part(cfg)
    dirac.check_phase_bound(cfg.p, [_max_abs(axes[name]) for name in _X_AXES])
    coefficients = _radial_coefficients(cfg)
    phases = [_phases(EulerAngles(phi, eps)) for phi, eps in itertools.product(phis, epss)]
    ups, downs = hypersph.z_table((_UP, _DOWN), thetas, taus)
    angles = [_lorentz(coefficients, z, ph) for ph in phases for z in zip(ups, downs)]
    # +v is v for a float: the cheapest identity
    xs = map(translation, _product([axes[name] for name in _X_AXES], operator.pos))
    return sweep(xs, angles, [abs(v) * _ROUNDING_MARGIN for v in amplitudes])


def grid_eval(
    cfg: SpinConfig,
    base: GroupPoint,
    axes: Mapping[str, Sequence[float]],
) -> list[tuple[GroupPoint, PoincareBispinor]]:
    """Evaluate the bispinor over a cartesian grid.

    ``axes`` maps parameter names (subset of GRID_AXES) to value lists;
    unswept parameters come from ``base``.  Rows are emitted in
    lexicographic order of the axes in mapping order: the rows of
    ``grid_rows``, which come in GRID_AXES order, each paired with its
    point and sorted by its indices on the axes taken in mapping order.
    Each row equals a pointwise ``bispinor`` call bitwise.
    """
    b = base.ang
    fixed = zip(GRID_AXES, (*base.x, b.phi, b.eps, b.theta, b.tau))
    full = {**axes, **{name: [v] for name, v in fixed if name not in axes}}
    rows = grid_rows(cfg, full)
    order = [GRID_AXES.index(name) for name in axes]
    indices = itertools.product(*(range(len(full[name])) for name in GRID_AXES))
    points = itertools.product(*(full[name] for name in GRID_AXES))
    return [(GroupPoint(p[:4], EulerAngles(*p[4:])), PoincareBispinor(*psi)) for _, p, psi in
            sorted(zip(indices, points, rows), key=lambda row: [row[0][i] for i in order])]
