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
import struct
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterator, Mapping, Sequence

from . import dirac, hypersph
from .dirac import FourMomentum, u_amplitude, v_amplitude
from .errors import DomainError, OrderNotEvaluable, SizeCapExceeded
from .halfint import HalfInt
from .hypersph import EulerAngles, HypersphIndex
from .radial import RadialParams, SignPair, argument_scale, radial_values

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

# Two doubles as a dict key that tells -0.0 from 0.0: they compare equal,
# but the phases of m = +-1/2 at a signed zero of phi or eps differ in the
# sign of a zero part.
_PAIR = struct.Struct("2d")

Factor = tuple[complex, complex, complex, complex]
# What a factor of ``sweep`` returns for one point: (key, entries).
Entry = tuple[Any, tuple[complex, ...]]


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
        for name, q in (("l", self.rp.l), ("l_dot", self.rp.l_dot)):
            if q != _PLUS_HALF:
                raise OrderNotEvaluable(name, (
                    f"{name} must be 1/2, got {q}: the Lorentz factor takes Z^l_m at "
                    "m = +1/2 and at m = -1/2, and both are evaluable only at l = 1/2"))


@dataclass(frozen=True)
class PoincareBispinor:
    psi1: complex
    psi2: complex
    psi1_dot: complex
    psi2_dot: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.psi1, self.psi2, self.psi1_dot, self.psi2_dot)


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


def _kernels(theta: float, tau: float) -> tuple[complex, complex]:
    """Z^{1/2}_{+1/2} and Z^{1/2}_{-1/2} at (theta, tau)."""
    return hypersph.z_assoc(_UP, theta, tau), hypersph.z_assoc(_DOWN, theta, tau)


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
    return _lorentz(_radial_coefficients(cfg), _kernels(ang.theta, ang.tau), _phases(ang))


def translation_factor(cfg: SpinConfig, gp: GroupPoint) -> Factor:
    """Row-wise translation scalars: u_r rows 1-2 with e^{-ipx}, v_r rows
    3-4 with e^{+ipx}."""
    return _translation_part(cfg)[1](gp.x)


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
    left_bound: Sequence[float] | None = None,
) -> Iterator[tuple[Any, Any, tuple[complex, ...]]]:
    """Evaluate a grid that is the product of two factors over disjoint axes.

    The grid is the cartesian product of ``axes`` (name -> values) in
    lexicographic order, the first axis slowest.  ``left`` takes the axes
    named in ``left_axes`` as keyword arguments and ``right`` the others;
    each returns ``(key, entries)``: a label for its point and a tuple of
    complex factor entries.

    ``left_bound``, when given, is the caller's promise that ``left``
    cannot raise and that |entry i| <= left_bound[i] at every point.  Then
    when the left axes all come before the right ones, ``left`` is
    streamed: it is evaluated when the iterator reaches its point, and only
    its last entry is kept, so memory grows with the right sub-grid alone.
    Otherwise each factor is tabulated, evaluated once per point of its
    sub-grid before this returns.

    Every error is raised before this returns: SizeCapExceeded, any error
    of a tabulated factor, and OverflowError when a tabulated entry is not
    finite or when max|left_i| * max|right_i|, the largest product of
    component i (with ``left_bound`` for max|left_i| when given), is not.
    The iterator returned then yields, for each grid point in order,
    ``(left key, right key, left entries * right entries)``, the product
    taken componentwise, and cannot raise.
    """
    names = list(axes)
    total = math.prod(len(axes[name]) for name in names)
    if total > GRID_SIZE_CAP:
        raise SizeCapExceeded(f"grid of {total} points exceeds cap {GRID_SIZE_CAP}")
    left_names = [n for n in names if n in left_axes]
    streamed = left_bound is not None and names[:len(left_names)] == left_names
    lt = [] if streamed else _table(left, left_names, axes)
    rt = _table(right, [n for n in names if n not in left_axes], axes)
    for a, b in zip(_largest(lt) if left_bound is None else left_bound, _largest(rt)):
        if not math.isfinite(a * b):
            raise OverflowError("a product of the grid factors overflows")

    if streamed:
        def stream():
            for point in _product([axes[n] for n in left_names]):
                lk, lv = left(**dict(zip(left_names, point)))
                for rk, rv in rt:
                    yield lk, rk, tuple(map(operator.mul, lv, rv))

        return stream()

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


def _table(fn: Callable[..., Entry], sub: list[str],
           axes: Mapping[str, Sequence[float]]) -> list[Entry]:
    """``fn`` at every point of the sub-grid of the axes ``sub``, in order."""
    return [fn(**dict(zip(sub, point))) for point in itertools.product(*(axes[n] for n in sub))]


def _product(seqs: Sequence[Sequence[float]]) -> Iterator[tuple[float, ...]]:
    """The points of ``itertools.product(*seqs)`` in its order.  Each
    sequence is read anew on every pass instead of being copied into a
    tuple first, so a lazy axis stays lazy."""
    if not seqs:
        return iter([()])
    *outer, last = seqs
    return ((*head, v) for head in _product(outer) for v in last)


def _largest(table: list[Entry]) -> list[float]:
    """The largest modulus of each component over a factor table, taken
    one component at a time so that only one column of moduli is held."""
    largest = []
    for i in range(len(table[0][1]) if table else 0):
        mags = [abs(entries[i]) for _, entries in table]
        if not all(map(math.isfinite, mags)):
            raise OverflowError("a grid factor is not finite")
        largest.append(max(mags))
    return largest


def grid_rows(
    cfg: SpinConfig,
    axes: Mapping[str, Sequence[float]],
) -> Iterator[tuple[tuple[float, float, float, float], EulerAngles, Factor]]:
    """The rows of ``grid_eval`` as an iterator of ``(x, angles, psi)``.

    ``axes`` maps every name in GRID_AXES to its values; a fixed
    parameter is an axis of one value.  The grid is evaluated as the
    factorization, through ``sweep``: the config-only work once, the
    Lorentz factor as a function of (phi, eps, theta, tau) once per point
    of the angle sub-grid, and each row as the componentwise product of it
    with the translation factor, a function of (x1, x2, x3, x4).  The
    Lorentz factor takes the two kernels Z^{1/2}_{+-1/2} once per
    (theta, tau) point and the four phases once per (phi, eps) point; each
    is tabulated when it recurs, that is when the other pair's sub-grid has
    several points.

    The translation factor is streamed when the x axes come first, as in
    GRID_AXES order, and tabulated otherwise.  Everything it could raise
    is decided before any x is evaluated: its amplitude entries, and
    PhaseOverflow unless |E| max|x4| + sum_i |p_i| max|x_i| is finite,
    which bounds every phase p.x.  Each of its entries then has modulus at
    most |u_i| or |v_i| up to rounding, which ``_ROUNDING_MARGIN`` covers
    in the bound it gives ``sweep``.  The (theta, tau) values are checked
    first, with ``z_assoc``'s message for the first point in row order
    outside its domain.  Every error is raised before this returns.
    """
    for name in axes:
        _validate_axis(name, axes[name])
    missing = [name for name in GRID_AXES if name not in axes]
    if missing:
        raise DomainError(f"grid axes {missing} are missing")
    hypersph.check_domain(axes["theta"], axes["tau"])
    amplitudes, translation = _translation_part(cfg)
    dirac.check_phase_bound(cfg.p, [_max_abs(axes[name]) for name in _X_AXES])
    coefficients = _radial_coefficients(cfg)
    # a kernel entry recurs at each (phi, eps) point, a phase entry at each
    # (theta, tau) point
    kernels = _tabulated(_kernels, len(axes["phi"]) * len(axes["eps"]) > 1)
    phases = _tabulated(lambda phi, eps: _phases(EulerAngles(phi, eps)),
                        len(axes["theta"]) * len(axes["tau"]) > 1)

    def at_x(x1: float, x2: float, x3: float, x4: float) -> Entry:
        x = (x1, x2, x3, x4)
        return x, translation(x)

    def at_angles(phi: float, eps: float, theta: float, tau: float) -> Entry:
        return (EulerAngles(phi, eps, theta, tau),
                _lorentz(coefficients, kernels(theta, tau), phases(phi, eps)))

    bound = [abs(v) * _ROUNDING_MARGIN for v in amplitudes]
    return sweep(axes, _X_AXES, at_x, at_angles, left_bound=bound)


def _tabulated(fn: Callable[[float, float], Any], recurs: bool) -> Callable[[float, float], Any]:
    """``fn`` of two floats, each value kept in a table by the bits of the
    pair when ``recurs``, or ``fn`` itself when no pair will recur."""
    if not recurs:
        return fn
    table: dict[bytes, Any] = {}

    def at(a: float, b: float) -> Any:
        key = _PAIR.pack(a, b)
        if key not in table:
            table[key] = fn(a, b)
        return table[key]

    return at


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
