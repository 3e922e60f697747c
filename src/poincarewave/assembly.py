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
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import dirac, hypersph
from .dirac import FourMomentum, u_amplitude, v_amplitude
from .errors import DomainError, SizeCapExceeded
from .halfint import HalfInt
from .hypersph import EulerAngles, HypersphIndex
from .radial import RadialParams, RadialPoint, SignPair, argument_scale, f1_solution, f4_from_f1

GRID_SIZE_CAP = 10**7

_PLUS_HALF = HalfInt(1)

GRID_AXES = ("x1", "x2", "x3", "x4", "phi", "eps", "theta", "tau")
_X_AXES = GRID_AXES[:4]

Factor = tuple[complex, complex, complex, complex]


@dataclass(frozen=True)
class GroupPoint:
    x: tuple[float, float, float, float]
    ang: EulerAngles


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
    u = u_amplitude(cfg.r, p).components
    v = v_amplitude(cfg.r, p).components
    u1, u2, v3, v4 = complex(u[0]), complex(u[1]), complex(v[2]), complex(v[3])

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
    pt = RadialPoint(cfg.radius)
    f1 = f1_solution(rp, pt, a)
    f4 = f4_from_f1(rp, pt, a)
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


def _product(t: Factor, lo: Factor) -> PoincareBispinor:
    return PoincareBispinor(t[0] * lo[0], t[1] * lo[1], t[2] * lo[2], t[3] * lo[3])


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
    return _product(translation_factor(cfg, gp), lorentz_factor(cfg, gp.ang))


def _validate_axis(name: str, values: Sequence[float]) -> None:
    if name not in GRID_AXES:
        raise DomainError(f"unknown grid axis {name!r}; valid axes: {GRID_AXES}")
    if len(values) == 0:
        raise DomainError(f"axis {name!r} has no points")
    if name == "theta":
        for v in values:
            if not (0.0 < v < math.pi):
                raise DomainError(f"theta axis value {v} outside (0, pi)")
    if name == "tau":
        for v in values:
            if not v > 0.0:
                raise DomainError(f"tau axis value {v} must be positive")


def _sub_grid(axes: Mapping[str, Sequence[float]], names: list[str]) -> Iterator[dict]:
    """The points of the grid over ``names`` alone, in lexicographic order."""
    for combo in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, combo))


def grid_eval(
    cfg: SpinConfig,
    base: GroupPoint,
    axes: Mapping[str, Sequence[float]],
) -> list[tuple[GroupPoint, PoincareBispinor]]:
    """Evaluate the bispinor over a cartesian grid.

    ``axes`` maps parameter names (subset of GRID_AXES) to value lists;
    unswept parameters come from ``base``.  Rows are emitted in
    lexicographic order of the axes in mapping order, and each row equals
    a pointwise ``bispinor`` call bitwise.

    The grid is evaluated as the factorization: the config-only work once,
    the Lorentz factor once per point of the angle sub-grid, the
    translation factor once per point of the x sub-grid, and each row as
    their componentwise product.
    """
    names = list(axes.keys())
    total = 1
    for name in names:
        _validate_axis(name, axes[name])
        total *= len(axes[name])
    if total > GRID_SIZE_CAP:
        raise SizeCapExceeded(f"grid of {total} points exceeds cap {GRID_SIZE_CAP}")

    translation = _translation_part(cfg)
    lorentz = _lorentz_part(cfg)
    x_names = [n for n in names if n in _X_AXES]
    ang_names = [n for n in names if n not in _X_AXES]
    xs = [
        tuple(vals.get(name, base.x[i]) for i, name in enumerate(_X_AXES))
        for vals in _sub_grid(axes, x_names)
    ]
    angs = [
        EulerAngles(
            phi=vals.get("phi", base.ang.phi),
            eps=vals.get("eps", base.ang.eps),
            theta=vals.get("theta", base.ang.theta),
            tau=vals.get("tau", base.ang.tau),
        )
        for vals in _sub_grid(axes, ang_names)
    ]
    t_rows = [translation(x) for x in xs]
    lo_rows = [lorentz(ang) for ang in angs]

    # Row k of the full grid pairs x point xi[k] with angle point ai[k]:
    # each sub-grid's index, broadcast over the other sub-grid's axes.
    shape = [len(axes[n]) for n in names]
    xi = np.arange(len(xs)).reshape([k if n in _X_AXES else 1 for n, k in zip(names, shape)])
    ai = np.arange(len(angs)).reshape([1 if n in _X_AXES else k for n, k in zip(names, shape)])
    return [
        (GroupPoint(xs[i], angs[j]), _product(t_rows[i], lo_rows[j]))
        for i, j in zip(np.broadcast_to(xi, shape).ravel().tolist(),
                        np.broadcast_to(ai, shape).ravel().tolist())
    ]
