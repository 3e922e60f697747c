"""Translation-group factor: gamma matrices, plane-wave amplitudes, residuals.

Conventions: metric g = diag(1, -1, -1, -1); the fourth coordinate x4 is
time, so p.x = E x4 - px x1 - py x2 - pz x3.  The gamma matrices are used
verbatim as displayed (gamma0 = diag(sigma0, -sigma0), gamma_i off-diagonal
with +/-sigma_i), which is the unique convention under which the printed
amplitudes annihilate the printed operator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import OffShellError

ON_SHELL_RTOL = 1e-12

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_ZERO2 = np.zeros((2, 2), dtype=complex)

GAMMA0 = np.block([[SIGMA[0], _ZERO2], [_ZERO2, -SIGMA[0]]])
GAMMA1 = np.block([[_ZERO2, SIGMA[1]], [-SIGMA[1], _ZERO2]])
GAMMA2 = np.block([[_ZERO2, SIGMA[2]], [-SIGMA[2], _ZERO2]])
GAMMA3 = np.block([[_ZERO2, SIGMA[3]], [-SIGMA[3], _ZERO2]])
GAMMA = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def _require_finite(*components: float) -> None:
    if not all(math.isfinite(v) for v in components):
        raise OffShellError(f"four-momentum components must be finite, got {components}")


@dataclass(frozen=True)
class FourMomentum:
    """On-shell four-momentum; use ``off_shell`` for deliberate violations."""

    E: float
    px: float
    py: float
    pz: float
    m: float

    def __post_init__(self) -> None:
        _require_finite(self.E, self.px, self.py, self.pz, self.m)
        if not self.m > 0.0:
            raise OffShellError(f"mass must be positive, got {self.m}")
        e0 = self.shell_energy
        if abs(self.E - e0) > ON_SHELL_RTOL * e0:
            raise OffShellError(
                f"E = {self.E} violates the shell relation (expected {e0})"
            )

    @property
    def shell_energy(self) -> float:
        return math.sqrt(self.m**2 + self.px**2 + self.py**2 + self.pz**2)

    @property
    def p_plus(self) -> complex:
        return self.px + 1j * self.py

    @property
    def p_minus(self) -> complex:
        return self.px - 1j * self.py

    @classmethod
    def on_shell(cls, px: float, py: float, pz: float, m: float) -> "FourMomentum":
        return cls(math.sqrt(m**2 + px**2 + py**2 + pz**2), px, py, pz, m)

    @classmethod
    def off_shell(cls, E: float, px: float, py: float, pz: float, m: float) -> "FourMomentum":
        """Explicit off-shell constructor for negative tests."""
        _require_finite(E, px, py, pz, m)
        p = object.__new__(cls)
        for name, val in zip(("E", "px", "py", "pz", "m"), (E, px, py, pz, m)):
            object.__setattr__(p, name, float(val))
        return p

    def is_on_shell(self) -> bool:
        return self.m > 0.0 and abs(self.E - self.shell_energy) <= ON_SHELL_RTOL * self.shell_energy


def momentum_slash(p: FourMomentum) -> np.ndarray:
    """gamma^nu p_nu = E gamma0 - px gamma1 - py gamma2 - pz gamma3."""
    return p.E * GAMMA0 - p.px * GAMMA1 - p.py * GAMMA2 - p.pz * GAMMA3


@dataclass(frozen=True)
class DiracAmplitude:
    components: np.ndarray
    kind: Literal["u", "v"]
    r: int


def _scaled(n: float, entries: list[complex]) -> np.ndarray:
    """n = sqrt((E + m)/2m) times ``entries``.  A product that is not
    finite (a mass near zero, or E + m near zero off shell) raises
    OverflowError, and numpy prints no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        amp = n * np.array(entries, dtype=complex)
    if not np.isfinite(amp).all():
        raise OverflowError(f"spinor amplitude is not finite (sqrt((E + m)/2m) = {n})")
    return amp


def _u_components(r: int, p: FourMomentum) -> np.ndarray:
    n = math.sqrt((p.E + p.m) / (2.0 * p.m))
    d = p.E + p.m
    if r == 1:
        return _scaled(n, [1.0, 0.0, p.pz / d, p.p_plus / d])
    if r == 2:
        return _scaled(n, [0.0, 1.0, p.p_minus / d, -p.pz / d])
    raise ValueError(f"r must be 1 or 2, got {r}")


def _v_components(r: int, p: FourMomentum) -> np.ndarray:
    n = math.sqrt((p.E + p.m) / (2.0 * p.m))
    d = p.E + p.m
    if r == 1:
        return _scaled(n, [p.pz / d, p.p_plus / d, 1.0, 0.0])
    if r == 2:
        return _scaled(n, [p.p_minus / d, -p.pz / d, 0.0, 1.0])
    raise ValueError(f"r must be 1 or 2, got {r}")


def _require_on_shell(p: FourMomentum) -> None:
    if not p.is_on_shell():
        raise OffShellError("amplitude requires an on-shell momentum")


def u_amplitude(r: int, p: FourMomentum) -> DiracAmplitude:
    """Positive-energy amplitude u_r(p), r in {1, 2}."""
    _require_on_shell(p)
    return DiracAmplitude(_u_components(r, p), "u", r)


def v_amplitude(r: int, p: FourMomentum) -> DiracAmplitude:
    """Negative-energy amplitude v_r(p), r in {1, 2}."""
    _require_on_shell(p)
    return DiracAmplitude(_v_components(r, p), "v", r)


def adjoint(psi: np.ndarray) -> np.ndarray:
    """psi-bar = psi^dagger gamma0."""
    return psi.conj() @ GAMMA0


def plane_wave(x: Sequence[float], p: FourMomentum, sign: Literal["+", "-"]) -> complex:
    """e^{-+ i (E x4 - px x1 - py x2 - pz x3)} for sign '+' / '-'."""
    phase = p.E * x[3] - p.px * x[0] - p.py * x[1] - p.pz * x[2]
    if sign == "+":
        return cmath.exp(-1j * phase)
    if sign == "-":
        return cmath.exp(1j * phase)
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def dirac_residual(
    kind: Literal["+", "-"], r: int, p: FourMomentum, x: Sequence[float]
) -> np.ndarray:
    """[i gamma^nu d_nu - m] psi, with the derivative taken analytically.

    psi+ = u_r e^{-ipx} and psi- = v_r e^{ipx}; off-shell momenta are
    admitted deliberately so the residual can act as a negative control.
    """
    slash = momentum_slash(p)
    if kind == "+":
        amp = _u_components(r, p)
        return (slash - p.m * np.eye(4)) @ amp * plane_wave(x, p, "+")
    if kind == "-":
        amp = _v_components(r, p)
        return (-slash - p.m * np.eye(4)) @ amp * plane_wave(x, p, "-")
    raise ValueError(f"kind must be '+' or '-', got {kind!r}")


def dirac_residual_fd(
    kind: Literal["+", "-"], r: int, p: FourMomentum, x: Sequence[float]
) -> np.ndarray:
    """Same residual with central finite differences of step 1e-4 replacing d_nu."""
    h = 1e-4
    amp = _u_components(r, p) if kind == "+" else _v_components(r, p)
    sign = "+" if kind == "+" else "-"

    def psi(pt):
        return amp * plane_wave(pt, p, sign)

    coords = (3, 0, 1, 2)  # gamma0 pairs with the time slot x4
    res = -p.m * psi(x)
    x = list(x)
    for g, c in zip(GAMMA, coords):
        xp = list(x)
        xm = list(x)
        xp[c] += h
        xm[c] -= h
        res = res + 1j * (g @ ((psi(xp) - psi(xm)) / (2.0 * h)))
    return res
