"""Translation-group factor: four-momenta, plane-wave amplitudes, plane waves.

Conventions: metric g = diag(1, -1, -1, -1); the fourth coordinate x4 is
time, so p.x = E x4 - px x1 - py x2 - pz x3.  The amplitudes are the
printed u_r(p) and v_r(p), each a 4-tuple of complex entries like every
other factor of the evaluator.  The gamma matrices under which they
annihilate the printed operator, and the residual checks built on them,
live in ``verify``.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Literal, Sequence

from .errors import OffShellError, PhaseOverflow
from .value import Value, slot_setters

ON_SHELL_RTOL = 1e-12


def _require_finite(*components: float) -> None:
    if not all(math.isfinite(v) for v in components):
        raise OffShellError(f"four-momentum components must be finite, got {components}")


def _shell_energy(px: float, py: float, pz: float, m: float) -> float:
    """sqrt(m² + |p|²).  Finite components whose m² + |p|² is past the
    double range, in a square or in their sum, raise OffShellError naming
    them, and so does a positive mass whose m² + |p|² is below the smallest
    normal double, where the squares have lost their precision.  An
    infinite component gives E = inf, which ``FourMomentum`` refuses as not
    finite.  The squares stay ``**``: ``x*x`` differs from ``x**2`` in the
    last bit for some doubles, which would move E."""
    try:
        square = m**2 + px**2 + py**2 + pz**2
    except OverflowError:
        raise _shell_error(px, py, pz, m, "overflows") from None
    if square == math.inf and all(map(math.isfinite, (px, py, pz, m))):
        raise _shell_error(px, py, pz, m, "overflows")
    if m > 0.0 and square < sys.float_info.min:
        raise _shell_error(px, py, pz, m, "underflows")
    return math.sqrt(square)


def _shell_error(px: float, py: float, pz: float, m: float, how: str) -> OffShellError:
    return OffShellError(f"the shell energy of (px, py, pz, m) = {(px, py, pz, m)} {how} a double")


class FourMomentum(Value):
    """On-shell four-momentum; use ``off_shell`` for deliberate violations."""

    __slots__ = ("E", "px", "py", "pz", "m")

    def __init__(self, E: float, px: float, py: float, pz: float, m: float):
        _require_finite(E, px, py, pz, m)
        if not m > 0.0:
            raise OffShellError(f"mass must be positive, got {m}")
        e0 = _shell_energy(px, py, pz, m)
        if abs(E - e0) > ON_SHELL_RTOL * e0:
            raise OffShellError(f"E = {E} violates the shell relation (expected {e0})")
        _set_E(self, E)
        _set_px(self, px)
        _set_py(self, py)
        _set_pz(self, pz)
        _set_m(self, m)

    @property
    def shell_energy(self) -> float:
        return _shell_energy(self.px, self.py, self.pz, self.m)

    @property
    def p_plus(self) -> complex:
        return self.px + 1j * self.py

    @property
    def p_minus(self) -> complex:
        return self.px - 1j * self.py

    @classmethod
    def on_shell(cls, px: float, py: float, pz: float, m: float) -> "FourMomentum":
        return cls(_shell_energy(px, py, pz, m), px, py, pz, m)

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


_set_E, _set_px, _set_py, _set_pz, _set_m = slot_setters(FourMomentum)


class DiracAmplitude(Value):
    """The four entries of u_r(p) (``kind`` "u") or v_r(p) ("v")."""

    __slots__ = ("components", "kind", "r")

    def __init__(self, components: tuple[complex, complex, complex, complex],
                 kind: Literal["u", "v"], r: int):
        _set_components(self, components)
        _set_kind(self, kind)
        _set_r(self, r)


_set_components, _set_kind, _set_r = slot_setters(DiracAmplitude)


def _scaled(n: float, entries: list[complex]) -> tuple[complex, ...]:
    """n = sqrt((E + m)/2m) times each of ``entries``, as a complex.  A
    product that is not finite (a mass near zero, or E + m near zero off
    shell) raises OverflowError."""
    amp = tuple(n * complex(e) for e in entries)
    if not all(map(cmath.isfinite, amp)):
        raise OverflowError(f"spinor amplitude is not finite (sqrt((E + m)/2m) = {n})")
    return amp


def _components(kind: Literal["u", "v"], r: int, p: FourMomentum) -> tuple[complex, ...]:
    """The entries of u_r(p), or of v_r(p), which is u_r(p) with its two
    spinor halves swapped.  They need E + m > 0, which only an off-shell
    momentum can break."""
    d = p.E + p.m
    if not d > 0.0:
        raise OffShellError(f"spinor amplitudes need E + m > 0, got E = {p.E}, m = {p.m}")
    n = math.sqrt(d / (2.0 * p.m))
    if r == 1:
        upper, lower = [1.0, 0.0], [p.pz / d, p.p_plus / d]
    elif r == 2:
        upper, lower = [0.0, 1.0], [p.p_minus / d, -p.pz / d]
    else:
        raise ValueError(f"r must be 1 or 2, got {r}")
    return _scaled(n, upper + lower if kind == "u" else lower + upper)


def _require_on_shell(p: FourMomentum) -> None:
    if not p.is_on_shell():
        raise OffShellError("amplitude requires an on-shell momentum")


def u_amplitude(r: int, p: FourMomentum) -> DiracAmplitude:
    """Positive-energy amplitude u_r(p), r in {1, 2}."""
    _require_on_shell(p)
    return DiracAmplitude(_components("u", r, p), "u", r)


def v_amplitude(r: int, p: FourMomentum) -> DiracAmplitude:
    """Negative-energy amplitude v_r(p), r in {1, 2}."""
    _require_on_shell(p)
    return DiracAmplitude(_components("v", r, p), "v", r)


def _phase_overflow(p: FourMomentum, where: str) -> PhaseOverflow:
    return PhaseOverflow(f"the plane-wave phase p.x overflows at "
                         f"(E, px, py, pz) = {(p.E, p.px, p.py, p.pz)}, {where}")


def check_phase_bound(p: FourMomentum, x_abs: Sequence[float]) -> None:
    """PhaseOverflow, naming p and ``x_abs``, unless the bound
    |E| x_abs[3] + |px| x_abs[0] + |py| x_abs[1] + |pz| x_abs[2] is finite.

    The bound is summed in the order ``plane_wave`` sums p.x, and rounding
    is monotone, so when it is finite so is p.x at every x with
    |x[i]| <= x_abs[i].
    """
    bound = (abs(p.E) * x_abs[3] + abs(p.px) * x_abs[0] + abs(p.py) * x_abs[1]
             + abs(p.pz) * x_abs[2])
    if not math.isfinite(bound):
        raise _phase_overflow(p, f"|x| up to {tuple(x_abs)}")


def plane_wave(x: Sequence[float], p: FourMomentum, sign: Literal["+", "-"]) -> complex:
    """e^{-+ i (E x4 - px x1 - py x2 - pz x3)} for sign '+' / '-';
    PhaseOverflow, naming p and x, when the phase is not finite."""
    phase = p.E * x[3] - p.px * x[0] - p.py * x[1] - p.pz * x[2]
    if not math.isfinite(phase):
        raise _phase_overflow(p, f"x = {tuple(x)}")
    if sign == "+":
        return cmath.exp(-1j * phase)
    if sign == "-":
        return cmath.exp(1j * phase)
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")
