"""Exact half-integer arithmetic.

Indices such as l, m and the summation variable k take values in
{..., -1, -1/2, 0, 1/2, 1, ...} and must never suffer floating rounding;
they are stored as twice their value in a plain int.
"""

from __future__ import annotations

import functools
import math

from .value import Value, slot_setters


@functools.total_ordering
class HalfInt(Value):
    """A number q represented exactly by the integer 2q, ordered by q."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores twice the value as an int")
        _set_twice(self, twice)

    def __lt__(self, other: "HalfInt") -> bool:
        if other.__class__ is self.__class__:
            return self.twice < other.twice
        return NotImplemented

    @classmethod
    def from_value(cls, value) -> "HalfInt":
        """Build from an int, float or string like '3/2'.  Anything that is
        not a finite half-integer raises ValueError('not a half-integer')."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, str):
            try:
                if "/" in value:
                    num, den = map(int, value.split("/"))
                    if den in (1, 2):
                        return cls(num * 2 // den)
                    raise ValueError
                value = float(value)
            except ValueError:
                raise ValueError(f"not a half-integer: {value!r}") from None
        twice = 2 * value
        if not math.isfinite(twice) or twice != round(twice):
            raise ValueError(f"not a half-integer: {value!r}")
        return cls(int(round(twice)))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


_set_twice, = slot_setters(HalfInt)


def half(twice: int) -> HalfInt:
    """Shorthand constructor: half(3) == 3/2."""
    return HalfInt(twice)


def unit_range(lo: HalfInt, hi: HalfInt) -> list[HalfInt]:
    """Values lo, lo+1, ..., hi in unit steps (empty if hi < lo)."""
    return [HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2)]
