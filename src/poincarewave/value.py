"""The base of the package's immutable value types.

A value type is a class with ``__slots__`` naming its fields, in order, and
an ``__init__`` that checks its arguments and then stores each one through
the slot's own setter (``slot_setters``), since ``Value`` refuses every
assignment and deletion.  ``Value`` gives it what a frozen dataclass has:
``==`` and ``hash`` over the tuple of fields, the repr
``Name(field=value, ...)``, ``__match_args__``, and pickling and copying
that restore the fields as they are, without running the checks again.
"""

from __future__ import annotations


class Value:
    """Equality, hash, repr, pickling and immutability over the fields that
    a subclass names in ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        for set_field, value in zip(slot_setters(self.__class__), state):
            set_field(self, value)


def slot_setters(cls: type[Value]) -> list:
    """The setter of each field of ``cls``, in field order: ``set(obj, v)``
    stores v in obj's field, past ``Value.__setattr__``.  It costs about
    80 ns less per field than ``object.__setattr__(obj, name, v)``, and the
    hot paths build several value types per point."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]
