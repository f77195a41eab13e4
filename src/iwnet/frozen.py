"""Immutable value classes that generate no code when the package is imported.

A ``Frozen`` subclass names its fields in the class statement,
``class Interval(Frozen, fields=("lo", "hi"))``, and stores them in
``__init__`` through ``object.__setattr__`` or its ``__dict__``. Its
instances refuse attribute assignment and deletion (``AttributeError``);
``==`` compares two instances of the same class on the ``compare`` fields
(all fields by default), ``hash`` hashes those, and ``repr`` shows every
field as ``Name(field=value, ...)``.
"""

from __future__ import annotations

import operator

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, *, fields: tuple[str, ...], compare: tuple[str, ...] = ()):
        super().__init_subclass__()
        cls._fields = fields
        cls._key = operator.attrgetter(*(compare or fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"
