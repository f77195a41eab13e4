"""Closed bounded real intervals and the point operations built on them.

An ``Interval`` is an immutable value; a degenerate interval [x, x] behaves
as the real number x. Arithmetic follows the classical endpoint rules
(no outward rounding), so the usual pitfalls apply: subtraction is not the
inverse of addition (``a - a`` has width ``2 * radius(a)``) and only a
subdistributive law holds for multiplication over addition.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, TypeVar

from .errors import DivisorContainsZero, InvalidInterval

__all__ = ["Interval", "ZERO", "dominant_diff", "hausdorff", "seq_sum", "signed_diff"]


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(f"non-finite endpoint in [{self.lo}, {self.hi}]")
        if lo > hi:
            raise InvalidInterval(f"lo > hi in [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise DivisorContainsZero(f"divisor {other} contains zero")
        return self * Interval(1.0 / other.hi, 1.0 / other.lo)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def radius(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def encloses(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{_fmt(self.lo)},{_fmt(self.hi)}]"


ZERO = Interval(0.0, 0.0)


def _fmt(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def hausdorff(a: Interval, b: Interval) -> float:
    """Hausdorff distance: max of the absolute endpoint differences."""
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


def signed_diff(a: Interval, b: Interval) -> float:
    """Endpoint difference of largest magnitude, keeping its sign.

    This is the Hausdorff magnitude signed by the dominant endpoint,
    which is what makes interval modularity gains comparable (a plain
    distance is never negative). On a magnitude tie the upper-endpoint
    difference wins, so degenerate intervals collapse to ordinary
    subtraction. Comparisons are exact: equal intervals yield 0.0.
    """
    return dominant_diff(a.lo - b.lo, a.hi - b.hi)


def dominant_diff(dl: float, dh: float) -> float:
    """``signed_diff`` from its endpoint differences dl = a.lo - b.lo and
    dh = a.hi - b.hi, for callers that keep endpoints as plain floats."""
    return dh if abs(dh) >= abs(dl) else dl


N = TypeVar("N", float, Interval)


def seq_sum(xs: Iterable[N], zero: N = 0.0) -> N:
    """Left-to-right sum of floats or intervals, starting from ``zero``.

    Every modularity sum goes through this one loop so that the scalar
    and the interval tracks round alike; builtin ``sum()`` of floats uses
    compensated summation from Python 3.12 on.
    """
    return functools.reduce(operator.add, xs, zero)
