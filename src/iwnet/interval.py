"""Closed bounded real intervals and the point operations built on them.

An ``Interval`` is an immutable value; a degenerate interval [x, x] behaves
as the real number x. Arithmetic follows the classical endpoint rules
(no outward rounding), so the usual pitfalls apply: subtraction is not the
inverse of addition (``a - a`` is twice as wide as ``a``) and only a
subdistributive law holds for multiplication over addition.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, TypeVar

from .errors import DivisorContainsZero, InvalidInterval
from .frozen import Frozen

__all__ = ["Interval", "ZERO", "dominant_diff", "hausdorff", "seq_sum", "signed_diff"]


class Interval(Frozen, fields=("lo", "hi")):
    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        flo = float(lo)
        fhi = float(hi)
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            raise InvalidInterval(f"non-finite endpoint in [{lo}, {hi}]")
        if flo > fhi:
            raise InvalidInterval(f"lo > hi in [{lo}, {hi}]")
        object.__setattr__(self, "lo", flo)
        object.__setattr__(self, "hi", fhi)

    def __reduce__(self):
        # slot state would be restored through the refused __setattr__
        return Interval, (self.lo, self.hi)

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

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

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
