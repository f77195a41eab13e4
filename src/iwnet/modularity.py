"""Modularity of a level, read from the per-vertex sums of its rows.

Each gain kind has one class of sums, built once from a level's
super-vertex rows: ``ScalarSums`` for neighbour maps of floats (the
midpoints that ``hl`` and ``midpoint`` price moves on) and
``IntervalSums`` for ``cl``, whose per-community term ``cl_term`` is
D(o_rr, e_rr): the signed endpoint difference of the observed block and
the expected block under the pairwise adjustment of the total weight.
The Q of the rows as singletons and Q_max are read from the sums, which
the Louvain pass state builds for its network anyway; the state reads the
Q of its current membership from its own per-community sums. The
partition-level functions that collapse a partition first are references
in ``oracle``.

Expected diagonal blocks divide by the separable total (T - s) + s, or
T_hi - s_hi + s_lo and T_lo - s_lo + s_hi, so the interval track
degenerates bit for bit to the scalar track on degenerate networks. An
adjusted total vanishes only with its numerator; that 0/0 endpoint is 0.
On both tracks a zero total raises ``ZeroTotalWeight``, and a total or an
expected block that overflows raises ``InvalidInterval``. Q_norm is
Q / Q_max. The paper's pairwise formulas are references in ``oracle``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from .errors import InvalidInterval, ZeroTotalWeight
from .interval import dominant_diff, seq_sum

__all__ = [
    "ScalarSums",
    "IntervalSums",
    "expected_diag_adjusted",
    "cl_term",
]

Rows = Sequence[Mapping[int, Any]]


def _check_finite(total: float, values: Iterable[float]) -> None:
    if not (math.isfinite(total) and all(map(math.isfinite, values))):
        raise InvalidInterval(f"an expected diagonal block overflows at total weight {total!r}")


def expected_diag_adjusted(
    s_lo: float, s_hi: float, t_lo: float, t_hi: float
) -> tuple[float, float]:
    """Adjusted expected diagonal block of a community of strength [s_lo, s_hi]
    in a network of total strength [t_lo, t_hi], as a (lo, hi) pair. Each
    adjusted total is at least the strength it divides, so 0/0 is the only
    zero division; it is taken as 0."""
    return (
        s_lo * s_lo / (t_hi - s_hi + s_lo) if s_lo > 0 else 0.0,
        s_hi * s_hi / (t_lo - s_lo + s_hi) if s_hi > 0 else 0.0,
    )


def cl_term(o_lo, o_hi, s_lo, s_hi, n_lo, n_hi, t_lo, t_hi) -> float:
    """D(o_rr, e_rr) of one community from its summary and the network totals.

    The adjusted expected block depends only on the community's own
    strength and the totals, which no move changes, so Q_cl is the sum of
    this term over the communities. An endpoint with no positive member
    (count n_lo / n_hi) is 0, whatever residue its strength sum carries.
    """
    e_lo, e_hi = expected_diag_adjusted(s_lo if n_lo else 0.0, s_hi if n_hi else 0.0, t_lo, t_hi)
    return dominant_diff(o_lo - e_lo, o_hi - e_hi)


class ScalarSums:
    """Sums of scalar rows: the strength ``s`` of every row, their total
    ``two_w`` and the expected diagonal block ``e`` of every row, s_v^2 / 2w
    with 2w taken as (2w - s_v) + s_v, as on the interval track."""

    __slots__ = ("rows", "s", "two_w", "e")

    def __init__(self, rows: Rows):
        self.rows = rows
        self.s = [seq_sum(row.values()) for row in rows]
        self.two_w = t = seq_sum(self.s)
        if t <= 0:
            raise ZeroTotalWeight("total weight is zero")
        self.e = [x * x / (t - x + x) for x in self.s]
        _check_finite(t, self.e)

    def q(self) -> float:
        """Unnormalized modularity (no 1/2w factor) of the rows as singletons."""
        return seq_sum(row.get(v, 0.0) - e for v, (row, e) in enumerate(zip(self.rows, self.e)))

    def q_max(self) -> float:
        """Normalization denominator 2w - sum of the expected diagonal blocks,
        with 2w summed flat over the entries; exactly 0.0 when at most one row
        has weight, where the difference would leave a rounding residue."""
        if sum(x > 0.0 for x in self.s) <= 1:
            return 0.0
        return seq_sum(x for row in self.rows for x in row.values()) - seq_sum(self.e)


class IntervalSums:
    """Sums of rows of ``Interval`` entries.

    ``vsum`` holds o_lo, o_hi, s_lo, s_hi, n_lo, n_hi of every row: its
    observed diagonal block, its strength, and whether each strength
    endpoint is positive (the ``cl_term`` counts of a singleton). ``totals``
    is (T_lo, T_hi) and ``vterm`` the ``cl_term`` of every row.
    """

    __slots__ = ("rows", "vsum", "totals", "vterm")

    def __init__(self, rows: Rows):
        self.rows = rows
        self.vsum = []
        for v, row in enumerate(rows):
            loop = row.get(v)
            s_lo = seq_sum(w.lo for w in row.values())
            s_hi = seq_sum(w.hi for w in row.values())
            o = (0.0, 0.0) if loop is None else (loop.lo, loop.hi)
            self.vsum.append((*o, s_lo, s_hi, int(s_lo > 0.0), int(s_hi > 0.0)))
        self.totals = t_lo, t_hi = tuple(seq_sum(x[j] for x in self.vsum) for j in (2, 3))
        if t_hi <= 0:
            raise ZeroTotalWeight("total weight is zero")
        self.vterm = [cl_term(*x, t_lo, t_hi) for x in self.vsum]
        # an expected block that overflows makes its term infinite
        _check_finite(t_hi, self.vterm)

    def q(self) -> float:
        """Interval modularity of the rows as singletons: the sum of their terms."""
        return seq_sum(self.vterm)

    def q_max(self) -> float:
        """Normalization denominator D([2w_lo, 2w_hi], sum of the expected
        diagonal blocks), with 2w summed flat over the entries; 0.0 when at
        most one row has a positive upper strength, as ``ScalarSums.q_max``,
        and when T_lo is 0: every lower bound is then 0 and every expected
        upper block s_hi^2 / (0 - 0 + s_hi) is s_hi, so both differences
        are 0, where the sums would leave a rounding residue."""
        if sum(x[5] for x in self.vsum) <= 1 or self.totals[0] == 0.0:
            return 0.0
        entries = [w for row in self.rows for w in row.values()]
        e = [expected_diag_adjusted(x[2], x[3], *self.totals) for x in self.vsum]
        return dominant_diff(
            seq_sum(w.lo for w in entries) - seq_sum(x[0] for x in e),
            seq_sum(w.hi for w in entries) - seq_sum(x[1] for x in e),
        )
