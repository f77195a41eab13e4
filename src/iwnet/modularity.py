"""Observed/expected contingency machinery and all modularity quantities.

Two parallel tracks are kept:

* the scalar track (plain weighted networks, used on interval midpoints),
  with the unnormalized modularity, both the full and the reduced gain of
  merging two communities, and the normalized form; and
* the interval track, where the expected interval weights go through the
  pairwise adjustment of the total weight and the difference between
  observed and expected blocks is taken with the signed endpoint
  difference D.

Partition-level quantities collapse the partition's communities with
``network.blocks`` (one pass over the neighbour maps, folding interval
endpoints as plain floats) and are evaluated on the super-vertex rows in
O(m + q): expected diagonal blocks divide by
the separable total (T - s) + s, or T_hi - s_hi + s_lo and
T_lo - s_lo + s_hi, so the interval track degenerates bit for bit to
the scalar track on degenerate networks. An adjusted total vanishes
only with its numerator; that 0/0 endpoint is 0. The scalar track runs
on neighbour maps of floats; its public functions take a dense matrix.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple, Sequence

from .errors import DegenerateDenominator, SameCommunity, ZeroTotalWeight
from .interval import Interval, ZERO, seq_sum, signed_diff
from .network import IWNetwork, Pair, aggregate_minmax, blocks, pair_sum
from .partition import Partition

__all__ = [
    "ExpectedTable",
    "expected_scalar",
    "expected_interval_adjusted",
    "expected_diag_adjusted",
    "adjusted_total_bounds",
    "q_scalar",
    "q_scalar_communities",
    "dq_scalar_full",
    "dq_scalar_reduced",
    "q_norm_scalar",
    "q_interval",
    "dq_interval",
    "q_interval_adjusted",
    "q_interval_communities",
    "q_max_interval_adjusted",
    "q_max_scalar",
    "q_max_scalar_communities",
    "q_norm_interval",
]

Matrix = Sequence[Sequence[float]]
Rows = Sequence[Mapping[int, float]]


class ExpectedTable(NamedTuple):
    """Symmetric table of expected weights under row-column independence.

    ``mode`` is "scalar" (degenerate entries e_ij = s_i s_j / 2w) or
    "interval-adjusted" (pairwise-adjusted interval quotients). The
    adjusted table has no meaningful marginal totals.
    """

    mode: str
    e: tuple[tuple[Interval, ...], ...]


def _scalar_rows(mid: Matrix) -> list[dict[int, float]]:
    """Neighbour maps of a dense scalar matrix (zero entries dropped)."""
    return [{j: x for j, x in enumerate(row) if x} for row in mid]


def _row_sums(rows: Rows) -> list[float]:
    return [seq_sum(row.values()) for row in rows]


def expected_scalar(mid: Matrix) -> ExpectedTable:
    """Pairwise expected weights e_ij = s_i * s_j / 2w of a scalar matrix."""
    s = _row_sums(_scalar_rows(mid))
    two_w = seq_sum(s)
    if two_w <= 0:
        raise ZeroTotalWeight("total weight is zero")
    e = tuple(
        tuple(Interval(si * sj / two_w, si * sj / two_w) for sj in s) for si in s
    )
    return ExpectedTable("scalar", e)


def adjusted_total_bounds(
    strengths: Sequence[Interval], i: int, j: int
) -> tuple[float, float]:
    """(adjusted minimum, adjusted maximum) of the total weight for pair (i, j).

    The pair's own strength endpoints are pinned: the adjusted maximum is
    the largest total reachable while both pinned strengths sit at their
    lower endpoints (it divides the expected lower bound), and the
    adjusted minimum is the smallest total with both at their upper
    endpoints (it divides the expected upper bound).
    """
    others_lo = 0.0
    others_hi = 0.0
    for l, s in enumerate(strengths):
        if l != i and l != j:
            others_lo += s.lo
            others_hi += s.hi
    if i == j:
        adj_max = others_hi + strengths[i].lo
        adj_min = others_lo + strengths[i].hi
    else:
        adj_max = others_hi + strengths[i].lo + strengths[j].lo
        adj_min = others_lo + strengths[i].hi + strengths[j].hi
    return adj_min, adj_max


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


def expected_interval_adjusted(net: IWNetwork) -> ExpectedTable:
    """Adjusted expected interval weights for all vertex pairs (O(q^2) reference)."""
    n = net.n
    s = [net.strength(i) for i in range(n)]
    if not any(x.hi > 0 for x in s):
        raise ZeroTotalWeight("total weight is zero")
    e = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj_min, adj_max = adjusted_total_bounds(s, i, j)
            # a zero adjusted total has a zero numerator: that endpoint is 0
            e[i][j] = e[j][i] = Interval(
                s[i].lo * s[j].lo / adj_max if adj_max > 0 else 0.0,
                s[i].hi * s[j].hi / adj_min if adj_min > 0 else 0.0,
            )
    return ExpectedTable("interval-adjusted", tuple(tuple(row) for row in e))


# ---------------------------------------------------------------------------
# scalar modularity


def _expected_diag(s: Sequence[float]) -> list[float]:
    """Expected diagonal block s_r^2 / 2w of each community, with 2w taken as
    (T - s_r) + s_r from the one total T, as on the interval track."""
    t = seq_sum(s)
    return [x * x / (t - x + x) for x in s]


def _q_scalar_blocks(rows: Rows) -> float:
    s = _row_sums(rows)
    if seq_sum(s) <= 0:
        raise ZeroTotalWeight("total weight is zero")
    total = 0.0
    for r, e_rr in enumerate(_expected_diag(s)):
        total += rows[r].get(r, 0.0) - e_rr
    return total


def q_scalar_communities(rows: Rows, comms: Sequence[Sequence[int]]) -> float:
    """q_scalar of scalar neighbour maps over explicit, ascending member lists
    (driver hot path)."""
    return _q_scalar_blocks(blocks(rows, comms, operator.add, 0.0))


def q_scalar(mid: Matrix, p: Partition) -> float:
    """Unnormalized scalar modularity of a partition (no 1/2w factor)."""
    return q_scalar_communities(_scalar_rows(mid), p.communities)


def dq_scalar_full(mid: Matrix, p: Partition, r: int, s: int) -> float:
    """Gain of merging communities r and s, as Q(after) - Q(before)."""
    if r == s:
        raise SameCommunity(f"cannot merge community {r} with itself")
    rows = _scalar_rows(mid)
    before = q_scalar_communities(rows, p.communities)
    return q_scalar_communities(rows, p.merge(r, s).communities) - before


def dq_scalar_reduced(mid: Matrix, p: Partition, r: int, s: int) -> float:
    """Gain of merging communities r and s via the local form 2(o_rs - e_rs)."""
    if r == s:
        raise SameCommunity(f"cannot merge community {r} with itself")
    rows = _scalar_rows(mid)
    strengths = _row_sums(rows)
    two_w = seq_sum(strengths)
    if two_w <= 0:
        raise ZeroTotalWeight("total weight is zero")
    o_rs = 0.0
    for i in p.communities[r]:
        for j in p.communities[s]:
            o_rs += rows[i].get(j, 0.0)
    s_r = seq_sum(strengths[i] for i in p.communities[r])
    s_s = seq_sum(strengths[j] for j in p.communities[s])
    return 2.0 * (o_rs - s_r * s_s / two_w)


def _q_max_scalar_blocks(rows: Rows) -> float:
    total = seq_sum(x for row in rows for x in row.values())
    return total - seq_sum(_expected_diag(_row_sums(rows)))


def q_norm_scalar(mid: Matrix, p: Partition) -> float:
    """Normalized scalar modularity Q / (2w - sum of expected diagonal blocks)."""
    rows = blocks(_scalar_rows(mid), p.communities, operator.add, 0.0)
    q = _q_scalar_blocks(rows)
    q_max = _q_max_scalar_blocks(rows)
    if q_max == 0:
        raise DegenerateDenominator("Q_max is zero")
    return q / q_max


# ---------------------------------------------------------------------------
# interval modularity


def q_interval(
    o_blocks: Sequence[Interval], e_blocks: Sequence[Interval]
) -> float:
    """Interval modularity: sum of D(observed, expected) over communities."""
    if len(o_blocks) != len(e_blocks):
        raise ValueError("observed and expected block counts differ")
    total = 0.0
    for o, e in zip(o_blocks, e_blocks):
        total += signed_diff(o, e)
    return total


def dq_interval(q_new: float, q_last: float) -> float:
    """Interval modularity gain as the full difference q_new - q_last.

    The scalar pairwise reduction to 2(o_rs - e_rs) does not survive
    interval arithmetic. An exact shortcut does: the adjusted expected
    diagonal block of a community depends only on its own strength and
    the network totals, so the gain equals the change in the terms of the
    communities that differ, which is how the Louvain driver prices moves.
    """
    return q_new - q_last


def _diag_blocks_adjusted(rows: Sequence[Mapping[int, Pair]]) -> tuple[list, list]:
    """(observed diagonal, adjusted expected diagonal) Intervals of
    super-vertex rows of (lo, hi) blocks; an expected block that overflows
    raises."""
    s = [(seq_sum(b[0] for b in row.values()), seq_sum(b[1] for b in row.values())) for row in rows]
    t_lo = seq_sum(x[0] for x in s)
    t_hi = seq_sum(x[1] for x in s)
    if t_hi <= 0:
        raise ZeroTotalWeight("total weight is zero")
    e_blocks = [Interval(*expected_diag_adjusted(*x, t_lo, t_hi)) for x in s]
    o_blocks = [Interval(*row[r]) if r in row else ZERO for r, row in enumerate(rows)]
    return o_blocks, e_blocks


def q_interval_communities(net: IWNetwork, comms: Sequence[Sequence[int]]) -> float:
    """Interval modularity (adjusted expectations) over explicit, ascending
    member lists.

    Communities are collapsed by interval summation and the adjusted
    expectations are recomputed from scratch at that level, so the value
    of a partition equals the value of its aggregated network under
    singleton communities.
    """
    o_blocks, e_blocks = _diag_blocks_adjusted(blocks(net.rows, comms, pair_sum, (0.0, 0.0)))
    return q_interval(o_blocks, e_blocks)


def q_interval_adjusted(net: IWNetwork, p: Partition) -> float:
    """Interval modularity of a partition under adjusted expectations."""
    return q_interval_communities(net, p.communities)


def q_max_interval_adjusted(net: IWNetwork, p: Partition) -> float:
    """Interval normalization denominator D([2w_lo, 2w_hi], sum e_rr),
    evaluated on the aggregated network of the partition."""
    rows = blocks(net.rows, p.communities, pair_sum, (0.0, 0.0))
    total = Interval(*(seq_sum(b[k] for row in rows for b in row.values()) for k in (0, 1)))
    _, e_blocks = _diag_blocks_adjusted(rows)
    return signed_diff(total, seq_sum(e_blocks, ZERO))


def q_max_scalar_communities(rows: Rows, comms: Sequence[Sequence[int]]) -> float:
    """q_max_scalar of scalar neighbour maps over explicit, ascending member lists."""
    return _q_max_scalar_blocks(blocks(rows, comms, operator.add, 0.0))


def q_max_scalar(mid: Matrix, p: Partition) -> float:
    """Scalar normalization denominator 2w - sum of expected diagonal blocks."""
    return q_max_scalar_communities(_scalar_rows(mid), p.communities)


def q_norm_interval(net: IWNetwork, p: Partition, method: str = "cl") -> float:
    """Normalized interval modularity Q / D([2w_lo, 2w_hi], sum e_rr).

    Both numerator and denominator are evaluated on the aggregated
    network of the partition (the level at which Q itself is defined).
    ``method`` is "cl" (interval-sum aggregation, adjusted interval
    expectations) or "hl" (min-max aggregation, midpoint expectations).
    """
    if method == "cl":
        q = q_interval_adjusted(net, p)
        q_max = q_max_interval_adjusted(net, p)
    elif method == "hl":
        rows = aggregate_minmax(net, p).midpoint_rows()
        q = _q_scalar_blocks(rows)
        q_max = _q_max_scalar_blocks(rows)
    else:
        raise ValueError(f"unknown method {method!r}")
    if q_max == 0:
        raise DegenerateDenominator("Q_max is zero")
    return q / q_max
