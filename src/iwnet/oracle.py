"""Reference implementations, outside the run path.

``q_definitional`` evaluates a partition's modularity straight from the
definitions with its own loops (no aggregation code shared with the
driver), and ``enumerate_best`` maximizes it over every partition of the
vertex set, enumerated as restricted growth strings in lexicographic
order. Bell numbers grow fast; instances are capped at n = 12. It and
the interval pair below refuse a network as ``run()`` does
(``louvain._total_hi``), the scalar pair its float total by the same
rule (``louvain._priced``); ``q_definitional`` keeps Q = 0 without
weight, and the pairwise formulas refuse only a zero total.
``_cmd_oracle`` writes ``iwnet oracle``'s text, its Q by ``format_q``.

The paper's pairwise formulas, references for the separable sums the
Louvain pass states read Q from, sit here too: D and Hausdorff on
``Interval`` objects, the dense expected tables, the full and reduced
scalar merge gains, and ``q_interval``, the sum of D(observed, expected)
over blocks. So do the Q and Q_max of a partition on each track,
references for a pass state's ``q()``: they collapse its communities as
aggregation does and evaluate the blocks as singletons, so a partition's
value equals its aggregated network's under singletons. The interval
pair reads ``q()`` / ``q_max()`` of a ``modularity._IntervalPass`` on the
collapsed level; the scalar pair takes float rows, which no pass state
is built from, and computes the same sums with its own few lines.
"""

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from typing import Iterator, Mapping, Sequence

from . import _ORACLE
from .errors import EmptyNetwork, IWNError, ZeroTotalWeight
from .interval import Interval, ZERO, dominant_diff, seq_sum
from .louvain import Strategy, _priced, _total_hi
from .modularity import _IntervalPass
from .network import IWNetwork, blocks, pair_sum
from .partition import Partition

__all__ = [*_ORACLE, "SameCommunity", "TooLarge"]

MAX_VERTICES = 12


class SameCommunity(IWNError):
    """A merge gain was requested for a community with itself."""


class TooLarge(IWNError):
    """Instance exceeds the brute-force size guard."""


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


OracleReport = namedtuple("OracleReport", ["best_partition", "best_q", "partitions_evaluated"])


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings.

    a[0] == 0 and a[i] <= 1 + max(a[:i]); successive strings are produced
    in ascending lexicographic order, starting from the all-in-one
    partition (all zeros). ``n == 0`` yields the one partition of the
    empty set, ``()``: there are B(n) strings, B(0) = 1.
    """
    a = [0] * n
    prefix_max = [0] * n
    while True:
        yield tuple(a)
        # find rightmost position that can still grow
        i = n - 1
        while i > 0 and a[i] > prefix_max[i - 1]:
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        prefix_max[i] = max(prefix_max[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            prefix_max[j] = prefix_max[i]


def _q_def_midpoint(mid: list[list[float]], groups: tuple[tuple[int, ...], ...]) -> float:
    s = [sum(row) for row in mid]
    two_w = sum(s)
    if two_w <= 0:
        return 0.0  # weightless network: observed and expected blocks all vanish
    total = 0.0
    for group in groups:
        for i in group:
            for j in group:
                total += mid[i][j] - s[i] * s[j] / two_w
    return total


def _q_def_classic(net: IWNetwork, groups: tuple[tuple[int, ...], ...]) -> float:
    strengths = [net.strength(i) for i in range(net.n)]
    if sum(s.hi for s in strengths) <= 0:
        return 0.0
    s_lo = []
    s_hi = []
    o_blocks = []
    for group in groups:
        lo = sum(strengths[i].lo for i in group)
        hi = sum(strengths[i].hi for i in group)
        s_lo.append(lo)
        s_hi.append(hi)
        b_lo = sum(net.weights[i][j].lo for i in group for j in group)
        b_hi = sum(net.weights[i][j].hi for i in group for j in group)
        o_blocks.append(Interval(b_lo, b_hi))
    q = 0.0
    for r, group in enumerate(groups):
        adj_max = sum(s_hi[t] for t in range(len(groups)) if t != r) + s_lo[r]
        adj_min = sum(s_lo[t] for t in range(len(groups)) if t != r) + s_hi[r]
        # adj_max >= s_lo[r], adj_min >= s_hi[r]: an expected 0/0 endpoint is 0
        e_lo = s_lo[r] * s_lo[r] / adj_max if adj_max else 0.0
        e_rr = Interval(e_lo, s_hi[r] * s_hi[r] / adj_min if adj_min else 0.0)
        q += signed_diff(o_blocks[r], e_rr)
    return q


def _q_def_hybrid(net: IWNetwork, groups: tuple[tuple[int, ...], ...]) -> float:
    q = len(groups)
    mid = [[0.0] * q for _ in range(q)]
    for r in range(q):
        for c in range(q):
            lo = None
            hi = None
            for i in groups[r]:
                for j in groups[c]:
                    w = net.weights[i][j]
                    if w.lo == 0.0 and w.hi == 0.0:
                        continue
                    lo = w.lo if lo is None else min(lo, w.lo)
                    hi = w.hi if hi is None else max(hi, w.hi)
            if lo is not None:
                mid[r][c] = (lo + hi) / 2.0
    s = [sum(row) for row in mid]
    two_w = sum(s)
    if two_w <= 0:
        return 0.0
    return sum(mid[r][r] - s[r] * s[r] / two_w for r in range(q))


def q_definitional(net: IWNetwork, p: Partition, strategy: Strategy | str) -> float:
    """Partition modularity computed directly from the definitions."""
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    groups = p.communities
    if strategy.name == "cl":
        return _q_def_classic(net, groups)
    if strategy.name == "hl":
        return _q_def_hybrid(net, groups)
    return _q_def_midpoint([[w.midpoint for w in row] for row in net.weights], groups)


def enumerate_best(net: IWNetwork, strategy: Strategy | str) -> OracleReport:
    """Exhaustive modularity maximization over all partitions.

    Ties keep the first maximizer in enumeration order.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if net.n == 0:
        raise EmptyNetwork("network has no vertices")
    if net.n > MAX_VERTICES:
        raise TooLarge(f"{net.n} vertices exceeds the n <= {MAX_VERTICES} guard")
    _total_hi(net)
    best_q = None
    best = None
    count = 0
    for assignment in partitions(net.n):
        count += 1
        p = Partition(assignment)
        q = q_definitional(net, p, strategy)
        if best_q is None or q > best_q:
            best_q = q
            best = p
    return OracleReport(best_partition=best, best_q=best_q, partitions_evaluated=count)


def _cmd_oracle(net: IWNetwork, metric: str) -> int:
    """``iwnet oracle``: the best partition of ``net`` under ``metric``,
    written to stdout as text, its Q spelled as ``iwnet run`` spells it."""
    from .trace import format_q

    report = enumerate_best(net, metric)
    lines = [
        f"metric: {metric}",
        f"partitions evaluated: {report.partitions_evaluated}",
        f"best Q = {format_q(report.best_q, 6)}",
        f"best partition (n={report.best_partition.n_communities}):",
    ]
    for cid, group in enumerate(report.best_partition.communities, start=1):
        lines.append(f"  C{cid}: {', '.join(net.labels[v] for v in group)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


Matrix = Sequence[Sequence[float]]


ExpectedTable = namedtuple("ExpectedTable", ["mode", "e"])
ExpectedTable.__doc__ = """Symmetric table ``e`` of expected weights (a tuple of rows
of ``Interval``s) under row-column independence.

``mode`` is "scalar" (degenerate entries e_ij = s_i s_j / 2w) or
"interval-adjusted" (pairwise-adjusted interval quotients). The adjusted
table has no meaningful marginal totals."""


def expected_scalar(mid: Matrix) -> ExpectedTable:
    """Pairwise expected weights e_ij = s_i * s_j / 2w of a scalar matrix."""
    s = [seq_sum(row) for row in mid]
    two_w = seq_sum(s)
    if two_w <= 0:
        raise ZeroTotalWeight("total weight is zero")
    e = tuple(
        tuple(Interval(si * sj / two_w, si * sj / two_w) for sj in s) for si in s
    )
    return ExpectedTable("scalar", e)


def adjusted_total_bounds(strengths: Sequence[Interval], i: int, j: int) -> tuple[float, float]:
    """(adjusted minimum, adjusted maximum) of the total weight for pair (i, j).

    The pair's own strength endpoints are pinned: the adjusted maximum is
    the largest total reachable while both pinned strengths sit at their
    lower endpoints (it divides the expected lower bound), and the
    adjusted minimum is the smallest total with both at their upper
    endpoints (it divides the expected upper bound).
    """
    others = [s for l, s in enumerate(strengths) if l != i and l != j]
    others_lo = seq_sum(s.lo for s in others)
    others_hi = seq_sum(s.hi for s in others)
    if i == j:
        adj_max = others_hi + strengths[i].lo
        adj_min = others_lo + strengths[i].hi
    else:
        adj_max = others_hi + strengths[i].lo + strengths[j].lo
        adj_min = others_lo + strengths[i].hi + strengths[j].hi
    return adj_min, adj_max


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


def dq_scalar_full(mid: Matrix, p: Partition, r: int, s: int) -> float:
    """Gain of merging communities r and s, as Q(after) - Q(before)."""
    if r == s:
        raise SameCommunity(f"cannot merge community {r} with itself")
    rows = [{j: x for j, x in enumerate(row) if x} for row in mid]
    merged = Partition(min(r, s) if c == max(r, s) else c for c in p.assignment)
    return q_scalar_communities(rows, merged.communities) - q_scalar_communities(rows, p.communities)


def dq_scalar_reduced(mid: Matrix, p: Partition, r: int, s: int) -> float:
    """Gain of merging communities r and s via the local form 2(o_rs - e_rs)."""
    if r == s:
        raise SameCommunity(f"cannot merge community {r} with itself")
    strengths = [seq_sum(row) for row in mid]
    two_w = seq_sum(strengths)
    if two_w <= 0:
        raise ZeroTotalWeight("total weight is zero")
    comm_r, comm_s = p.communities[r], p.communities[s]
    o_rs = seq_sum(mid[i][j] for i in comm_r for j in comm_s)
    s_r = seq_sum(strengths[i] for i in comm_r)
    s_s = seq_sum(strengths[j] for j in comm_s)
    return 2.0 * (o_rs - s_r * s_s / two_w)


def q_interval(o_blocks: Sequence[Interval], e_blocks: Sequence[Interval]) -> float:
    """Interval modularity: sum of D(observed, expected) over communities."""
    if len(o_blocks) != len(e_blocks):
        raise ValueError("observed and expected block counts differ")
    return seq_sum(map(signed_diff, o_blocks, e_blocks))


Rows = Sequence[Mapping[int, float]]


def _members(n: int, comms: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """``comms``, refused unless each of the n vertices is in exactly one."""
    if sorted(v for members in comms for v in members) != list(range(n)):
        raise ValueError(f"member lists do not partition the {n} vertices: each must be in one")
    return comms


def _scalar_level(
    rows: Rows, comms: Sequence[Sequence[int]]
) -> tuple[tuple[dict[int, float], ...], list[float], list[float]]:
    """(blocks, strengths, expected diagonal blocks) of the collapsed scalar
    rows, summed as ``scalar._ScalarPass`` sums its level, their total
    refused unless ``_priced``."""
    upper = blocks(rows, _members(len(rows), comms), operator.add, 0.0)
    agg = IWNetwork._built(tuple(map(str, range(len(comms)))), upper).rows
    s = [seq_sum(row.values()) for row in agg]
    t = _priced(seq_sum(s))
    return agg, s, [x * x / (t - x + x) for x in s]


def q_scalar_communities(rows: Rows, comms: Sequence[Sequence[int]]) -> float:
    """Unnormalized scalar modularity (no 1/2w factor) of scalar neighbour
    maps over explicit, ascending member lists."""
    agg, _, e = _scalar_level(rows, comms)
    return seq_sum(row.get(r, 0.0) - x for r, (row, x) in enumerate(zip(agg, e)))


def q_max_scalar_communities(rows: Rows, comms: Sequence[Sequence[int]]) -> float:
    """Scalar normalization denominator 2w - sum of expected diagonal blocks,
    over explicit, ascending member lists; 0.0 when at most one block has
    weight."""
    agg, s, e = _scalar_level(rows, comms)
    if sum(x > 0.0 for x in s) <= 1:
        return 0.0
    return seq_sum(x for row in agg for x in row.values()) - seq_sum(e)


def _interval_level(net: IWNetwork, comms: Sequence[Sequence[int]]) -> _IntervalPass:
    """A pass state on the level that collapses ``comms`` by interval
    summation, of a network refused unless ``_total_hi`` accepts it."""
    _total_hi(net)
    upper = blocks(net.rows, _members(net.n, comms), pair_sum, (0.0, 0.0))
    names = tuple(map(str, range(len(comms))))
    return _IntervalPass(IWNetwork._built(names, ((r, c, Interval(*b)) for r, c, b in upper)))


def q_interval_communities(net: IWNetwork, comms: Sequence[Sequence[int]]) -> float:
    """Interval modularity (adjusted expectations) over explicit, ascending
    member lists, collapsed by interval summation."""
    return _interval_level(net, comms).q()


def q_max_interval_adjusted(net: IWNetwork, p: Partition) -> float:
    """Interval normalization denominator D([2w_lo, 2w_hi], sum e_rr),
    evaluated on the aggregated network of the partition."""
    return _interval_level(net, p.communities).q_max()
