"""Brute-force reference implementations for small instances.

``q_definitional`` evaluates a partition's modularity straight from the
definitions with its own loops (no aggregation code shared with the
driver), and ``enumerate_best`` maximizes it over every partition of the
vertex set, enumerated as restricted growth strings in lexicographic
order. Bell numbers grow fast; instances are capped at n = 12.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import EmptyNetwork, TooLarge
from .interval import Interval, signed_diff
from .louvain import Strategy
from .network import IWNetwork
from .partition import Partition

__all__ = ["OracleReport", "partitions", "q_definitional", "enumerate_best"]

MAX_VERTICES = 12


class OracleReport(NamedTuple):
    best_partition: Partition
    best_q: float
    partitions_evaluated: int


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings.

    a[0] == 0 and a[i] <= 1 + max(a[:i]); successive strings are produced
    in ascending lexicographic order, starting from the all-in-one
    partition (all zeros).
    """
    if n == 0:
        return
    a = [0] * n
    prefix_max = [0] * n
    while True:
        yield tuple(a)
        # find rightmost position that can still grow
        i = n - 1
        while i > 0 and a[i] > prefix_max[i - 1]:
            i -= 1
        if i == 0:
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
        strategy = Strategy.from_name(strategy)
    groups = p.communities
    if strategy.name == "classic-interval":
        return _q_def_classic(net, groups)
    if strategy.name == "hybrid":
        return _q_def_hybrid(net, groups)
    return _q_def_midpoint(net.midpoints(), groups)


def enumerate_best(net: IWNetwork, strategy: Strategy | str) -> OracleReport:
    """Exhaustive modularity maximization over all partitions.

    Ties keep the first maximizer in enumeration order.
    """
    if isinstance(strategy, str):
        strategy = Strategy.from_name(strategy)
    if net.n == 0:
        raise EmptyNetwork("network has no vertices")
    if net.n > MAX_VERTICES:
        raise TooLarge(f"{net.n} vertices exceeds the n <= {MAX_VERTICES} guard")
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
