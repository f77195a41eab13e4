"""Interval-weighted networks: representation, ingestion and aggregation.

A network is a symmetric matrix of ``Interval`` weights over labelled
vertices (the observed contingency table). An absent edge is exactly
[0,0]; freshly ingested networks have a zero diagonal, while aggregated
networks carry within-community weight as interval self-loops.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .errors import DuplicateEdge, InvalidInterval, NegativeWeight, ParseError
from .interval import Interval, ZERO
from .partition import Partition

__all__ = [
    "DirectedFlowRecord",
    "IWNetwork",
    "symmetrize",
    "aggregate_sum",
    "aggregate_minmax",
    "format_matrix",
    "read_flow_csv",
    "network_from_csv",
]

CSV_HEADER = ("src", "dst", "lo", "hi")


@dataclass(frozen=True)
class DirectedFlowRecord:
    """One directed flow ``src -> dst`` with interval weight [lo, hi]."""

    src: str
    dst: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInterval(
                f"{self.src}->{self.dst}: lo {self.lo} > hi {self.hi}"
            )
        if self.lo < 0:
            raise NegativeWeight(f"{self.src}->{self.dst}: lo {self.lo} < 0")


@dataclass(frozen=True)
class IWNetwork:
    """Undirected interval-weighted network (symmetric interval matrix)."""

    labels: tuple[str, ...]
    weights: tuple[tuple[Interval, ...], ...]
    dropped_self_loops: int = field(default=0, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(self.weights) != n or any(len(row) != n for row in self.weights):
            raise ValueError("weights matrix shape does not match label count")
        for i in range(n):
            for j in range(n):
                w = self.weights[i][j]
                if w.lo < 0:
                    raise NegativeWeight(
                        f"weight {self.labels[i]}-{self.labels[j]} has lo < 0"
                    )
                if j > i and w != self.weights[j][i]:
                    raise ValueError(
                        f"weights not symmetric at {self.labels[i]}/{self.labels[j]}"
                    )

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[str, str, float, float]],
    ) -> "IWNetwork":
        """Build a network from undirected (u, v, lo, hi) tuples."""
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        w = [[ZERO] * n for _ in range(n)]
        for u, v, lo, hi in edges:
            i, j = index[u], index[v]
            w[i][j] = w[j][i] = Interval(lo, hi)
        return cls(tuple(labels), tuple(tuple(row) for row in w))

    @property
    def n(self) -> int:
        return len(self.labels)

    def strength(self, i: int) -> Interval:
        """Interval marginal sum of row i (diagonal included once)."""
        acc = ZERO
        for w in self.weights[i]:
            acc = acc + w
        return acc

    def total_weight(self) -> Interval:
        """Sum of all matrix entries, i.e. [2w_lo, 2w_hi]."""
        acc = ZERO
        for row in self.weights:
            for w in row:
                acc = acc + w
        return acc

    def midpoints(self) -> list[list[float]]:
        return [[w.midpoint for w in row] for row in self.weights]

    def neighbors(self, i: int) -> list[int]:
        """Vertices j with a present edge (weight != [0,0]); includes i itself
        when i has a self-loop."""
        return [j for j, w in enumerate(self.weights[i]) if w != ZERO]

    def edge_count(self) -> int:
        n = self.n
        return sum(
            1 for i in range(n) for j in range(i, n) if self.weights[i][j] != ZERO
        )


def symmetrize(
    records: Sequence[DirectedFlowRecord],
    threshold: float = 0.0,
    *,
    directed: bool = True,
) -> IWNetwork:
    """Fold directed flow records into an undirected interval network.

    A record is discarded when its hi is below ``threshold`` (existence
    filter, applied before symmetrization). For each unordered pair the
    weight is the envelope [min lo, max hi] of the surviving records in
    the two directions; with ``directed=False`` records are taken as
    already-undirected pairs and a repeated pair is an error. Self-loop
    records are dropped and counted in ``dropped_self_loops``.
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def vid(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    dropped = 0
    seen: set[tuple[str, str]] = set()
    pair_weights: dict[tuple[int, int], Interval] = {}
    for rec in records:
        key = (rec.src, rec.dst) if directed else tuple(sorted((rec.src, rec.dst)))
        if key in seen:
            raise DuplicateEdge(f"duplicate record {rec.src}->{rec.dst}")
        seen.add(key)
        i, j = vid(rec.src), vid(rec.dst)
        if i == j:
            dropped += 1
            continue
        if rec.hi < threshold:
            continue
        pair = (min(i, j), max(i, j))
        w = Interval(rec.lo, rec.hi)
        prev = pair_weights.get(pair)
        if prev is not None:
            w = Interval(min(prev.lo, w.lo), max(prev.hi, w.hi))
        pair_weights[pair] = w

    n = len(labels)
    w = [[ZERO] * n for _ in range(n)]
    for (i, j), weight in pair_weights.items():
        w[i][j] = w[j][i] = weight
    return IWNetwork(
        tuple(labels),
        tuple(tuple(row) for row in w),
        dropped_self_loops=dropped,
    )


def _community_label(net: IWNetwork, members: Sequence[int]) -> str:
    return ",".join(net.labels[v] for v in members)


def aggregate_sum(net: IWNetwork, p: Partition) -> IWNetwork:
    """Collapse communities to super-vertices, summing interval weights.

    Block (C, D) sums all ordered member pairs, so the diagonal self-loop
    holds the whole within-community weight and total weight is preserved.
    Off-diagonal blocks are computed once and mirrored, keeping the output
    exactly symmetric under float accumulation.
    """
    comms = p.communities
    q = len(comms)
    w = [[ZERO] * q for _ in range(q)]
    for r in range(q):
        for c in range(r, q):
            acc = ZERO
            for i in comms[r]:
                for j in comms[c]:
                    acc = acc + net.weights[i][j]
            if r == c:
                w[r][r] = acc
            else:
                w[r][c] = w[c][r] = acc
    labels = tuple(_community_label(net, m) for m in comms)
    return IWNetwork(labels, tuple(tuple(row) for row in w))


def aggregate_minmax(net: IWNetwork, p: Partition) -> IWNetwork:
    """Collapse communities, keeping the envelope of present edges.

    Block (C, D) is [min lo, max hi] over present member edges only;
    absent pairs stay [0,0] so connectivity is preserved.
    """
    comms = p.communities
    q = len(comms)
    w = [[ZERO] * q for _ in range(q)]
    for r in range(q):
        for c in range(r, q):
            lo = None
            hi = None
            for i in comms[r]:
                for j in comms[c]:
                    wij = net.weights[i][j]
                    if wij == ZERO:
                        continue
                    lo = wij.lo if lo is None else min(lo, wij.lo)
                    hi = wij.hi if hi is None else max(hi, wij.hi)
            if lo is not None:
                w[r][c] = w[c][r] = Interval(lo, hi)
    labels = tuple(_community_label(net, m) for m in comms)
    return IWNetwork(labels, tuple(tuple(row) for row in w))


def format_matrix(net: IWNetwork) -> list[str]:
    """Aligned text rendering of the interval adjacency matrix."""
    cells = [[str(w) for w in row] for row in net.weights]
    label_w = max((len(lab) for lab in net.labels), default=0)
    col_w = [
        max(len(net.labels[j]), max((len(cells[i][j]) for i in range(net.n)), default=0))
        for j in range(net.n)
    ]
    lines = [
        " " * label_w
        + "  "
        + "  ".join(net.labels[j].ljust(col_w[j]) for j in range(net.n))
    ]
    for i in range(net.n):
        lines.append(
            net.labels[i].ljust(label_w)
            + "  "
            + "  ".join(cells[i][j].ljust(col_w[j]) for j in range(net.n))
        )
    return [line.rstrip() for line in lines]


def read_flow_csv(source: str | TextIO) -> list[DirectedFlowRecord]:
    """Parse an edge-list CSV with header ``src,dst,lo,hi``.

    Raises ParseError with a 1-based line number on malformed input.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_flow_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, expected header src,dst,lo,hi") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(1, f"expected header src,dst,lo,hi, got {','.join(header)}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(row)}")
        src, dst = row[0].strip(), row[1].strip()
        if not src or not dst:
            raise ParseError(lineno, "empty vertex label")
        try:
            lo = float(row[2])
            hi = float(row[3])
        except ValueError:
            raise ParseError(lineno, f"non-numeric weight in {row[2]!r},{row[3]!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParseError(lineno, f"non-finite weight in {row[2]!r},{row[3]!r}")
        try:
            records.append(DirectedFlowRecord(src, dst, lo, hi))
        except (InvalidInterval, NegativeWeight) as exc:
            raise ParseError(lineno, str(exc)) from None
    return records


def network_from_csv(
    source: str | TextIO,
    *,
    directed: bool = True,
    threshold: float = 0.0,
) -> IWNetwork:
    return symmetrize(read_flow_csv(source), threshold, directed=directed)
