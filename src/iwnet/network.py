"""Interval-weighted networks: representation, ingestion and aggregation.

A network over labelled vertices stores, for each vertex, a map from
its neighbours to the ``Interval`` weight of the edge (the non-zero
entries of the observed contingency table, row by row). An absent edge
is exactly [0,0] and has no entry; freshly ingested networks have no
self-loops, while aggregated networks carry within-community weight as
interval self-loops. ``IWNetwork.weights`` is a dense view for callers
that want the matrix; nothing on the run path builds it. The scalar track
reads ``midpoint_rows``, which leaves out a midpoint of 0.0 ([0, 5e-324]).
``format_matrix`` renders a network as the dense matrix up to
``DENSE_LIMIT`` vertices and as an edge list above, so no rendering is
larger than O(n + m).

Input is validated at the boundary (``read_flow_csv``, ``Interval``, the
public constructor and ``from_edges``, which reject duplicate labels
too); the networks the library builds itself skip the
check. Ingest keeps little besides the network it returns:
``read_flow_csv`` gives the records of a label one shared string, and
``symmetrize`` folds each pair's records as (lo, hi) floats and makes one
``Interval`` per pair.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

import _csv  # the C reader that csv.reader is: no run loads csv.py

from .errors import DuplicateEdge, InvalidInterval, NegativeWeight, ParseError
from .frozen import Frozen
from .interval import Interval, ZERO, seq_sum
from .partition import Partition

__all__ = [
    "DENSE_LIMIT",
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
DENSE_LIMIT = 200  # format_matrix renders larger networks as edge lists

W = TypeVar("W")  # an entry: an Interval, or a float on the scalar track
Pair = tuple[float, float]  # the (lo, hi) endpoints of an Interval block being folded


class DirectedFlowRecord(Frozen, tuple, fields=("src", "dst", "lo", "hi")):
    """One directed flow ``src -> dst`` with interval weight [lo, hi]: a
    4-tuple of its fields, validated by the constructor."""

    __slots__ = ()
    src = property(operator.itemgetter(0))
    dst = property(operator.itemgetter(1))
    lo = property(operator.itemgetter(2))
    hi = property(operator.itemgetter(3))

    def __new__(cls, src: str, dst: str, lo: float, hi: float):
        # a non-finite weight would vanish in a min/max fold instead of raising
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(f"{src}->{dst}: non-finite weight [{lo}, {hi}]")
        if lo > hi:
            raise InvalidInterval(f"{src}->{dst}: lo {lo} > hi {hi}")
        if lo < 0:
            raise NegativeWeight(f"{src}->{dst}: lo {lo} < 0")
        return tuple.__new__(cls, (src, dst, lo, hi))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)


class IWNetwork(
    Frozen,
    fields=("labels", "rows", "dropped_self_loops", "dropped_below_threshold"),
    compare=("labels", "rows"),
):
    """Undirected interval-weighted network stored as neighbour maps.

    ``rows[i]`` maps every vertex j joined to i by a present edge (weight
    other than [0,0]) to that weight, keys ascending; a self-loop sits
    under key i. The maps are symmetric. Sums over a row therefore visit
    the entries of the dense matrix row in order, skipping only exact
    zeros, which leaves every float sum unchanged.

    ``dropped_self_loops`` and ``dropped_below_threshold`` count the
    records ingestion discarded; equality ignores them. The maps make a
    network unhashable.
    """

    labels: tuple[str, ...]
    rows: tuple[dict[int, Interval], ...]
    dropped_self_loops: int
    dropped_below_threshold: int

    __hash__ = None

    def __init__(self, labels, rows, dropped_self_loops=0, dropped_below_threshold=0):
        self.__dict__.update(
            labels=labels, rows=rows, dropped_self_loops=dropped_self_loops,
            dropped_below_threshold=dropped_below_threshold,
        )
        n = len(self.labels)
        if len(self.rows) != n:
            raise ValueError("row count does not match label count")
        seen = set()
        for lab in self.labels:
            if lab in seen:
                raise ValueError(f"duplicate vertex label {lab!r}")
            seen.add(lab)
        for i, row in enumerate(self.rows):
            prev = -1
            for j, w in row.items():
                if not prev < j < n:
                    raise ValueError(
                        f"neighbour keys of {self.labels[i]} must ascend within 0..{n - 1}"
                    )
                prev = j
                if w.lo < 0:
                    raise NegativeWeight(
                        f"weight {self.labels[i]}-{self.labels[j]} has lo < 0"
                    )
                if w == ZERO:
                    raise ValueError(
                        f"absent edge {self.labels[i]}-{self.labels[j]} stored as [0,0]"
                    )
                if self.rows[j].get(i) != w:
                    raise ValueError(
                        f"weights not symmetric at {self.labels[i]}/{self.labels[j]}"
                    )

    @classmethod
    def _trusted(cls, labels, rows, loops=0, below=0) -> "IWNetwork":
        """A network from maps built by the library, without the checks of ``__init__``."""
        net = object.__new__(cls)
        net.__dict__.update(
            labels=labels, rows=rows, dropped_self_loops=loops, dropped_below_threshold=below
        )
        return net

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[str, str, float, float]],
    ) -> "IWNetwork":
        """Build a network from undirected (u, v, lo, hi) tuples: a later
        duplicate wins, u == v is a self-loop and [0,0] is no edge."""
        index = {lab: i for i, lab in enumerate(labels)}
        rows: list[dict[int, Interval]] = [{} for _ in labels]
        for u, v, lo, hi in edges:
            for lab in (u, v):
                if lab not in index:
                    raise ValueError(f"edge {u}-{v} names unknown label {lab!r}")
            i, j = index[u], index[v]
            rows[i][j] = rows[j][i] = Interval(lo, hi)
        # ascending keys, and no [0,0] entry
        return cls(tuple(labels), tuple({j: r[j] for j in sorted(r) if r[j] != ZERO} for r in rows))

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def weights(self) -> tuple[tuple[Interval, ...], ...]:
        """Dense read-only view: the n x n matrix with [0,0] for absent pairs."""
        return tuple(tuple(row.get(j, ZERO) for j in range(self.n)) for row in self.rows)

    def strength(self, i: int) -> Interval:
        """Interval marginal sum of row i (diagonal included once)."""
        return seq_sum(self.rows[i].values(), ZERO)

    def total_weight(self) -> Interval:
        """Sum of all matrix entries, i.e. [2w_lo, 2w_hi]."""
        return seq_sum((w for row in self.rows for w in row.values()), ZERO)

    def midpoint_rows(self) -> list[dict[int, float]]:
        """Neighbour maps of the edge midpoints, without a midpoint of 0.0 ([0, 5e-324])."""
        return [{j: m for j, w in row.items() if (m := (w.lo + w.hi) / 2.0)} for row in self.rows]

    def edges(self) -> Iterator[tuple[int, int, Interval]]:
        """(i, j, weight) of every present entry with i <= j, in row order,
        self-loops included."""
        for i, row in enumerate(self.rows):
            for j, w in row.items():
                if j >= i:
                    yield i, j, w

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())


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
    the two directions, folded as (lo, hi) floats in record order (a tie
    of -0.0 and 0.0 keeps the first); with ``directed=False`` records are
    taken as already-undirected pairs and a repeated pair is an error.
    Self-loop records are dropped and counted in ``dropped_self_loops``,
    the other discarded records in ``dropped_below_threshold``.

    The fold keeps one entry per pair (i, j), i <= j, that any record
    names, dropped ones included: [lo, hi, mask], the envelope so far and
    a bit per direction seen (bit 1 for i -> j, bit 2 for j -> i; bit 1
    for either when undirected). A record whose bit is set already is a
    duplicate: ``DuplicateEdge`` carries its index among the records.
    The rows are built once, in key order, so every map has ascending
    keys. A NaN ``threshold`` raises ``ValueError``: no ``hi`` compares
    below it, so it would keep every record.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, not nan")
    index: dict[str, int] = {}
    fold: dict[tuple[int, int], list] = {}
    loops = below = 0
    for n, (src, dst, lo, hi) in enumerate(records):
        i, j = index.get(src), index.get(dst)
        if i is None or j is None:
            i, j = index.setdefault(src, len(index)), index.setdefault(dst, len(index))
        key = (i, j) if i <= j else (j, i)
        bit = 2 if directed and i > j else 1
        entry = fold.get(key)
        if entry is None:  # an empty envelope, no direction seen
            entry = fold[key] = [math.inf, -math.inf, 0]
        elif entry[2] & bit:
            raise DuplicateEdge(f"duplicate record {src}->{dst}", n)
        entry[2] |= bit
        if i == j:
            loops += 1
        elif hi < threshold:
            below += 1
        else:
            entry[0] = lo if lo < entry[0] else entry[0]
            entry[1] = hi if hi > entry[1] else entry[1]
    rows: list[dict[int, Interval]] = [{} for _ in index]
    # row j takes its keys i < j in ascending i before its keys above j; an
    # entry is popped, so it is freed as its Interval is made
    for key in sorted(fold):
        lo, hi, _ = fold.pop(key)
        if hi > 0.0:  # not [0,0], nor a pair of dropped records only
            i, j = key
            rows[i][j] = rows[j][i] = Interval(lo, hi)
    return IWNetwork._trusted(tuple(index), tuple(rows), loops, below)


def blocks(
    rows: Sequence[Mapping[int, W]],
    comms: Sequence[Sequence[int]],
    combine: Callable[[Any, W], Any],
    zero: Any,
    finish: Callable[..., Any] | None = None,
) -> list[dict[int, Any]]:
    """Collapse communities to super-vertices in one pass over the edges.

    Block (r, c) folds the entries between the members of communities r
    and c with ``combine``, starting from ``zero``, in row-major
    member-pair order (member lists ascend, as ``Partition`` and the
    driver keep them). Only blocks on or above the diagonal are computed;
    each is passed to ``finish(block)`` if given and mirrored, so the
    result is exactly symmetric. Blocks without an entry are absent, and
    every returned map has ascending keys. Interval entries fold as
    (lo, hi) float pairs with ``pair_sum`` or ``envelope``.
    """
    comm_of = [-1] * len(rows)
    for r, members in enumerate(comms):
        for i in members:
            comm_of[i] = r
    out: list[dict[int, Any]] = [{} for _ in comms]
    for r, members in enumerate(comms):
        upper: dict[int, Any] = {}
        for i in members:
            for j, w in rows[i].items():
                c = comm_of[j]
                if c >= r:
                    upper[c] = combine(upper.get(c, zero), w)
        # rows below r already hold their keys < r in ascending order
        for c in sorted(upper):
            out[r][c] = out[c][r] = upper[c] if finish is None else finish(upper[c])
    return out


def pair_sum(acc: Pair, w: Interval) -> Pair:
    return (acc[0] + w.lo, acc[1] + w.hi)


def envelope(acc: Pair | None, w: Interval) -> Pair:
    return (w.lo, w.hi) if acc is None else (min(acc[0], w.lo), max(acc[1], w.hi))


def _collapse(net: IWNetwork, p: Partition, rows: Sequence[Mapping[int, Any]],
              combine: Callable, zero: Any, finish: Callable) -> IWNetwork:
    comms = p.communities
    rows = tuple(blocks(rows, comms, combine, zero, finish))  # rebinding frees midpoint's maps now
    labels = tuple(",".join(net.labels[v] for v in m) for m in comms)
    return IWNetwork._trusted(labels, rows)


def _pair_interval(pair: Pair) -> Interval:
    return Interval(*pair)


def aggregate_sum(net: IWNetwork, p: Partition) -> IWNetwork:
    """Collapse communities to super-vertices, summing interval weights.

    Block (C, D) sums all ordered member pairs, so the diagonal self-loop
    holds the whole within-community weight and total weight is preserved.
    """
    return _collapse(net, p, net.rows, pair_sum, (0.0, 0.0), _pair_interval)


def aggregate_minmax(net: IWNetwork, p: Partition) -> IWNetwork:
    """Collapse communities, keeping the envelope of present edges.

    Block (C, D) is [min lo, max hi] over present member edges only;
    blocks without one stay absent, so connectivity is preserved.
    """
    return _collapse(net, p, net.rows, envelope, None, _pair_interval)


def _aggregate_midpoints(net: IWNetwork, p: Partition) -> IWNetwork:
    """Collapse communities, summing ``midpoint_rows`` (no 0.0 entries) into
    degenerate weights, with ``aggregate_sum``'s bits on a degenerate network."""
    return _collapse(net, p, net.midpoint_rows(), operator.add, 0.0, lambda x: Interval(x, x))


def format_matrix(net: IWNetwork) -> list[str]:
    """Text rendering of the interval adjacency matrix.

    Up to ``DENSE_LIMIT`` vertices it is the aligned dense matrix: only
    present entries are formatted, every absent one prints as the same
    padded ``[0,0]`` cell of its column. Rows mirror columns, and a
    formatted interval is never shorter than ``[0,0]``, so a column is as
    wide as the longest of its label, ``[0,0]`` and its row's cells.

    Above the limit it is an edge list, O(n + m) characters: a header
    ``<n> vertices, <m> edges (i <= j):``, then ``label_i  label_j  [lo,hi]``
    for every present entry with i <= j in row order, self-loops included.
    """
    if net.n > DENSE_LIMIT:
        labels = net.labels
        lines = [f"{labels[i]}  {labels[j]}  {w}" for i, j, w in net.edges()]
        return [f"{net.n} vertices, {len(lines)} edges (i <= j):", *lines]
    zero = str(ZERO)
    cells = [{j: str(w) for j, w in row.items()} for row in net.rows]
    col_w = [
        max(len(lab), len(zero), *map(len, row.values()))
        for lab, row in zip(net.labels, cells)
    ]
    label_w = max((len(lab) for lab in net.labels), default=0)
    padded_zeros = [zero.ljust(w) for w in col_w]

    def line(lab: str, padded: list[str]) -> str:
        return (lab.ljust(label_w) + "  " + "  ".join(padded)).rstrip()

    # the header is one more row: column labels under an empty row label
    lines = [line("", [lab.ljust(w) for lab, w in zip(net.labels, col_w)])]
    for lab, row in zip(net.labels, cells):
        padded = padded_zeros.copy()
        for j, c in row.items():
            padded[j] = c.ljust(col_w[j])
        lines.append(line(lab, padded))
    return lines


def _checked_lines(lines: Iterable[str]) -> Iterator[str]:
    """Yield the physical lines, refusing with ParseError at its number a
    line that holds a byte that is not UTF-8 (which a path opened with
    ``errors="surrogateescape"`` reads as a lone surrogate U+DC80-U+DCFF),
    and then one that holds a NUL. csv never sees either, so the check is
    the same on every Python version."""
    for number, line in enumerate(lines, start=1):
        if not line.isascii():
            bad = next((c for c in line if "\udc80" <= c <= "\udcff"), None)
            if bad is not None:
                raise ParseError(number, f"not UTF-8: byte 0x{ord(bad) - 0xDC00:02x}")
        if "\0" in line:
            raise ParseError(number, "line contains NUL")
        yield line


def read_flow_csv(source: str | TextIO) -> list[DirectedFlowRecord]:
    """Parse an edge-list CSV with header ``src,dst,lo,hi``.

    A UTF-8 byte-order mark before the header (as spreadsheet "CSV UTF-8"
    exports write) is skipped. Malformed input raises ParseError with a
    1-based physical line number. A NUL byte and, read from a path, a byte
    that is not UTF-8 are reported at the line that holds them, also inside
    a record that spans lines (a quoted newline); any other malformed
    record at its last line. The first malformed line in file order is
    reported.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return read_flow_csv(fh)
    reader = _csv.reader(_checked_lines(source))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file, expected header src,dst,lo,hi") from None
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(1, f"expected header src,dst,lo,hi, got {','.join(header)}")
        records = []
        labels: dict[str, str] = {}  # one string object per label, shared by its records
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(reader.line_num, f"expected 4 fields, got {len(row)}")
            src, dst = row[0].strip(), row[1].strip()
            if not src or not dst:
                raise ParseError(reader.line_num, "empty vertex label")
            try:
                lo = float(row[2])
                hi = float(row[3])
            except ValueError:
                message = f"non-numeric weight in {row[2]!r},{row[3]!r}"
                raise ParseError(reader.line_num, message) from None
            if not 0.0 <= lo <= hi < math.inf:  # else say which check fails
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ParseError(reader.line_num, f"non-finite weight in {row[2]!r},{row[3]!r}")
                try:
                    DirectedFlowRecord(src, dst, lo, hi)
                except (InvalidInterval, NegativeWeight) as exc:
                    raise ParseError(reader.line_num, str(exc)) from None
            # every field is checked: build the tuple without the constructor's checks
            src, dst = labels.setdefault(src, src), labels.setdefault(dst, dst)
            records.append(tuple.__new__(DirectedFlowRecord, (src, dst, lo, hi)))
        return records
    except _csv.Error as exc:  # a field over _csv.field_size_limit()
        raise ParseError(reader.line_num, str(exc)) from None


def network_from_csv(
    source: str | TextIO,
    *,
    directed: bool = True,
    threshold: float = 0.0,
) -> IWNetwork:
    """``symmetrize(read_flow_csv(source), threshold, directed=directed)``.

    A record given twice raises ``DuplicateEdge``. Read from the path of a
    regular file, its message names the last physical line of the second
    record, found by reading the file again, on this error only. A stream,
    or a path that is not a regular file (a pipe or a FIFO), is not read
    twice, and the message carries no line.
    """
    try:
        return symmetrize(read_flow_csv(source), threshold, directed=directed)
    except DuplicateEdge as exc:
        if not (isinstance(source, str) and os.path.isfile(source)):
            raise
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = _csv.reader(fh)
            ends = [reader.line_num for row in reader if row][1:]  # each record's last line
        raise DuplicateEdge(f"line {ends[exc.index]}: {exc}", exc.index) from None
