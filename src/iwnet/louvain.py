"""Louvain driver for interval-weighted networks.

Three strategies share one greedy two-phase loop:

* ``classic-interval`` (CL): gains are exact interval-modularity
  differences under pairwise-adjusted expectations, and communities
  aggregate by interval summation. The adjusted totals of a community
  are the separable T_hi - s_hi + s_lo and T_lo - s_lo + s_hi, so Q is a
  sum of per-community terms and a move is priced from the terms of the
  communities it changes. The pairwise reduced form 2(o_rs - e_rs) is
  not valid for intervals;
* ``hybrid`` (HL): gains use the reduced scalar form
  2(k_vC - s_v Sigma_tot / 2w) on the current network's midpoints, and
  communities aggregate by the min-max envelope, after which the
  modularity is recomputed (it may drop);
* ``midpoint``: the degenerate baseline, scalar gains with sum
  aggregation on the midpoint projection of the input.

Per-community sums are updated in O(deg) per move and a vertex's links
come from one pass over its neighbour map, so a sweep is O(m). Vertices
are swept in index order and every decision is deterministic, so
identical inputs produce byte-identical traces. Phase 1 only does
arithmetic: it logs one ``Decision`` per evaluated vertex and one
``Iteration`` per sweep, and ``emit_trace`` replays them into the
``Try``/``Move``/``Keep`` lines, each sweep's modularity and the
matrices when the log is asked for.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

from .errors import EmptyNetwork, IterationLimit, ZeroTotalWeight
from .interval import Interval, ZERO, dominant_diff, seq_sum
from .modularity import (
    expected_diag_adjusted,
    q_interval_communities,
    q_max_interval_adjusted,
    q_max_scalar_communities,
    q_scalar_communities,
)
from .network import IWNetwork, aggregate_minmax, aggregate_sum, format_matrix
from .partition import Partition

__all__ = [
    "Strategy",
    "CLASSIC_INTERVAL",
    "HYBRID",
    "MIDPOINT",
    "PassRecord",
    "Decision",
    "Iteration",
    "LouvainRun",
    "run",
    "evaluate_moves",
    "compose_partitions",
    "emit_trace",
]

SWEEP_LIMIT = 100


@dataclass(frozen=True)
class Strategy:
    """Pairing of a phase-1 gain evaluator with a phase-2 aggregation rule."""

    name: str

    _NAMES: ClassVar[dict[str, str]] = {
        "cl": "classic-interval",
        "classic-interval": "classic-interval",
        "hl": "hybrid",
        "hybrid": "hybrid",
        "midpoint": "midpoint",
    }

    def __post_init__(self):
        if self.name not in ("classic-interval", "hybrid", "midpoint"):
            raise ValueError(f"unknown strategy {self.name!r}")

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        try:
            return cls(cls._NAMES[name])
        except KeyError:
            raise ValueError(f"unknown strategy {name!r}") from None

    @property
    def interval_gain(self) -> bool:
        return self.name == "classic-interval"

    @property
    def aggregation(self) -> str:
        return "minmax" if self.name == "hybrid" else "sum"


CLASSIC_INTERVAL = Strategy("classic-interval")
HYBRID = Strategy("hybrid")
MIDPOINT = Strategy("midpoint")


@dataclass(frozen=True)
class PassRecord:
    """Outcome of one optimization+aggregation pass."""

    number: int
    iterations: int
    partition: Partition  # partition of the pass's input network
    modularity: float  # reported at pass end (post-aggregation for hybrid)
    aggregated: IWNetwork  # input network itself for a no-change pass
    changed: bool


class Decision(NamedTuple):
    """One phase-1 evaluation of a vertex, in the ids of its pass's network."""

    vertex: int
    own: int  # community of the vertex before the evaluation
    candidates: tuple[int, ...]  # candidate communities in scan order
    gains: tuple[float, ...]  # gain of each candidate
    target: int | None  # community moved to, None for a keep


class Iteration(NamedTuple):
    """End of a phase-1 sweep; emit_trace prints the modularity it reached."""

    number: int


LogItem = str | IWNetwork | Decision | Iteration  # one entry of LouvainRun.trace

@dataclass(frozen=True)
class LouvainRun:
    """Full hierarchy produced by one driver run."""

    strategy: Strategy
    network: IWNetwork
    passes: tuple[PassRecord, ...]
    final_partition: Partition  # on original vertices
    final_network: IWNetwork
    final_q: float
    final_q_norm: float  # NaN when Q_max is zero
    final_q_max: float
    # the decision log: text lines, each network whose matrix the log shows
    # (it also starts the replay of the records that follow it), the
    # decision records and the sweep ends; emit_trace renders it
    trace: tuple[LogItem, ...]


_NO_LINK = (0.0, 0.0)
_EMPTY = (0.0, 0.0, 0.0, 0.0, 0, 0)


def _shifted(c: tuple, x: tuple, k: tuple[float, float], sign: int) -> tuple:
    """Summary of community c after vertex x joins (sign 1) or leaves (sign -1)
    it; k is the link weight between them."""
    return (
        c[0] + sign * (2.0 * k[0] + x[0]),
        c[1] + sign * (2.0 * k[1] + x[1]),
        *(a + sign * b for a, b in zip(c[2:], x[2:])),
    )


class _PassState:
    """Mutable community bookkeeping for one optimization phase.

    ``neigh`` holds the interval weights for the interval gain and the
    midpoints for the scalar gain, under which a community keeps its
    strength total Sigma_tot in ``tot``. For the interval gain every
    community (and every vertex, as the singleton it would form) is
    summarized as ``(o_lo, o_hi, s_lo, s_hi, n_lo, n_hi)``: its observed
    diagonal block, its strength, and how many members have a positive
    lower / upper strength. The counts make the zero tests exact,
    whatever rounding the incremental strength sums carry.
    """

    def __init__(self, net: IWNetwork, strategy: Strategy, partition: Partition | None = None):
        self.net = net
        self.strategy = strategy
        n = net.n
        if partition is None:
            partition = Partition.singletons(n)
        k = partition.n_communities
        if strategy.interval_gain:
            self.neigh = net.rows
            self.vsum = [self._vertex_summary(v) for v in range(n)]
            self.totals = tuple(seq_sum(x[j] for x in self.vsum) for j in (2, 3))
            self.csum = [_EMPTY] * k
        else:
            self.neigh = net.midpoint_rows()
            self.s = [seq_sum(row.values()) for row in self.neigh]
            self.two_w = seq_sum(self.s)
            self.tot = [0.0] * k
        self.comm_of = [-1] * n
        self.members: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(partition.assignment):
            self.place(v, c)

    def _vertex_summary(self, v: int) -> tuple:
        s = self.net.strength(v)
        loop = self.neigh[v].get(v, ZERO)
        return (loop.lo, loop.hi, s.lo, s.hi, int(s.lo > 0.0), int(s.hi > 0.0))

    def _links(self, v: int, own: int) -> dict:
        """Weight from v into each community of its neighbours, keyed in
        first-neighbour (candidate) order; a self-loop keys ``own`` only."""
        interval = self.strategy.interval_gain
        zero = _NO_LINK if interval else 0.0
        links: dict = {}
        for u, w in self.neigh[v].items():
            if u == v:
                links.setdefault(own, zero)
            else:
                c = self.comm_of[u]
                k = links.get(c, zero)
                links[c] = (k[0] + w.lo, k[1] + w.hi) if interval else k + w
        return links

    def _term(self, c: tuple) -> float:
        """D(o_rr, e_rr) of one community given its summary.

        The adjusted expected block depends only on the community's own
        strength and the network totals, which no move changes, so Q_cl is
        the sum of this term over the communities.
        """
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = c
        # an endpoint with no positive member is 0, whatever residue it carries
        e_lo, e_hi = expected_diag_adjusted(
            s_lo if n_lo else 0.0, s_hi if n_hi else 0.0, *self.totals
        )
        return dominant_diff(o_lo - e_lo, o_hi - e_hi)

    def comms(self) -> list[list[int]]:
        return [m for m in self.members if m]

    def _scalar_pricer(self, v: int, own: int, links: dict):
        """Take v out of its community's strength total and return the gain
        function, the reduced form 2(k_vC - s_v Sigma_tot / 2w)."""
        s_v = self.s[v]
        # an emptied community drops the rounding residue of the removals
        self.tot[own] = self.tot[own] - s_v if self.members[own] else 0.0

        def gain(cid: int) -> float:
            return 2.0 * (links.get(cid, 0.0) - s_v * self.tot[cid] / self.two_w)

        return gain

    def _interval_pricer(self, v: int, own: int, links: dict):
        """Take v out of its community's summary and return the gain function.

        The gain of the isolated v joining C is D(C + v) - D(C) - D({v}):
        only the terms of the communities that change move.
        """
        x = self.vsum[v]
        if self.members[own]:
            self.csum[own] = _shifted(self.csum[own], x, links.get(own, _NO_LINK), -1)
        else:
            self.csum[own] = _EMPTY  # drop the rounding residue of the removals
        q_v = self._term(x)

        def gain(cid: int) -> float:
            c = self.csum[cid]
            return self._term(_shifted(c, x, links.get(cid, _NO_LINK), 1)) - self._term(c) - q_v

        return gain

    def evaluate(self, v: int) -> tuple[int, list[int], dict[int, float], float]:
        """Isolate v and price every candidate move.

        Returns (own community id, candidate ids in first-neighbor-appearance
        order, gains in that order, gain of returning home). The caller must
        place v afterwards via ``place``.
        """
        own = self.comm_of[v]
        self.members[own].remove(v)
        self.comm_of[v] = -1
        links = self._links(v, own)
        pricer = self._interval_pricer if self.strategy.interval_gain else self._scalar_pricer
        gain = pricer(v, own, links)
        gains: dict[int, float] = {}
        for c in links:
            # re-entering an emptied community is a no-op
            gains[c] = 0.0 if c == own and not self.members[own] else gain(c)
        gain_own = gains[own] if own in gains else gain(own) if self.members[own] else 0.0
        return own, list(links), gains, gain_own

    def place(self, v: int, cid: int) -> None:
        if self.strategy.interval_gain:
            link = self._links(v, cid).get(cid, _NO_LINK)
            self.csum[cid] = _shifted(self.csum[cid], self.vsum[v], link, 1)
        else:
            self.tot[cid] += self.s[v]
        bisect.insort(self.members[cid], v)
        self.comm_of[v] = cid


def _decide(own: int, cand_ids: Sequence[int], gains: dict[int, float], gain_own: float) -> int | None:
    """Target community for a strictly improving move, else None (keep).

    A move needs a strictly positive gain that strictly beats returning to
    the former community; gain ties among candidates go to the smallest
    community id, and a tie with the former community keeps the vertex.
    """
    best_c = None
    best_gain = 0.0
    for c in sorted(cand_ids):
        if c == own:
            continue
        g = gains[c]
        if g > 0.0 and g > gain_own and (best_c is None or g > best_gain):
            best_c = c
            best_gain = g
    return best_c


def _fmt_gain(gain: float) -> str:
    if gain == 0.0:
        mark = "0"
    elif gain > 0.0:
        mark = "+"
    else:
        mark = "-"
    sign = "-" if gain < 0.0 else "+"
    return f"gain={sign}{abs(gain):.3f} ({mark})"


def _optimize(state: _PassState, log: list[LogItem]) -> tuple[int, bool]:
    """Phase 1: greedy sweeps until one completes without a move.

    Returns (sweeps performed, whether any move happened).
    """
    n = state.net.n
    iterations = 0
    any_move = False
    for _ in range(SWEEP_LIMIT):
        sweep_moved = False
        for v in range(n):
            own, cand_ids, gains, gain_own = state.evaluate(v)
            target = _decide(own, cand_ids, gains, gain_own)
            state.place(v, own if target is None else target)
            log.append(Decision(v, own, tuple(cand_ids), tuple(gains.values()), target))
            if target is not None:
                sweep_moved = True
                any_move = True
        iterations += 1
        log.append(Iteration(iterations))
        if not sweep_moved:
            return iterations, any_move
    raise IterationLimit(f"no convergence after {SWEEP_LIMIT} sweeps")


def _degenerate_projection(net: IWNetwork) -> IWNetwork:
    # a midpoint can round to 0.0 only on a subnormal edge, which then drops out
    rows = tuple(
        {j: Interval(m, m) for j, m in row.items() if m} for row in net.midpoint_rows()
    )
    return IWNetwork(net.labels, rows)


def _q(strategy: Strategy, net: IWNetwork, comms: Sequence[Sequence[int]]) -> float:
    """Modularity of ascending member lists in the metric of the strategy's gains."""
    if strategy.interval_gain:
        return q_interval_communities(net, comms)
    return q_scalar_communities(net.midpoint_rows(), comms)

def _q_max(strategy: Strategy, net: IWNetwork) -> float:
    if strategy.interval_gain:
        return q_max_interval_adjusted(net, Partition.singletons(net.n))
    return q_max_scalar_communities(net.midpoint_rows(), [[r] for r in range(net.n)])


def run(net: IWNetwork, strategy: Strategy | str = CLASSIC_INTERVAL) -> LouvainRun:
    """Run the Louvain hierarchy to convergence.

    One pass = greedy vertex sweeps (phase 1) followed by aggregation
    (phase 2); the run ends when a pass moves nothing. The terminal
    no-change pass is recorded alongside the productive passes.
    """
    if isinstance(strategy, str):
        strategy = Strategy.from_name(strategy)
    if net.n == 0:
        raise EmptyNetwork("cannot run on an empty network")
    if net.total_weight().hi <= 0:
        raise ZeroTotalWeight("network has no weight")

    work = _degenerate_projection(net) if strategy.name == "midpoint" else net
    log: list[LogItem] = ["Initial Interval-Weighted Network:", work, ""]
    # modularity of the current pass's input, as singletons
    pass_q = _q(strategy, work, [[r] for r in range(work.n)])
    log.append(f"* Initial Modularity={pass_q:.3f}")

    passes: list[PassRecord] = []
    cur = work
    pass_no = 0
    while True:
        pass_no += 1
        log.append(f"* Begin Pass number {pass_no}")
        state = _PassState(cur, strategy)
        iterations, any_move = _optimize(state, log)
        if not any_move:
            log.append(f"* End Pass number {pass_no} -- no change")
            passes.append(
                PassRecord(
                    pass_no, iterations, Partition.singletons(cur.n), pass_q, cur, False
                )
            )
            break
        p = Partition.from_communities(state.comms(), cur.n)
        if strategy.aggregation == "minmax":
            agg = aggregate_minmax(cur, p)
        else:
            agg = aggregate_sum(cur, p)
        pass_q = _q(strategy, agg, [[r] for r in range(agg.n)])
        log.append("")
        log.append("New network: ---------------")
        log.append(agg)
        log.append(
            f"* End Pass number {pass_no} Modularity={pass_q:.3f} "
            f"Communities={' / '.join(agg.labels)}"
        )
        log.append("---------------------------")
        passes.append(PassRecord(pass_no, iterations, p, pass_q, agg, True))
        # a move only joins a neighbour's non-empty community, so the first move
        # empties a singleton for good: agg.n < cur.n and the loop terminates
        cur = agg

    final_q = passes[-1].modularity
    q_max = _q_max(strategy, cur)
    q_norm = final_q / q_max if q_max != 0.0 else math.nan
    final_partition = _compose(passes)

    log.append("")
    log.append(f"* Final communities: {' / '.join(cur.labels)} (n={cur.n})")
    prefix = "Hybrid - Before Normalized" if strategy.name == "hybrid" else "Before Normalized"
    log.append(f"* {prefix}: {final_q:.3f}")
    log.append(f"* Normalized modularity: {q_norm:.3f} (Qmax={q_max:.6f})")
    log.append("---------------------------")
    log.append("Final Interval-weighted network:")
    log.append("")
    log.append(cur)

    return LouvainRun(
        strategy=strategy,
        network=net,
        passes=tuple(passes),
        final_partition=final_partition,
        final_network=cur,
        final_q=final_q,
        final_q_norm=q_norm,
        final_q_max=q_max,
        trace=tuple(log),
    )


def evaluate_moves(
    net: IWNetwork,
    p: Partition,
    vertex: int,
    strategy: Strategy | str = CLASSIC_INTERVAL,
) -> list[tuple[int, float]]:
    """Candidate (community id, gain) list for moving one vertex.

    Candidates are the communities of the vertex's topological neighbors,
    in first-appearance order along the neighbor scan; the vertex is
    isolated from its own community for the evaluation and put back
    afterwards.
    """
    if isinstance(strategy, str):
        strategy = Strategy.from_name(strategy)
    state = _PassState(net, strategy, partition=p)
    own, cand_ids, gains, _ = state.evaluate(vertex)
    state.place(vertex, own)
    return [(c, gains[c]) for c in cand_ids]


def _compose(passes: Sequence[PassRecord]) -> Partition:
    p = passes[0].partition
    for rec in passes[1:]:
        p = p.compose(rec.partition.assignment)
    return p


def compose_partitions(run: LouvainRun) -> Partition:
    """Final communities expressed on the original vertices."""
    return _compose(run.passes)


class _Replay:
    """Community labels of one pass, rebuilt from its decision records.

    Membership starts as singletons of the pass's input network; each
    community's label is cached until its membership changes.
    """

    def __init__(self, net: IWNetwork):
        self.net = net
        self.labels = net.labels
        self.members = [[v] for v in range(net.n)]
        self.cached: dict[int, str] = {}

    def label(self, cid: int) -> str:
        if cid not in self.cached:
            self.cached[cid] = ",".join(self.labels[v] for v in self.members[cid])
        return self.cached[cid]

    def render(self, d: Decision, lines: list[str]) -> None:
        """Append the Try/Move/Keep lines of d and apply its move.

        A vertex is isolated while its candidates are priced, so no
        candidate other than its own community contains it.
        """
        v, own = d.vertex, d.own
        vlabel = self.labels[v]
        # labels name the communities as they were before v left
        own_label = self.label(own)
        for c, g in zip(d.candidates, d.gains):
            clabel = own_label if c == own else self.label(c)
            lines.append(f"\tTry {vlabel} -> {clabel:<15} | {_fmt_gain(g)}")
        if d.target is None:
            lines.append(f"\tKeep vertex {vlabel} at community {own_label}")
        else:
            lines.append(f"\tMove {vlabel} -> {self.label(d.target)}")
            self.members[own].remove(v)
            bisect.insort(self.members[d.target], v)
            del self.cached[own], self.cached[d.target]


def emit_trace(run: LouvainRun) -> str:
    """Human-readable log of the whole run (one string, newline-joined).

    Each network in the log is the input of the records that follow it,
    up to the next network; the modularity of each sweep is computed here.
    """
    lines: list[str] = []
    replay: _Replay | None = None  # the log opens with a network, before any decision
    for item in run.trace:
        if isinstance(item, Decision):
            replay.render(item, lines)
        elif isinstance(item, Iteration):
            q = _q(run.strategy, replay.net, [m for m in replay.members if m])
            lines.append(f"Iteration {item.number} Modularity={q:.3f}")
        elif isinstance(item, IWNetwork):
            lines += format_matrix(item)
            replay = _Replay(item)
        else:
            lines.append(item)
    return "\n".join(lines) + "\n"
