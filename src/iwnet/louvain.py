"""Louvain driver for interval-weighted networks.

Three strategies share one greedy two-phase loop:

* ``cl`` (classic interval): gains are exact interval-modularity
  differences under pairwise-adjusted expectations, and communities
  aggregate by interval summation. The adjusted totals of a community
  are the separable T_hi - s_hi + s_lo and T_lo - s_lo + s_hi, so Q is a
  sum of per-community terms and a move is priced from the terms of the
  communities it changes. The pairwise reduced form 2(o_rs - e_rs) is
  not valid for intervals;
* ``hl`` (hybrid): gains use the reduced scalar form
  2(k_vC - s_v Sigma_tot / 2w) on the current network's midpoints, and
  communities aggregate by the min-max envelope, after which the
  modularity is recomputed (it may drop);
* ``midpoint``: the degenerate baseline, scalar gains with sum
  aggregation on the midpoint projection of the input.

Phase 1 keeps a community id per vertex, a member count per community
and, per gain kind, float sums per community, all updated in O(deg) per
move; a vertex's links come from one pass over its neighbour map, so a
sweep is O(m). Networks of a run are not re-validated; input is checked
once, at the boundary. Vertices are swept in index order and every
decision is deterministic, so identical inputs produce byte-identical
traces. ``run()`` only computes: its log is one ``Decision`` per
evaluated vertex, so a sweep of a pass is ``n`` records of that pass's
network, and it evaluates Q only after each aggregation (and for its
input when the first pass moves nothing). ``emit_trace`` renders all of
the text from the run's records: it replays each pass's decisions into
the ``Try``/``Move``/``Keep`` lines, computes the initial and each
sweep's modularity, and formats the matrices, when the log is asked for.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .errors import EmptyNetwork, InvalidInterval, IterationLimit, ZeroTotalWeight
from .frozen import Frozen
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
    "NAMES",
    "Strategy",
    "CLASSIC_INTERVAL",
    "HYBRID",
    "MIDPOINT",
    "PassRecord",
    "Decision",
    "LouvainRun",
    "run",
    "evaluate_moves",
    "emit_trace",
]

SWEEP_LIMIT = 100
NAMES = ("cl", "hl", "midpoint")  # the strategy names, as the CLI spells them


class Strategy(Frozen, fields=("name",)):
    """Pairing of a phase-1 gain evaluator with a phase-2 aggregation rule."""

    name: str

    def __init__(self, name: str):
        if name not in NAMES:
            raise ValueError(f"unknown strategy {name!r}")
        object.__setattr__(self, "name", name)

    @property
    def interval_gain(self) -> bool:
        return self.name == "cl"

    @property
    def aggregation(self) -> str:
        return "minmax" if self.name == "hl" else "sum"


CLASSIC_INTERVAL = Strategy("cl")
HYBRID = Strategy("hl")
MIDPOINT = Strategy("midpoint")


class PassRecord(NamedTuple):
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


class LouvainRun(NamedTuple):
    """Full hierarchy produced by one driver run."""

    strategy: Strategy
    network: IWNetwork
    passes: tuple[PassRecord, ...]
    final_partition: Partition  # on original vertices
    final_network: IWNetwork
    final_q: float
    final_q_norm: float  # NaN when Q_max is zero
    final_q_max: float
    # the decision log: iterations x n records per pass, in sweep order
    trace: tuple[Decision, ...]


class _PassState:
    """Membership of one optimization phase: the community id of every vertex
    (``comm_of``) and the member count of every id (``size``). A subclass
    per gain kind keeps the sums its gains are priced from, as plain
    floats; ``evaluate`` isolates a vertex, prices every candidate move and
    leaves its links in ``self.links`` for the ``place`` that must follow.

    ``level`` builds, once per network, the data its pass state and Qs read;
    ``q`` (of ascending member lists) and ``q_max`` call the modularity
    through this module's names, which tests and the benchmark wrap.
    """

    def __init__(self, net: IWNetwork, level, partition: Partition | None = None):
        self.net = net
        self.comm_of = [-1] * net.n
        k = net.n if partition is None else partition.n_communities
        self.size = [0] * k
        self._sums(level, k)
        for v, c in enumerate(range(net.n) if partition is None else partition.assignment):
            if partition is not None:
                self.links = self._links(v, c)
            self.place(v, c)

    def _leave(self, v: int) -> tuple[int, bool]:
        own = self.comm_of[v]
        self.comm_of[v] = -1
        self.size[own] -= 1
        return own, self.size[own] > 0

    def place(self, v: int, cid: int) -> None:
        self._join(v, cid)
        self.size[cid] += 1
        self.comm_of[v] = cid


class _ScalarPass(_PassState):
    """The scalar gain 2(k_vC - s_v Sigma_tot / 2w) on the midpoints of the
    pass's network (``hl``, ``midpoint``); ``tot`` holds Sigma_tot."""

    level = staticmethod(IWNetwork.midpoint_rows)
    q = staticmethod(lambda mid, comms: q_scalar_communities(mid, comms))
    q_max = staticmethod(lambda mid: q_max_scalar_communities(mid, [[r] for r in range(len(mid))]))

    def _sums(self, mid: list[dict[int, float]], k: int) -> None:
        self.neigh = mid
        self.s = [seq_sum(row.values()) for row in mid]
        self.two_w = seq_sum(self.s)
        self.tot = [0.0] * k

    def _links(self, v: int, own: int) -> dict[int, float]:
        """Weight from v into each community of its neighbours, keyed in
        first-neighbour (candidate) order; a self-loop keys ``own`` only."""
        comm_of = self.comm_of
        links: dict[int, float] = {}
        for u, w in self.neigh[v].items():
            if u == v:
                links.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                links[c] = links.get(c, 0.0) + w
        return links

    def evaluate(self, v: int) -> tuple[int, tuple[int, ...], dict[int, float], float]:
        """(own community, candidates in first-neighbour order, their gains, gain of going home)."""
        own, home = self._leave(v)
        links = self._links(v, own)
        s_v, tot, two_w = self.s[v], self.tot, self.two_w
        # an emptied community drops the rounding residue of the removals; its
        # total is then 0.0, so re-entering it gains exactly 0.0
        tot[own] = tot[own] - s_v if home else 0.0
        gains = {c: 2.0 * (k - s_v * tot[c] / two_w) for c, k in links.items()}
        return own, tuple(links), gains, 2.0 * (links.get(own, 0.0) - s_v * tot[own] / two_w)

    def _join(self, v: int, cid: int) -> None:
        self.tot[cid] += self.s[v]


def _cl_term(o_lo, o_hi, s_lo, s_hi, n_lo, n_hi, t_lo, t_hi) -> float:
    """D(o_rr, e_rr) of one community from its summary and the network totals.

    The adjusted expected block depends only on the community's own
    strength and the totals, which no move changes, so Q_cl is the sum of
    this term over the communities. An endpoint with no positive member
    (count n_lo / n_hi) is 0, whatever residue its strength sum carries.
    """
    e_lo, e_hi = expected_diag_adjusted(s_lo if n_lo else 0.0, s_hi if n_hi else 0.0, t_lo, t_hi)
    return dominant_diff(o_lo - e_lo, o_hi - e_hi)


class _IntervalPass(_PassState):
    """The exact interval gain D(C + v) - D(C) - D({v}) (``cl``).

    ``cols`` holds the flat lists o_lo, o_hi, s_lo, s_hi, n_lo, n_hi of
    every community: observed diagonal block, strength, and how many
    members have a positive lower / upper strength (the counts make the
    zero tests exact). ``d`` caches each community's term; ``vsum`` and
    ``vterm`` hold the same of every vertex as the singleton it would form.
    """

    level = staticmethod(lambda net: net)
    q = staticmethod(lambda net, comms: q_interval_communities(net, comms))
    q_max = staticmethod(lambda net: q_max_interval_adjusted(net, Partition.singletons(net.n)))

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.vsum = []
        for v, row in enumerate(net.rows):
            loop = row.get(v, ZERO)
            s_lo = seq_sum(w.lo for w in row.values())
            s_hi = seq_sum(w.hi for w in row.values())
            self.vsum.append((loop.lo, loop.hi, s_lo, s_hi, int(s_lo > 0.0), int(s_hi > 0.0)))
        self.totals = tuple(seq_sum(x[j] for x in self.vsum) for j in (2, 3))
        self.vterm = [_cl_term(*x, *self.totals) for x in self.vsum]
        self.cols = tuple([0.0] * k for _ in range(6))
        self.d = [0.0] * k
        self.links = ({}, {})  # as singletons no vertex links into the community it enters

    def _links(self, v: int, own: int) -> tuple[dict[int, float], dict[int, float]]:
        """Lower and upper link weights, keyed as in ``_ScalarPass._links``."""
        comm_of = self.comm_of
        k_lo, k_hi = {}, {}
        for u, w in self.net.rows[v].items():
            if u == v:
                k_lo.setdefault(own, 0.0)
                k_hi.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                k_lo[c] = k_lo.get(c, 0.0) + w.lo
                k_hi[c] = k_hi.get(c, 0.0) + w.hi
        return k_lo, k_hi

    def _join(self, v: int, c: int, sign: int = 1) -> None:
        """v joins (sign 1) or leaves (sign -1) community c over ``self.links``."""
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        o_lo[c] += sign * (2.0 * self.links[0].get(c, 0.0) + x_olo)
        o_hi[c] += sign * (2.0 * self.links[1].get(c, 0.0) + x_ohi)
        s_lo[c] += sign * x_slo
        s_hi[c] += sign * x_shi
        n_lo[c] += sign * x_nlo
        n_hi[c] += sign * x_nhi
        self.d[c] = _cl_term(o_lo[c], o_hi[c], s_lo[c], s_hi[c], n_lo[c], n_hi[c], *self.totals)

    def evaluate(self, v: int) -> tuple[int, tuple[int, ...], dict[int, float], float]:
        """As ``_ScalarPass.evaluate``."""
        own, home = self._leave(v)
        k_lo, k_hi = self.links = self._links(v, own)
        if home:
            self._join(v, own, -1)
        else:  # drop the rounding residue of the removals
            for col in (*self.cols, self.d):
                col[own] = 0.0
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        d, q_v, (t_lo, t_hi) = self.d, self.vterm[v], self.totals

        def gain(c: int, kl: float, kh: float) -> float:
            return _cl_term(
                o_lo[c] + (2.0 * kl + x_olo), o_hi[c] + (2.0 * kh + x_ohi),
                s_lo[c] + x_slo, s_hi[c] + x_shi, n_lo[c] + x_nlo, n_hi[c] + x_nhi, t_lo, t_hi,
            ) - d[c] - q_v

        gains = {c: gain(c, kl, k_hi[c]) for c, kl in k_lo.items()}
        if not home:  # re-entering an emptied community is a no-op
            if own in gains:
                gains[own] = 0.0
            return own, tuple(k_lo), gains, 0.0
        return own, tuple(k_lo), gains, gains[own] if own in gains else gain(own, 0.0, 0.0)


def _decide(own: int, gains: dict[int, float], gain_own: float) -> int | None:
    """Target community for a strictly improving move, else None (keep).

    A move needs a strictly positive gain that strictly beats returning to
    the former community; gain ties among candidates go to the smallest
    community id, and a tie with the former community keeps the vertex.
    """
    best_c, best_gain = None, 0.0
    for c, g in gains.items():
        if c != own and g > 0.0 and g > gain_own:
            if best_c is None or g > best_gain or (g == best_gain and c < best_c):
                best_c, best_gain = c, g
    return best_c


def _fmt_gain(gain: float) -> str:
    mark = "0" if gain == 0.0 else "+" if gain > 0.0 else "-"
    return f"gain={'-' if gain < 0.0 else '+'}{abs(gain):.3f} ({mark})"


def _optimize(state: _PassState, log: list[Decision]) -> tuple[int, bool]:
    """Phase 1: greedy sweeps until one completes without a move.

    Returns (sweeps performed, whether any move happened).
    """
    for iterations in range(1, SWEEP_LIMIT + 1):
        moves = 0
        for v in range(state.net.n):
            own, cand_ids, gains, gain_own = state.evaluate(v)
            target = _decide(own, gains, gain_own)
            state.place(v, own if target is None else target)
            log.append(Decision(v, own, cand_ids, tuple(gains.values()), target))
            moves += target is not None
        if not moves:  # every sweep before this one moved a vertex
            return iterations, iterations > 1
    raise IterationLimit(f"no convergence after {SWEEP_LIMIT} sweeps")


def _work(net: IWNetwork, strategy: Strategy) -> IWNetwork:
    """The input of the first pass: ``net``, or for ``midpoint`` its
    degenerate projection."""
    if strategy.name != "midpoint":
        return net
    # a midpoint can round to 0.0 only on a subnormal edge, which then drops out
    rows = tuple(
        {j: Interval(m, m) for j, m in row.items() if m} for row in net.midpoint_rows()
    )
    return IWNetwork._trusted(net.labels, rows)


def _kind(strategy: Strategy) -> type[_IntervalPass] | type[_ScalarPass]:
    return _IntervalPass if strategy.interval_gain else _ScalarPass


def run(net: IWNetwork, strategy: Strategy | str = CLASSIC_INTERVAL) -> LouvainRun:
    """Run the Louvain hierarchy to convergence.

    One pass = greedy vertex sweeps (phase 1) followed by aggregation
    (phase 2); the run ends when a pass moves nothing. The terminal
    no-change pass is recorded alongside the productive passes.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if net.n == 0:
        raise EmptyNetwork("cannot run on an empty network")
    t_hi = seq_sum(w.hi for row in net.rows for w in row.values())
    if not math.isfinite(t_hi):
        net.total_weight()  # raises InvalidInterval at the first partial sum that overflows
    if t_hi <= 0:
        raise ZeroTotalWeight("network has no weight")
    # every track multiplies two strengths, each at most the total: the
    # scalar gains and Q, and the adjusted expectations of cl
    if not math.isfinite(t_hi * t_hi):
        raise InvalidInterval(f"total weight {t_hi!r} overflows when squared")

    kind = _kind(strategy)
    cur = _work(net, strategy)
    level = kind.level(cur)
    log: list[Decision] = []
    passes: list[PassRecord] = []
    while True:
        state = kind(cur, level)
        iterations, any_move = _optimize(state, log)
        p = Partition(state.comm_of)  # ids renumbered by first appearance; singletons if no move
        if not any_move:
            # Q of cur as singletons: the last aggregate's, or the input's
            q = passes[-1].modularity if passes else kind.q(level, [[r] for r in range(cur.n)])
            passes.append(PassRecord(len(passes) + 1, iterations, p, q, cur, False))
            break
        agg = (aggregate_minmax if strategy.aggregation == "minmax" else aggregate_sum)(cur, p)
        level = kind.level(agg)
        q = kind.q(level, [[r] for r in range(agg.n)])
        passes.append(PassRecord(len(passes) + 1, iterations, p, q, agg, True))
        # a move only joins a neighbour's non-empty community, so the first move
        # empties a singleton for good: agg.n < cur.n and the loop terminates
        cur = agg

    final = passes[0].partition
    for rec in passes[1:]:
        final = final.compose(rec.partition.assignment)
    final_q = passes[-1].modularity
    q_max = kind.q_max(level)
    q_norm = final_q / q_max if q_max != 0.0 else math.nan
    return LouvainRun(strategy, net, tuple(passes), final, cur, final_q, q_norm, q_max, tuple(log))


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
    if len(p.assignment) != net.n:
        raise ValueError(f"partition has {len(p.assignment)} entries, network has {net.n} vertices")
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} is not in range({net.n})")
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    kind = _kind(strategy)
    state = kind(net, kind.level(net), partition=p)
    own, cand_ids, gains, _ = state.evaluate(vertex)
    state.place(vertex, own)
    return [(c, gains[c]) for c in cand_ids]


class _Replay:
    """Community labels of one pass, rebuilt from its decision records.

    Membership starts as singletons of the pass's input network; each
    community's label is cached until its membership changes.
    """

    def __init__(self, net: IWNetwork, kind: type[_IntervalPass] | type[_ScalarPass]):
        self.level = kind.level(net)
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

    Every line comes from the run's records. Pass k replays its
    ``iterations x n`` decisions on its input network (the first pass's
    input from ``_work``, then the previous pass's aggregate); the initial
    and each sweep's modularity are computed here.
    """
    kind = _kind(run.strategy)
    cur = _work(run.network, run.strategy)
    replay = _Replay(cur, kind)
    lines = ["Initial Interval-Weighted Network:", *format_matrix(cur), ""]
    lines.append(f"* Initial Modularity={kind.q(replay.level, replay.members):.3f}")
    decisions = iter(run.trace)
    for rec in run.passes:
        lines.append(f"* Begin Pass number {rec.number}")
        for sweep in range(1, rec.iterations + 1):
            for d in itertools.islice(decisions, cur.n):
                replay.render(d, lines)
            q = kind.q(replay.level, [m for m in replay.members if m])
            lines.append(f"Iteration {sweep} Modularity={q:.3f}")
        if not rec.changed:
            lines.append(f"* End Pass number {rec.number} -- no change")
            continue
        cur = rec.aggregated
        replay = _Replay(cur, kind)
        communities = " / ".join(cur.labels)
        lines += ["", "New network: ---------------", *format_matrix(cur)]
        lines.append(
            f"* End Pass number {rec.number} Modularity={rec.modularity:.3f} Communities={communities}"
        )
        lines.append("---------------------------")
    final = run.final_network
    prefix = "Hybrid - Before Normalized" if run.strategy.name == "hl" else "Before Normalized"
    lines += [
        "",
        f"* Final communities: {' / '.join(final.labels)} (n={final.n})",
        f"* {prefix}: {run.final_q:.3f}",
        f"* Normalized modularity: {run.final_q_norm:.3f} (Qmax={run.final_q_max:.6f})",
        "---------------------------",
        "Final Interval-weighted network:",
        "",
        *format_matrix(final),
    ]
    return "\n".join(lines) + "\n"
