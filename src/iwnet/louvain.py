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
move. The pass state of each gain kind evaluates a vertex in one method,
``step``: one pass over its neighbour map gives its links, and one loop
over the candidates prices them and applies the tie rule, so a sweep is
O(m) with one call per vertex. Networks of a run are not re-validated;
input is checked once, at the boundary. Vertices are swept in index
order and every decision is deterministic, so identical inputs produce
byte-identical traces. ``run()`` only computes: its log is one ``Decision`` per
evaluated vertex, so a sweep of a pass is ``n`` records of that pass's
network. The pass state owns its network's modularity: its per-vertex
sums (``modularity.ScalarSums`` / ``IntervalSums``) give the Q of the
network under singletons and its Q_max, so ``run()`` reads each pass's Q
from the state it builds for the next level and Q_max from the last one,
and collapses no partition to evaluate them. ``emit_trace`` renders all
of the text from the run's records: it replays each pass's decisions
into the ``Try``/``Move``/``Keep`` lines, computes the initial and each
sweep's modularity with the partition-level functions, and formats the
matrices, when the log is asked for.
The lines come from one generator, ``_trace_lines``: ``emit_trace``
joins them into one string for library callers, and the CLI writes them
in batches as they are rendered. A matrix is rendered by
``format_matrix``, densely up to ``network.DENSE_LIMIT`` vertices and as
an edge list above, so no matrix of the trace is larger than O(n + m).

A move must beat returning to the vertex's former community by more
than a tolerance (``TIE_ULPS`` ulps of the largest operand of the two
gains, see ``_PassState``): gains closer than that count as ties,
which keep the vertex, so a vertex does not swap between two
communities on gains a few ulps apart. The tolerance is a heuristic,
not a bound on the rounding: a link sum over many neighbours or a
community total after many moves can round by more, and then
``SWEEP_LIMIT`` is still what ends phase 1.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator, NamedTuple

from .errors import EmptyNetwork, InvalidInterval, IterationLimit, ZeroTotalWeight
from .frozen import Frozen
from .interval import Interval, seq_sum
from .modularity import (
    IntervalSums,
    ScalarSums,
    cl_term,
    q_interval_communities,
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
# a move must beat going home by more than this many ulps of the largest
# operand of the two gains (see ``_PassState``). A heuristic: 1 ends
# the known swap and 2 passes the exact re-pricing tests; 64 also covers a
# link sum over up to about 128 neighbours (each addition rounds by at most
# half an ulp of s_v), is at most 1.4e-14 of s_v, and changes no pinned trace
TIE_ULPS = 64
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
    floats, and evaluates one vertex in ``step(v)``: it isolates v, reads
    v's links from one pass over its row, prices every candidate and
    applies the tie rule in one loop over them, places v and returns the
    ``Decision``.

    A move needs a strictly positive gain that beats returning to the
    former community by more than a tolerance of ``TIE_ULPS`` ulps of the
    kind's largest operand: gains closer than that count as equal, since
    a vertex that took either could swap between two communities on gains
    that differ only by rounding. The tolerance is a heuristic (see
    ``TIE_ULPS``); ``SWEEP_LIMIT`` ends phase 1 where it falls short.
    Gain ties among candidates go to the smallest community id, and a tie
    with the former community keeps the vertex.

    ``level`` gives the rows of a network that the gains and the modularity
    of its kind read; ``sums`` holds their per-vertex sums, from which the
    network's Q as singletons (``sums.q()``) and its Q_max are read. The
    membership starts as singletons, or as ``partition`` for
    ``evaluate_moves``.
    """

    def __init__(self, net: IWNetwork, partition: Partition | None = None):
        self.net = net
        self.comm_of = list(range(net.n) if partition is None else partition.assignment)
        k = net.n if partition is None else partition.n_communities
        self.size = [0] * k
        for c in self.comm_of:
            self.size[c] += 1
        self._sums(self.level(net), k)


class _ScalarPass(_PassState):
    """The scalar gain 2(k_vC - s_v Sigma_tot / 2w) on the midpoints of the
    pass's network (``hl``, ``midpoint``); ``tot`` holds Sigma_tot."""

    level = staticmethod(IWNetwork.midpoint_rows)

    def _sums(self, mid: list[dict[int, float]], k: int) -> None:
        self.sums = ScalarSums(mid)
        self.neigh, self.s, self.two_w = mid, self.sums.s, self.sums.two_w
        self.tot = [0.0] * k
        for v, c in enumerate(self.comm_of):
            self.tot[c] += self.s[v]

    def step(self, v: int) -> Decision:
        """Evaluate and place v. Its links are keyed in first-neighbour
        (candidate) order, and a self-loop keys ``own`` only; the tolerance
        is ``TIE_ULPS`` ulps of s_v, since the link weights and
        s_v Sigma_tot / 2w of both gains are at most s_v."""
        comm_of, tot, size = self.comm_of, self.tot, self.size
        own = comm_of[v]
        size[own] -= 1
        links: dict[int, float] = {}
        for u, w in self.neigh[v].items():
            if u == v:
                links.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                links[c] = links.get(c, 0.0) + w
        s_v, two_w = self.s[v], self.two_w
        # an emptied community drops the rounding residue of the removals; its
        # total is then 0.0, so re-entering it gains exactly 0.0
        tot[own] = tot[own] - s_v if size[own] else 0.0
        gain_own = 2.0 * (links.get(own, 0.0) - s_v * tot[own] / two_w)
        gains = []
        target, best = own, 0.0
        for c, k in links.items():
            if c == own:
                g = gain_own
            else:
                g = 2.0 * (k - s_v * tot[c] / two_w)
                if (
                    g > 0.0 and g > gain_own and g - gain_own > TIE_ULPS * math.ulp(s_v)
                    and (target == own or g > best or (g == best and c < target))
                ):
                    target, best = c, g
            gains.append(g)
        tot[target] += s_v
        size[target] += 1
        comm_of[v] = target
        return Decision(v, own, tuple(links), tuple(gains), None if target == own else target)


class _IntervalPass(_PassState):
    """The exact interval gain D(C + v) - D(C) - D({v}) (``cl``).

    ``cols`` holds the flat lists o_lo, o_hi, s_lo, s_hi, n_lo, n_hi of
    every community: observed diagonal block, strength, and how many
    members have a positive lower / upper strength (the counts make the
    zero tests exact). ``d`` caches each community's ``cl_term``; ``vsum``
    and ``vterm`` hold the same of every vertex as the singleton it would
    form (``IntervalSums``).
    """

    level = staticmethod(lambda net: net)

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.sums = IntervalSums(net.rows)
        self.vsum, self.totals, self.vterm = self.sums.vsum, self.sums.totals, self.sums.vterm
        self.cols = tuple([0.0] * k for _ in range(6))
        self.d = [0.0] * k
        for v, c in enumerate(self.comm_of):
            # v joins c after the vertices before it, so it links to those only
            k_lo = k_hi = 0.0
            for u, w in net.rows[v].items():
                if u < v and self.comm_of[u] == c:
                    k_lo, k_hi = k_lo + w.lo, k_hi + w.hi
            self._join(v, c, k_lo, k_hi)

    def _join(self, v: int, c: int, k_lo: float, k_hi: float, sign: int = 1) -> None:
        """v, linked to c by [k_lo, k_hi], joins (sign 1) or leaves (sign -1) c."""
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        o_lo[c] += sign * (2.0 * k_lo + x_olo)
        o_hi[c] += sign * (2.0 * k_hi + x_ohi)
        s_lo[c] += sign * x_slo
        s_hi[c] += sign * x_shi
        n_lo[c] += sign * x_nlo
        n_hi[c] += sign * x_nhi
        self.d[c] = cl_term(o_lo[c], o_hi[c], s_lo[c], s_hi[c], n_lo[c], n_hi[c], *self.totals)

    def step(self, v: int) -> Decision:
        """As ``_ScalarPass.step``, with lower and upper links; the tolerance
        is ``TIE_ULPS`` ulps of the larger upper strength of the candidate
        and own with v in it, which bounds every observed and expected
        block of both gains."""
        comm_of, d = self.comm_of, self.d
        own = comm_of[v]
        self.size[own] -= 1
        k_lo: dict[int, float] = {}
        k_hi: dict[int, float] = {}
        for u, w in self.net.rows[v].items():
            if u == v:
                k_lo.setdefault(own, 0.0)
                k_hi.setdefault(own, 0.0)
            else:
                c = comm_of[u]
                k_lo[c] = k_lo.get(c, 0.0) + w.lo
                k_hi[c] = k_hi.get(c, 0.0) + w.hi
        o_lo, o_hi, s_lo, s_hi, n_lo, n_hi = self.cols
        x_olo, x_ohi, x_slo, x_shi, x_nlo, x_nhi = self.vsum[v]
        q_v, (t_lo, t_hi) = self.vterm[v], self.totals
        if self.size[own]:
            kl, kh = k_lo.get(own, 0.0), k_hi.get(own, 0.0)
            self._join(v, own, kl, kh, -1)
            gain_own = cl_term(
                o_lo[own] + (2.0 * kl + x_olo), o_hi[own] + (2.0 * kh + x_ohi), s_lo[own] + x_slo,
                s_hi[own] + x_shi, n_lo[own] + x_nlo, n_hi[own] + x_nhi, t_lo, t_hi,
            ) - d[own] - q_v
        else:  # drop the rounding residue of the removals: re-entering is a no-op
            for col in (*self.cols, d):
                col[own] = 0.0
            gain_own = 0.0
        gains = []
        target, best = own, 0.0
        for c, kl in k_lo.items():
            if c == own:
                g = gain_own
            else:
                g = cl_term(
                    o_lo[c] + (2.0 * kl + x_olo), o_hi[c] + (2.0 * k_hi[c] + x_ohi), s_lo[c] + x_slo,
                    s_hi[c] + x_shi, n_lo[c] + x_nlo, n_hi[c] + x_nhi, t_lo, t_hi,
                ) - d[c] - q_v
                if (
                    g > 0.0 and g > gain_own
                    and g - gain_own > TIE_ULPS * math.ulp(max(s_hi[c], s_hi[own]) + x_shi)
                    and (target == own or g > best or (g == best and c < target))
                ):
                    target, best = c, g
            gains.append(g)
        self._join(v, target, k_lo.get(target, 0.0), k_hi.get(target, 0.0))
        self.size[target] += 1
        comm_of[v] = target
        return Decision(v, own, tuple(k_lo), tuple(gains), None if target == own else target)


def _optimize(state: _PassState, log: list[Decision]) -> tuple[int, bool]:
    """Phase 1: greedy sweeps until one completes without a move.

    Returns (sweeps performed, whether any move happened).
    """
    step = state.step
    for iterations in range(1, SWEEP_LIMIT + 1):
        moves = 0
        for v in range(state.net.n):
            d = step(v)
            log.append(d)
            moves += d.target is not None
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
    state = kind(cur)
    log: list[Decision] = []
    passes: list[PassRecord] = []
    while True:
        iterations, any_move = _optimize(state, log)
        p = Partition(state.comm_of)  # ids renumbered by first appearance; singletons if no move
        if not any_move:
            # Q of cur as singletons: the last aggregate's, or the input's
            q = passes[-1].modularity if passes else state.sums.q()
            passes.append(PassRecord(len(passes) + 1, iterations, p, q, cur, False))
            break
        # a move only joins a neighbour's non-empty community, so the first move
        # empties a singleton for good: the aggregate is smaller and the loop terminates
        cur = (aggregate_minmax if strategy.aggregation == "minmax" else aggregate_sum)(cur, p)
        state = kind(cur)  # the next pass's state: its sums give the aggregate's Q
        passes.append(PassRecord(len(passes) + 1, iterations, p, state.sums.q(), cur, True))

    final = passes[0].partition
    for rec in passes[1:]:
        final = final.compose(rec.partition.assignment)
    final_q = passes[-1].modularity
    q_max = state.sums.q_max()
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
    isolated from its own community for the evaluation, on a membership
    built from ``p`` for this call alone.
    """
    if len(p.assignment) != net.n:
        raise ValueError(f"partition has {len(p.assignment)} entries, network has {net.n} vertices")
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} is not in range({net.n})")
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    d = _kind(strategy)(net, p).step(vertex)  # on a throwaway state
    return list(zip(d.candidates, d.gains))


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

    def render(self, d: Decision) -> Iterator[str]:
        """Yield the Try/Move/Keep lines of d, then apply its move.

        A vertex is isolated while its candidates are priced, so no
        candidate other than its own community contains it. A gain prints
        as ``gain=<sign><|gain|:.3f> (<mark>)``, the mark ``0`` for a zero
        gain (-0.0 too, which prints ``gain=+0.000 (0)``).
        """
        v, own = d.vertex, d.own
        vlabel = self.labels[v]
        # labels name the communities as they were before v left
        own_label = self.label(own)
        try_v = f"\tTry {vlabel} -> "
        for c, g in zip(d.candidates, d.gains):
            clabel = own_label if c == own else self.label(c)
            yield (
                f"{try_v}{clabel:<15} | gain={'-' if g < 0.0 else '+'}{abs(g):.3f} "
                f"({'0' if g == 0.0 else '+' if g > 0.0 else '-'})"
            )
        if d.target is None:
            yield f"\tKeep vertex {vlabel} at community {own_label}"
        else:
            yield f"\tMove {vlabel} -> {self.label(d.target)}"
            self.members[own].remove(v)
            bisect.insort(self.members[d.target], v)
            del self.cached[own], self.cached[d.target]


def emit_trace(run: LouvainRun) -> str:
    """Human-readable log of the whole run (one string, newline-joined)."""
    return "".join(line + "\n" for line in _trace_lines(run))


def _trace_lines(run: LouvainRun) -> Iterator[str]:
    """The lines of ``emit_trace``, without newlines, one at a time.

    Every line comes from the run's records. Pass k replays its
    ``iterations x n`` decisions on its input network (the first pass's
    input from ``_work``, then the previous pass's aggregate); the initial
    and each sweep's modularity are computed here, by the partition-level
    function of the run's gain kind.
    """
    kind = _kind(run.strategy)
    q_of = q_interval_communities if run.strategy.interval_gain else q_scalar_communities
    cur = _work(run.network, run.strategy)
    replay = _Replay(cur, kind)
    yield "Initial Interval-Weighted Network:"
    yield from format_matrix(cur)
    yield ""
    yield f"* Initial Modularity={q_of(replay.level, replay.members):.3f}"
    decisions = iter(run.trace)
    for rec in run.passes:
        yield f"* Begin Pass number {rec.number}"
        for sweep in range(1, rec.iterations + 1):
            for d in itertools.islice(decisions, cur.n):
                yield from replay.render(d)
            q = q_of(replay.level, [m for m in replay.members if m])
            yield f"Iteration {sweep} Modularity={q:.3f}"
        if not rec.changed:
            yield f"* End Pass number {rec.number} -- no change"
            continue
        cur = rec.aggregated
        replay = _Replay(cur, kind)
        communities = " / ".join(cur.labels)
        yield ""
        yield "New network: ---------------"
        yield from format_matrix(cur)
        yield f"* End Pass number {rec.number} Modularity={rec.modularity:.3f} Communities={communities}"
        yield "---------------------------"
    final = run.final_network
    prefix = "Hybrid - Before Normalized" if run.strategy.name == "hl" else "Before Normalized"
    yield ""
    yield f"* Final communities: {' / '.join(final.labels)} (n={final.n})"
    yield f"* {prefix}: {run.final_q:.3f}"
    yield f"* Normalized modularity: {run.final_q_norm:.3f} (Qmax={run.final_q_max:.6f})"
    yield "---------------------------"
    yield "Final Interval-weighted network:"
    yield ""
    yield from format_matrix(final)
