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
* ``midpoint``: the degenerate baseline, scalar gains and sum aggregation
  on the midpoints of each level, the input's included, which is not copied.

Phase 1 keeps a community id per vertex, a member count per community
and, per gain kind, float sums per community, all updated in O(deg) per
move. The pass state of each gain kind evaluates a vertex in one method,
``step``: one pass over its neighbour map gives its links, and one loop
over the candidates prices them and applies the tie rule, so a sweep is
O(m) with one call per vertex. ``step`` returns whether the vertex
moved and leaves its candidates and their gains on the state, so phase 1
builds no record per vertex. Networks of a run are not re-validated;
input is checked once, at the boundary. The pass state is the one owner
of its level's sums: it builds the per-vertex sums its gains read and
gives the Q of its membership (``q()``) and the level's Q_max
(``q_max()``). ``run()`` reads each new level's Q from ``q()`` of the
fresh (singleton) state it builds for the next pass and Q_max from the
last state, and collapses no partition.

``run()`` keeps no decision log, so it holds O(n + m) memory. Vertices
are swept in index order and every decision is deterministic:
``decisions(run)`` derives each ``Decision`` again, sweeping each pass's
input network on a new state. The text trace (``iwnet.trace``, loaded
on first use) renders the ``Try``/``Move``/``Keep`` lines from such live
states, so a traced run runs phase 1 twice, and reads each sweep's Q
from the same ``q()``.

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

import math
import sys
from typing import Iterator, NamedTuple

from .errors import EmptyNetwork, InvalidInterval, IterationLimit, ZeroTotalWeight
from .frozen import Frozen
from .interval import ZERO, dominant_diff, seq_sum
from .modularity import _check_finite, cl_term, expected_diag_adjusted
# format_matrix is not called here: ``iwnet.trace`` looks it up on this module
# for each matrix it renders, so a wrapper set on this name (bench/harness.py)
# sees every call
from .network import IWNetwork, _aggregate_midpoints, aggregate_minmax, aggregate_sum, format_matrix
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
    "decisions",
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
    """Gain kind and aggregation: cl interval/sum, hl scalar/envelope, midpoint scalar/sum."""

    name: str

    def __init__(self, name: str):
        if name not in NAMES:
            raise ValueError(f"unknown strategy {name!r}")
        object.__setattr__(self, "name", name)


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


class _PassState:
    """Membership of one optimization phase: the community id of every vertex
    (``comm_of``) and the member count of every id (``size``). A subclass
    per gain kind keeps the sums its gains are priced from, as plain
    floats, and evaluates one vertex in ``step(v)``: it isolates v, reads
    v's links from one pass over its row, prices every candidate and
    applies the tie rule in one loop over them, places v and returns
    whether v moved. It leaves v's links map in ``links`` (its keys are
    the candidates, in scan order) and their gains in ``gains``, each
    replaced by the next step; ``decisions`` reads them.

    A move needs a strictly positive gain that beats returning to the
    former community by more than a tolerance of ``TIE_ULPS`` ulps of the
    kind's largest operand: gains closer than that count as equal, since
    a vertex that took either could swap between two communities on gains
    that differ only by rounding. The tolerance is a heuristic (see
    ``TIE_ULPS``); ``SWEEP_LIMIT`` ends phase 1 where it falls short.
    Gain ties among candidates go to the smallest community id, and a tie
    with the former community keeps the vertex.

    The subclass builds the per-vertex sums of its network that its gains
    read, and refuses a zero total (``ZeroTotalWeight``) or an expected
    block that overflows (``InvalidInterval``). ``q()`` is the Q of the
    current membership, from the per-community sums, and ``q_max()`` the
    network's Q_max, from the per-vertex sums. The membership starts as
    singletons, or as ``partition`` for ``evaluate_moves``.
    """

    def __init__(self, net: IWNetwork, partition: Partition | None = None):
        self.net = net
        self.comm_of = list(range(net.n) if partition is None else partition.assignment)
        k = net.n if partition is None else partition.n_communities
        self.size = [0] * k
        for c in self.comm_of:
            self.size[c] += 1
        self._sums(net, k)


class _ScalarPass(_PassState):
    """The scalar gain 2(k_vC - s_v Sigma_tot / 2w) on the nonzero midpoints
    of the pass's network (``hl``, ``midpoint``); ``tot`` holds Sigma_tot."""

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.neigh = mid = net.midpoint_rows()
        self.s = s = [seq_sum(row.values()) for row in mid]
        self.two_w = t = seq_sum(s)
        if t <= 0:
            raise ZeroTotalWeight("total weight is zero")
        _check_finite(t, (x * x / (t - x + x) for x in s))
        self.tot = [0.0] * k
        for v, c in enumerate(self.comm_of):
            self.tot[c] += s[v]

    def q(self) -> float:
        """Unnormalized Q (no 1/2w factor) of the membership: each non-empty
        community's internal weight, folded in vertex and key order, less its
        expected block Sigma_tot^2 / 2w, with 2w taken as (2w - x) + x, as on
        the interval track."""
        comm_of, inner, t = self.comm_of, [0.0] * len(self.tot), self.two_w
        for v, row in enumerate(self.neigh):
            c = comm_of[v]
            for u, w in row.items():
                if comm_of[u] == c:
                    inner[c] += w
        return seq_sum(i - x * x / (t - x + x) for i, x, k in zip(inner, self.tot, self.size) if k)

    def q_max(self) -> float:
        """Normalization denominator 2w - sum of the expected diagonal blocks of
        the vertices, with 2w summed flat over the entries; exactly 0.0 when at
        most one vertex has weight, where the difference would leave a
        rounding residue."""
        s, t = self.s, self.two_w
        if sum(x > 0.0 for x in s) <= 1:
            return 0.0
        flat = seq_sum(x for row in self.neigh for x in row.values())
        return flat - seq_sum(x * x / (t - x + x) for x in s)

    def step(self, v: int) -> bool:
        """Evaluate and place v; True if it moved. Its links are keyed in
        first-neighbour (candidate) order, and a self-loop keys ``own``
        only; the tolerance is ``TIE_ULPS`` ulps of s_v, since the link
        weights and s_v Sigma_tot / 2w of both gains are at most s_v."""
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
        self.links, self.gains = links, gains
        return target != own


class _IntervalPass(_PassState):
    """The exact interval gain D(C + v) - D(C) - D({v}) (``cl``).

    ``cols`` holds the flat lists o_lo, o_hi, s_lo, s_hi, n_lo, n_hi of
    every community: observed diagonal block, strength, and how many
    members have a positive lower / upper strength (the counts make the
    zero tests exact). ``d`` caches each community's ``cl_term``; ``vsum``
    and ``vterm`` hold the same of every vertex as the singleton it would
    form, and ``totals`` is (T_lo, T_hi).
    """

    def _sums(self, net: IWNetwork, k: int) -> None:
        self.vsum = []
        for v, row in enumerate(net.rows):
            loop = row.get(v, ZERO)
            s_lo = seq_sum(w.lo for w in row.values())
            s_hi = seq_sum(w.hi for w in row.values())
            self.vsum.append((loop.lo, loop.hi, s_lo, s_hi, int(s_lo > 0.0), int(s_hi > 0.0)))
        self.totals = t_lo, t_hi = tuple(seq_sum(x[j] for x in self.vsum) for j in (2, 3))
        if t_hi <= 0:
            raise ZeroTotalWeight("total weight is zero")
        self.vterm = [cl_term(*x, t_lo, t_hi) for x in self.vsum]
        _check_finite(t_hi, self.vterm)  # an expected block that overflows makes its term infinite
        self.cols = tuple([0.0] * k for _ in range(6))
        self.d = [0.0] * k
        for v, c in enumerate(self.comm_of):
            # v joins c after the vertices before it, so it links to those only
            k_lo = k_hi = 0.0
            for u, w in net.rows[v].items():
                if u < v and self.comm_of[u] == c:
                    k_lo, k_hi = k_lo + w.lo, k_hi + w.hi
            self._join(v, c, k_lo, k_hi)

    def q(self) -> float:
        """Q of the membership: the ``cl_term`` of every non-empty
        community, summed in id order."""
        return seq_sum(d for d, k in zip(self.d, self.size) if k)

    def q_max(self) -> float:
        """Normalization denominator D([2w_lo, 2w_hi], sum of the expected
        diagonal blocks of the vertices), with 2w summed flat over the entries;
        0.0 when at most one vertex has a positive upper strength, as on the
        scalar track, and when T_lo is 0: every lower bound is then 0 and every
        expected upper block s_hi^2 / (0 - 0 + s_hi) is s_hi, so both
        differences are 0, where the sums would leave a rounding residue."""
        t_lo, t_hi = self.totals
        if sum(x[5] for x in self.vsum) <= 1 or t_lo == 0.0:
            return 0.0
        rows = self.net.rows
        e = [expected_diag_adjusted(x[2], x[3], t_lo, t_hi) for x in self.vsum]
        return dominant_diff(
            seq_sum(w.lo for row in rows for w in row.values()) - seq_sum(x[0] for x in e),
            seq_sum(w.hi for row in rows for w in row.values()) - seq_sum(x[1] for x in e),
        )

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

    def step(self, v: int) -> bool:
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
        self.links, self.gains = k_lo, gains
        return target != own


def _optimize(state: _PassState) -> int:
    """Phase 1: greedy sweeps until one completes without a move.

    Returns the sweeps performed; every sweep before the last moved a
    vertex. No decision is kept: ``decisions`` derives them again.
    """
    step, vertices = state.step, range(state.net.n)
    for iterations in range(1, SWEEP_LIMIT + 1):
        # a list, so any() cannot end the sweep at its first move
        if not any([step(v) for v in vertices]):
            return iterations
    raise IterationLimit(f"no convergence after {SWEEP_LIMIT} sweeps")


def _kind(strategy: Strategy) -> type[_IntervalPass] | type[_ScalarPass]:
    return _IntervalPass if strategy.name == "cl" else _ScalarPass


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
    # scalar gains and Q, and the adjusted expectations of cl. Below the
    # normal range such a product loses precision or rounds to 0
    if not math.isfinite(t_hi * t_hi):
        raise InvalidInterval(f"total weight {t_hi!r} overflows when squared")
    if t_hi * t_hi < sys.float_info.min:
        raise InvalidInterval(f"total weight {t_hi!r} underflows when squared")

    # looked up at each call, so a wrapper set on a name (bench/harness.py) sees every call
    by_name = {"cl": aggregate_sum, "hl": aggregate_minmax, "midpoint": _aggregate_midpoints}
    kind, aggregate = _kind(strategy), by_name[strategy.name]
    cur, state = net, kind(net)
    passes: list[PassRecord] = []
    while True:
        iterations = _optimize(state)
        p = Partition(state.comm_of)  # ids renumbered by first appearance; singletons if no move
        if iterations == 1:  # the first sweep moved nothing: cur stays as singletons
            # Q of cur as singletons: the last aggregate's, or the input's
            q = passes[-1].modularity if passes else state.q()
            passes.append(PassRecord(len(passes) + 1, iterations, p, q, cur, False))
            break
        del state  # as large as its network: freed before the aggregate is built
        # a move only joins a neighbour's non-empty community, so the first move
        # empties a singleton for good: the aggregate is smaller and the loop terminates
        cur = aggregate(cur, p)
        state = kind(cur)  # the next pass's state: as singletons, its Q is the aggregate's
        passes.append(PassRecord(len(passes) + 1, iterations, p, state.q(), cur, True))

    final = passes[0].partition
    for rec in passes[1:]:
        final = final.compose(rec.partition.assignment)
    final_q = passes[-1].modularity
    q_max = state.q_max()
    q_norm = final_q / q_max if q_max != 0.0 else math.nan
    return LouvainRun(strategy, net, tuple(passes), final, cur, final_q, q_norm, q_max)


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
    state = _kind(strategy)(net, p)  # a throwaway state
    state.step(vertex)
    return list(zip(state.links, state.gains))


def _pass_states(run: LouvainRun) -> Iterator[tuple[PassRecord, _PassState]]:
    """(record, new state on the pass's input network) of each pass. The
    caller sweeps the state; the pass must end on its recorded partition."""
    kind, cur = _kind(run.strategy), run.network
    for rec in run.passes:
        state = kind(cur)
        yield rec, state
        if Partition(state.comm_of) != rec.partition:
            raise RuntimeError(f"pass {rec.number} did not derive its recorded partition")
        cur = rec.aggregated


def _sweep(state: _PassState) -> Iterator[Decision]:
    """The ``Decision`` of each vertex of one sweep of ``state``, in index order."""
    step, comm_of = state.step, state.comm_of
    for v in range(state.net.n):
        own = comm_of[v]
        target = comm_of[v] if step(v) else None
        yield Decision(v, own, tuple(state.links), tuple(state.gains), target)


def decisions(run: LouvainRun) -> Iterator[Decision]:
    """The ``Decision`` of every phase-1 evaluation of ``run``, in sweep
    order (``iterations x n`` per pass, in the ids of the pass's network),
    derived again by sweeping each pass's input network on a new state. A
    pass that does not end on its recorded partition raises ``RuntimeError``.
    """
    for rec, state in _pass_states(run):
        for _ in range(rec.iterations):
            yield from _sweep(state)
