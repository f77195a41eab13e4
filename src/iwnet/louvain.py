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
move. Each gain kind's pass state lives in its own module, which
``_kind`` imports on first use, so a run compiles only the kind its
strategy needs: ``modularity._IntervalPass`` for ``cl`` and
``scalar._ScalarPass`` for ``hl`` and ``midpoint``; both subclass
``_PassState`` here. The pass state evaluates a vertex in one method,
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

``run()`` keeps no decision log, so it holds O(n + m) memory. Its pass
loop takes an internal sweep hook, which makes each phase-1 sweep on the
live pass state and reads what each step leaves on it: the text trace
and the decision log (``decisions``, ``Decision``), both in
``iwnet.trace``, which this module does not import. Untraced, a
sweep costs nothing per vertex.

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
from collections import namedtuple
from typing import Callable

from .errors import EmptyNetwork, InvalidInterval, IterationLimit, ZeroTotalWeight
from .frozen import Frozen
from .interval import seq_sum
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
    "LouvainRun",
    "run",
    "evaluate_moves",
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


# the records are plain named tuples: typing.NamedTuple would compile a
# typing.ForwardRef per annotated field at import
PassRecord = namedtuple(
    "PassRecord", ["number", "iterations", "partition", "modularity", "aggregated", "changed"]
)
PassRecord.__doc__ = """Outcome of one optimization+aggregation pass: its ``number``,
the sweeps of its phase 1 (``iterations``), the ``Partition`` of its input
network, the ``modularity`` reported at pass end (post-aggregation for
hybrid), the ``aggregated`` ``IWNetwork`` (the input itself for a no-change
pass) and whether the pass ``changed`` it."""

LouvainRun = namedtuple(
    "LouvainRun",
    [
        "strategy", "network", "passes", "final_partition", "final_network",
        "final_q", "final_q_norm", "final_q_max",
    ],
)
LouvainRun.__doc__ = """Full hierarchy produced by one driver run: the ``Strategy``,
the input ``network``, the tuple of ``PassRecord``s, the ``final_partition``
of the original vertices, the ``final_network``, and the final Q, Q_norm
(NaN when Q_max is zero) and Q_max."""


class _PassState:
    """Membership of one optimization phase: the community id of every vertex
    (``comm_of``) and the member count of every id (``size``). A subclass
    per gain kind keeps the sums its gains are priced from, as plain
    floats, and evaluates one vertex in ``step(v)``: it isolates v, reads
    v's links from one pass over its row, prices every candidate and
    applies the tie rule in one loop over them, places v and returns
    whether v moved. It leaves v's links map in ``links`` (its keys are
    the candidates, in scan order) and their gains in ``gains``, each
    replaced by the next step; a sweep hook reads them.

    A move needs a strictly positive gain that beats returning to the
    former community by more than a tolerance of ``TIE_ULPS`` ulps of the
    kind's largest operand: gains closer than that count as equal, since
    a vertex that took either could swap between two communities on gains
    that differ only by rounding. The tolerance is a heuristic (see
    ``TIE_ULPS``); ``SWEEP_LIMIT`` ends phase 1 where it falls short.
    Gain ties among candidates go to the smallest community id, and a tie
    with the former community keeps the vertex.

    The subclass builds the per-vertex sums of its network that its gains
    read, trusting the network its entry point checked but for one O(1)
    check: that its own total, summed in another order, still squares to a
    finite value (``_priced``). ``q()`` is the Q of the current membership,
    from the per-community sums, and ``q_max()`` the network's Q_max, from
    the per-vertex sums. The membership starts as singletons, or as
    ``partition`` for ``evaluate_moves``.
    """

    def __init__(self, net: IWNetwork, partition: Partition | None = None):
        self.net = net
        self.comm_of = list(range(net.n) if partition is None else partition.assignment)
        k = net.n if partition is None else partition.n_communities
        self.size = [0] * k
        for c in self.comm_of:
            self.size[c] += 1
        self._sums(net, k)


Sweep = Callable[[_PassState, int], bool]  # the sweep hook of ``run``


def _optimize(state: _PassState, sweep: Sweep | None) -> int:
    """Phase 1: greedy sweeps until one completes without a move.

    Returns the sweeps performed; every sweep before the last moved a
    vertex. ``sweep``, if given, makes each sweep.
    """
    step, vertices = state.step, range(state.net.n)
    for iterations in range(1, SWEEP_LIMIT + 1):
        # a list, so any() cannot end the sweep at its first move
        if not (sweep(state, iterations) if sweep else any([step(v) for v in vertices])):
            return iterations
    raise IterationLimit(f"no convergence after {SWEEP_LIMIT} sweeps")


def _kind(strategy: Strategy) -> type[_PassState]:
    """The pass state of the strategy's gain kind. Its module is imported
    here, on first use, so a run compiles its own kind only."""
    if strategy.name == "cl":
        from .modularity import _IntervalPass

        return _IntervalPass
    from .scalar import _ScalarPass

    return _ScalarPass


def _priced(total: float) -> float:
    """``total``, if every track can price a network of that total weight (the
    one owner of this rule): each multiplies two strengths of at most the
    total, so it must be positive and its square a finite, normal float."""
    if total <= 0:
        raise ZeroTotalWeight("network has no weight")
    if not math.isfinite(total * total):
        raise InvalidInterval(f"total weight {total!r} overflows when squared")
    if total * total < sys.float_info.min:
        raise InvalidInterval(f"total weight {total!r} underflows when squared")
    return total


def _total_hi(net: IWNetwork) -> float:
    """The total of ``net``'s upper weights, refused unless ``_priced``."""
    t_hi = seq_sum(w.hi for row in net.rows for w in row.values())
    if not math.isfinite(t_hi):
        net.total_weight()  # raises InvalidInterval at the first partial sum that overflows
    return _priced(t_hi)


def run(
    net: IWNetwork, strategy: Strategy | str = CLASSIC_INTERVAL, sweep: Sweep | None = None
) -> LouvainRun:
    """Run the Louvain hierarchy to convergence.

    One pass = greedy vertex sweeps (phase 1) followed by aggregation
    (phase 2); the run ends when a pass moves nothing. The terminal
    no-change pass is recorded alongside the productive passes.
    ``sweep`` is internal: ``sweep(state, iteration)`` must step every
    vertex of ``state`` in index order and return whether one moved
    (``iteration`` counts from 1 in each pass, on a new state).
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if net.n == 0:
        raise EmptyNetwork("cannot run on an empty network")
    _total_hi(net)

    # looked up at each call, so a wrapper set on a name (bench/harness.py) sees every call
    by_name = {"cl": aggregate_sum, "hl": aggregate_minmax, "midpoint": _aggregate_midpoints}
    kind, aggregate = _kind(strategy), by_name[strategy.name]
    cur, state = net, kind(net)
    passes: list[PassRecord] = []
    while True:
        iterations = _optimize(state, sweep)
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
    _total_hi(net)
    state = _kind(strategy)(net, p)  # a throwaway state
    state.step(vertex)
    return list(zip(state.links, state.gains))

