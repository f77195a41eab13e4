"""Every accepted phase-1 move beats going home in exact arithmetic.

Each run's decisions, derived again by ``iwnet.trace.decisions``, are replayed
from singletons on each pass's network (the first the run's input, whose
midpoints the scalar tracks price, then the previous pass's aggregate).
For every decision, the gain of each candidate and, for an accepted move,
the change of modularity between the vertex at its target and at home are
re-priced with ``fractions.Fraction`` from that network and the membership
of the moment: an independent computation of the float gain formulas, and
of the tie rule, which must never let rounding alone move a vertex.
"""

import io
import math
import random
import sys
from fractions import Fraction

import pytest

from iwnet import IWNetwork, Partition, louvain, network_from_csv, run
from iwnet import trace as renderer
from iwnet.errors import InvalidInterval

from helpers import CYCLING_CSV, tie_network

TINY = Fraction(sys.float_info.min)  # the smallest normal float


def _weight(rng):
    """A random edge weight: ordinary, zero-width, zero lower bound or
    subnormal, or no edge."""
    kind = rng.randrange(6)
    x = rng.uniform(0.1, 5.0)
    if kind == 0:
        return (x, x + rng.uniform(0.0, 5.0))
    if kind == 1:
        return (x, x)
    if kind == 2:
        return (0.0, x)
    if kind == 3:
        return (0.0, rng.choice([5e-324, 1e-310, 2.2e-308]))
    if kind == 4:
        return (float(rng.randrange(1, 4)),) * 2  # integers: exact ties
    return None


def _random_network(rng):
    """2 to 10 vertices, some of them edgeless, and at least one edge."""
    n = rng.randrange(2, 11)
    labels = [f"v{i}" for i in range(n)]
    edges = []
    while not edges:
        for i in range(n):
            for j in range(i + 1, n):
                w = _weight(rng) if rng.random() < 0.5 else None
                if w is not None:
                    edges.append((labels[i], labels[j], *w))
    return IWNetwork.from_edges(labels, edges)


def _decimal_ties(rng, shape, size):
    """A tie network whose one weight has decimal endpoints, which binary
    floats round: moves that tie exactly get gains that differ by rounding."""
    net = tie_network(rng, shape, size)
    lo = rng.choice([0.1, 0.3, 0.7, 1.1])
    hi = lo + rng.choice([0.0, 0.1, 0.2])
    labels = net.labels
    return IWNetwork.from_edges(labels, [(labels[i], labels[j], lo, hi) for i, j, _ in net.edges()])


def _networks():
    rng = random.Random(131)
    yield network_from_csv(io.StringIO(CYCLING_CSV))
    for _ in range(80):
        yield _random_network(rng)
    for shape in ("ring", "star", "bipartite") * 10:
        yield _decimal_ties(rng, shape, rng.randrange(3, 11))


class _Exact:
    """Per-community modularity terms of one network in exact arithmetic:
    o_C - S_C^2 / 2w on the scalar track, D(o_C, e_C) with the adjusted
    expected block on the interval track. Q is the sum of the terms of
    the communities, so a gain is term(C + v) - term(C) - term({v})."""

    def __init__(self, net, strategy):
        self.interval = strategy == "cl"
        if self.interval:
            self.rows = [{j: (Fraction(w.lo), Fraction(w.hi)) for j, w in row.items()}
                         for row in net.rows]
        else:  # a scalar entry is its own (lo, hi)
            self.rows = [{j: (Fraction(m),) * 2 for j, m in row.items()}
                         for row in net.midpoint_rows()]
        self.s = [tuple(sum((w[k] for w in row.values()), Fraction(0)) for k in (0, 1))
                  for row in self.rows]
        self.t = tuple(sum(x[k] for x in self.s) for k in (0, 1))
        self.scale = max((w[1] for row in self.rows for w in row.values()), default=0)
        self.terms = {}

    def term(self, members):
        inside = frozenset(members)
        if inside not in self.terms:
            self.terms[inside] = self._term(inside)
        return self.terms[inside]

    def _term(self, inside):
        members = sorted(inside)
        pairs = [w for i in members for j, w in self.rows[i].items() if j in inside]
        o_lo, o_hi = (sum((w[k] for w in pairs), Fraction(0)) for k in (0, 1))
        c_lo, c_hi = (sum((self.s[i][k] for i in members), Fraction(0)) for k in (0, 1))
        t_lo, t_hi = self.t
        if not self.interval:
            return o_hi - c_hi * c_hi / t_hi
        e_lo = c_lo * c_lo / (t_hi - c_hi + c_lo) if c_lo > 0 else 0
        e_hi = c_hi * c_hi / (t_lo - c_lo + c_hi) if c_hi > 0 else 0
        dl, dh = o_lo - e_lo, o_hi - e_hi
        return dh if abs(dh) >= abs(dl) else dl

    def gain(self, v, members):
        """Modularity change of the isolated v joining ``members``."""
        return self.term([*members, v]) - self.term(members) - self.term([v])


def _check_run(net, strategy):
    """(accepted moves, priced candidates) of one run, asserting each."""
    result = run(net, strategy)
    decisions = renderer.decisions(result)
    cur = net
    moves = priced = 0
    for rec in result.passes:
        exact = _Exact(cur, strategy)
        # below this scale a product of two strengths underflows, and with it
        # the expected term of a float gain: only the decisions are checked
        tol = exact.scale * Fraction(1, 10**9) * cur.n if exact.scale ** 2 >= TINY else None
        members = [[v] for v in range(cur.n)]
        for _ in range(rec.iterations * cur.n):
            d = next(decisions)
            v = d.vertex
            assert v in members[d.own]
            members[d.own].remove(v)
            if tol is not None:
                for c, g in zip(d.candidates, d.gains):
                    assert abs(Fraction(g) - exact.gain(v, members[c])) <= tol, (c, g)
                    priced += 1
            target = d.own
            if d.target is not None:
                assert exact.gain(v, members[d.target]) > exact.gain(v, members[d.own]), d
                target = d.target
                moves += 1
            members[target].append(v)
        cur = rec.aggregated
    return moves, priced


@pytest.mark.parametrize("strategy", ["cl", "hl", "midpoint"])
def test_accepted_moves_beat_going_home_exactly(strategy):
    moves = priced = runs = 0
    for net in _networks():
        try:
            m, p = _check_run(net, strategy)
        except InvalidInterval as exc:  # every weight subnormal: refused for every method
            assert "underflows when squared" in str(exc)
            continue
        moves += m
        priced += p
        runs += 1
    assert runs > 100 and moves > 300 and priced > 3000, (runs, moves, priced)




def _has_zero_midpoint(net):
    return any(w.midpoint == 0.0 for _, _, w in net.edges())


@pytest.mark.parametrize("strategy", ["cl", "hl", "midpoint"])
def test_decisions_match_evaluate_moves_with_zero_midpoints(strategy):
    """Every decision of a run lists the candidates and gains that
    ``evaluate_moves`` gives on the pass's network and the membership just
    before the step, on networks with [0,5e-324] edges, whose midpoint is
    0.0: the run and ``evaluate_moves`` see the same links. The gains agree
    to rounding only, as the run's community sums accumulate in move order
    and those of ``evaluate_moves`` in vertex order."""
    nets = [net for net in _networks() if _has_zero_midpoint(net)]
    checked = 0
    for net in nets:
        try:
            result = run(net, strategy)
        except InvalidInterval:  # every weight subnormal: refused for every method
            continue
        decisions = renderer.decisions(result)
        cur = net
        for rec in result.passes:
            comm_of = list(range(cur.n))
            for _ in range(rec.iterations * cur.n):
                d = next(decisions)
                # Partition renumbers ids by first appearance
                remap = {c: k for k, c in enumerate(dict.fromkeys(comm_of))}
                moves = louvain.evaluate_moves(cur, Partition(comm_of), d.vertex, strategy)
                assert [c for c, _ in moves] == [remap[c] for c in d.candidates], d
                for (_, g), h in zip(moves, d.gains):
                    assert math.isclose(g, h, rel_tol=1e-12, abs_tol=1e-12), (d, g)
                if d.target is not None:
                    comm_of[d.vertex] = d.target
                checked += 1
            cur = rec.aggregated
    assert len(nets) > 10 and checked > 500, (len(nets), checked)
