import gc
import io
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from iwnet import (
    CLASSIC_INTERVAL,
    DirectedFlowRecord,
    HYBRID,
    Interval,
    IWNetwork,
    MIDPOINT,
    Partition,
    Strategy,
    ZERO,
    aggregate_sum,
    emit_trace,
    enumerate_best,
    evaluate_moves,
    expected_interval_adjusted,
    network_from_csv,
    q_definitional,
    q_interval,
    q_interval_communities,
    q_max_interval_adjusted,
    q_max_scalar_communities,
    q_scalar_communities,
    run,
    symmetrize,
)
import iwnet
from iwnet import louvain, network
from iwnet.modularity import _IntervalPass
from iwnet.scalar import _ScalarPass
from iwnet import trace as renderer
from iwnet.errors import EmptyNetwork, InvalidInterval, ZeroTotalWeight

from goldens import CL_REFERENCE_TRACE, HL_REFERENCE_TRACE
from helpers import (
    CYCLING_CSV,
    from_matrix,
    midpoints,
    normalize_lines,
    pinned_networks,
    random_degenerate_network,
    random_network,
    tie_network,
    toy_network,
    with_isolated_vertices,
    with_zero_lower_bounds,
)


def _edge_case_networks(rng, count, sizes=(3, 7)):
    """Random networks with zero lower bounds (some or all) and edgeless
    vertices, where adjusted totals can vanish."""
    return [
        with_isolated_vertices(
            with_zero_lower_bounds(random_network(rng, rng.randrange(*sizes)), rng, share),
            rng,
            rng.randrange(3),
        )
        for share in (0.5, 1.0) * (count // 2)
    ]


class TestStrategy:
    def test_aliases(self):
        # one spelling per strategy, the CLI's: the long names are not aliases
        assert tuple(Strategy(name) for name in louvain.NAMES) == (CLASSIC_INTERVAL, HYBRID, MIDPOINT)
        for alias in ("classic-interval", "hybrid", "HL"):
            with pytest.raises(ValueError, match="unknown strategy"):
                run(toy_network(), alias)

    def test_unknown(self):
        with pytest.raises(ValueError):
            Strategy("leiden")


class TestEvaluateMoves:
    def test_classic_initial_candidates(self):
        net = toy_network()
        moves = evaluate_moves(net, Partition.singletons(4), 0, CLASSIC_INTERVAL)
        assert [c for c, _ in moves] == [1, 2]
        assert moves[0][1] == pytest.approx(4.095238095238095, abs=1e-9)
        assert moves[1][1] == pytest.approx(-0.8095238095238102, abs=1e-9)

    def test_hybrid_initial_candidates(self):
        net = toy_network()
        moves = evaluate_moves(net, Partition.singletons(4), 0, HYBRID)
        assert [c for c, _ in moves] == [1, 2]
        assert moves[0][1] == pytest.approx(2.7142857142857144, abs=1e-9)
        assert moves[1][1] == pytest.approx(-1 / 7, abs=1e-9)

    def test_only_own_community_when_no_outside_neighbors(self):
        net = toy_network()
        p = Partition((0, 0, 1, 1))
        moves = evaluate_moves(net, p, 3, CLASSIC_INTERVAL)
        assert [c for c, _ in moves] == [1]

    @pytest.mark.parametrize(
        "assignment, vertex, message",
        [
            ((0, 0, 1), 1, "partition has 3 entries, network has 4 vertices"),
            ((0, 0, 1, 1, 2), 1, "partition has 5 entries, network has 4 vertices"),
            ((0, 0, 1, 1), 4, r"vertex 4 is not in range\(4\)"),
            ((0, 0, 1, 1), -1, r"vertex -1 is not in range\(4\)"),
        ],
    )
    def test_mismatched_input_refused(self, assignment, vertex, message):
        with pytest.raises(ValueError, match=message):
            evaluate_moves(toy_network(), Partition(assignment), vertex, "hl")


class TestGoldenRuns:
    def test_classic_run(self):
        result = run(toy_network(), CLASSIC_INTERVAL)
        assert result.final_partition == Partition((0, 0, 1, 1))
        assert abs(result.final_q - 20 / 7) < 1e-9
        assert abs(result.final_q_norm - 5 / 11) < 1e-9
        assert abs(result.final_q_max - 44 / 7) < 1e-9
        assert result.final_network.weights == (
            (Interval(2, 6), Interval(2, 2)),
            (Interval(2, 2), Interval(4, 8)),
        )
        assert [rec.changed for rec in result.passes] == [True, False]
        assert result.passes[0].iterations == 2
        assert result.passes[1].iterations == 1

    def test_classic_trace_matches_reference(self):
        result = run(toy_network(), CLASSIC_INTERVAL)
        assert normalize_lines(emit_trace(result)) == normalize_lines(
            CL_REFERENCE_TRACE
        )

    def test_hybrid_run(self):
        result = run(toy_network(), HYBRID)
        assert result.final_partition == Partition((0, 0, 1, 1))
        assert abs(result.passes[0].modularity - 10 / 7) < 1e-9
        assert abs(result.final_q - 10 / 7) < 1e-9
        assert abs(result.final_q_norm - 5 / 12) < 1e-9
        assert abs(result.final_q_max - 24 / 7) < 1e-9
        assert result.final_network.weights == (
            (Interval(1, 3), Interval(1, 1)),
            (Interval(1, 1), Interval(2, 4)),
        )

    def test_hybrid_trace_matches_reference(self):
        result = run(toy_network(), HYBRID)
        assert normalize_lines(emit_trace(result)) == normalize_lines(
            HL_REFERENCE_TRACE
        )

    def test_zero_gain_marker(self):
        trace = emit_trace(run(toy_network(), CLASSIC_INTERVAL))
        assert "gain=+0.000 (0)" in trace

    def test_hybrid_optimization_vs_aggregated_modularity(self):
        # phase-1 value on the input network differs from the value
        # recomputed after min-max aggregation
        result = run(toy_network(), HYBRID)
        trace = emit_trace(result)
        assert "Iteration 2 Modularity=2.857" in trace
        assert "End Pass number 1 Modularity=1.429" in trace


class TestDriverBehavior:
    def test_determinism(self):
        a = run(toy_network(), CLASSIC_INTERVAL)
        b = run(toy_network(), CLASSIC_INTERVAL)
        assert emit_trace(a) == emit_trace(b)
        assert a.final_partition == b.final_partition

    def test_empty_network(self):
        with pytest.raises(EmptyNetwork):
            run(IWNetwork((), ()), CLASSIC_INTERVAL)
        with pytest.raises(EmptyNetwork):  # the oracle refuses it as well
            enumerate_best(IWNetwork((), ()), CLASSIC_INTERVAL)

    def test_zero_total_weight(self):
        net = from_matrix(("a", "b"), ((ZERO, ZERO), (ZERO, ZERO)))
        with pytest.raises(ZeroTotalWeight):
            run(net, CLASSIC_INTERVAL)
        # the interval pass state refuses it too, built outside run()
        with pytest.raises(ZeroTotalWeight):
            evaluate_moves(net, Partition.singletons(2), 0, CLASSIC_INTERVAL)
        with pytest.raises(ZeroTotalWeight):
            q_interval_communities(net, [[0], [1]])

    def test_zero_midpoint_total_weight(self):
        # every midpoint (0 + 5e-324) / 2 rounds to 0.0: the scalar gains
        # would divide by 2w = 0, so each scalar entry point refuses the network.
        # run() refuses it first, for every method: its total squares to 0
        net = IWNetwork.from_edges(["a", "b", "c"], [("a", "b", 0, 5e-324), ("b", "c", 0, 5e-324)])
        assert evaluate_moves(net, Partition.singletons(3), 1, CLASSIC_INTERVAL)
        for strategy in (HYBRID, MIDPOINT):
            with pytest.raises(ZeroTotalWeight):
                evaluate_moves(net, Partition.singletons(3), 1, strategy)
        for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
            with pytest.raises(InvalidInterval, match="underflows when squared"):
                run(net, strategy)

    def test_cl_q_max_is_zero_when_every_lower_bound_is(self):
        """With T_lo = 0 every expected upper block s_hi^2 / (0 - 0 + s_hi) is
        s_hi, so cl's Q_max is exactly 0 and Q_norm NaN for any partition.
        Summed, it left a residue of a few ulps: seeds 61, 295 and 374 ended
        on two or more weighted rows and reported Q_norm 0.06, 1.0 and 0.5."""
        weighted = 0
        for seed in range(400):
            rng = random.Random(seed)
            labels = [f"v{i}" for i in range(rng.randrange(2, 31))]
            edges = [
                (rng.choice(labels), rng.choice(labels), 0.0, rng.uniform(0.1, 10.0))
                for _ in range(rng.randrange(1, 3 * len(labels)))
            ]
            result = run(IWNetwork.from_edges(labels, edges), CLASSIC_INTERVAL)
            assert result.final_q_max == 0.0, seed
            assert math.isnan(result.final_q_norm), seed
            rows = result.final_network.rows
            weighted += sum(any(w.hi > 0.0 for w in row.values()) for row in rows) >= 2
        assert weighted > 100  # beyond the rule for at most one weighted row

    def test_single_vertex_self_loop(self):
        net = from_matrix(("a",), ((Interval(1, 2),),))
        result = run(net, CLASSIC_INTERVAL)
        assert len(result.passes) == 1
        assert not result.passes[0].changed
        assert result.final_partition == Partition((0,))
        assert math.isnan(result.final_q_norm)
        trace = emit_trace(result)
        assert "Initial Interval-Weighted Network:" in trace
        assert "Final communities: a (n=1)" in trace
        assert "Move" not in trace

    def test_compose_partitions(self):
        # the final partition is every pass's partition composed onto the input
        result = run(toy_network(), CLASSIC_INTERVAL)
        assert result.final_partition == Partition((0, 0, 1, 1))
        composed = result.passes[0].partition
        for rec in result.passes[1:]:
            composed = composed.compose(rec.partition.assignment)
        assert composed == result.final_partition
        with pytest.raises(ValueError, match="1 entries for 2 communities"):
            composed.compose([0])

    def test_string_strategy_accepted(self):
        assert run(toy_network(), "cl").final_partition == Partition((0, 0, 1, 1))

    def test_per_pass_modularity_matches_definitional(self):
        rng = random.Random(21)
        nets = [random_network(rng, rng.randrange(3, 7)) for _ in range(15)]
        nets += _edge_case_networks(rng, 16)
        for net in nets:
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                result = run(net, strategy)
                cur = net
                for rec in result.passes:
                    ref = q_definitional(cur, rec.partition, strategy)
                    assert math.isclose(
                        rec.modularity, ref, rel_tol=1e-9, abs_tol=1e-9
                    )
                    cur = rec.aggregated

    def test_iteration_modularity_non_decreasing_within_pass(self):
        # every accepted move strictly improves the pass's own metric, so the
        # per-iteration modularity printed inside one pass never decreases
        rng = random.Random(22)
        for _ in range(10):
            net = random_network(rng, rng.randrange(4, 8))
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                values: list[float] = []
                for line in emit_trace(run(net, strategy)).splitlines():
                    if line.startswith("* Begin Pass"):
                        values = []
                    elif line.startswith("Iteration"):
                        q = float(line.split("Modularity=")[1])
                        assert not values or q >= values[-1]
                        values.append(q)

    def test_gains_match_definitional_difference(self):
        # the gain of moving v into C, relative to the gain of returning
        # home, is exactly the definitional modularity change of the move
        rng = random.Random(25)
        for _ in range(10):
            net = random_network(rng, rng.randrange(3, 7))
            k = rng.randrange(1, net.n + 1)
            p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                # hybrid's phase-1 gains live in the midpoint metric of the
                # current network, not in its post-aggregation metric
                gain_metric = CLASSIC_INTERVAL if strategy.name == "cl" else MIDPOINT
                q_before = q_definitional(net, p, gain_metric)
                for v in range(net.n):
                    own = p.assignment[v]
                    gains = dict(evaluate_moves(net, p, v, strategy))
                    gain_own = gains.get(own)
                    for target, gain in gains.items():
                        if target == own or gain_own is None:
                            continue
                        moved = list(p.assignment)
                        moved[v] = target
                        q_after = q_definitional(
                            net, Partition(tuple(moved)), gain_metric
                        )
                        assert math.isclose(
                            gain - gain_own,
                            q_after - q_before,
                            rel_tol=1e-9,
                            abs_tol=1e-9,
                        )

    def test_every_changed_pass_shrinks_the_network(self):
        # why run() needs no stall check: a move only joins a neighbour's
        # non-empty community, so a pass with a move empties a singleton
        rng = random.Random(26)
        nets = [random_network(rng, rng.randrange(2, 16), density=d) for d in (0.15, 0.4, 0.9) * 8]
        nets += [random_degenerate_network(rng, rng.randrange(2, 16)) for _ in range(8)]
        for net in nets:
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                cur = net
                for rec in run(net, strategy).passes:
                    if rec.changed:
                        assert rec.aggregated.n < cur.n
                    cur = rec.aggregated

    def test_tie_between_candidates_prefers_smaller_community_id(self):
        # hub with two equally attractive neighbors: the earlier community wins
        net = IWNetwork.from_edges(
            ["a", "b", "c"], [("a", "b", 2, 2), ("a", "c", 2, 2)]
        )
        for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
            gains = dict(evaluate_moves(net, Partition.singletons(3), 0, strategy))
            assert gains[1] == gains[2]
            result = run(net, strategy)
            assignment = result.final_partition.assignment
            assert assignment[0] == assignment[1]

    def test_tie_with_former_community_keeps_vertex(self):
        # symmetric path: re-joining home ties with the other endpoint; keep wins
        net = IWNetwork.from_edges(
            ["a", "b", "c"], [("a", "b", 1, 1), ("b", "c", 1, 1)]
        )
        p = Partition((0, 0, 1))
        for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
            gains = dict(evaluate_moves(net, p, 1, strategy))
            assert gains[0] == gains[1]
            trace = emit_trace(run(net, strategy))
            assert "Keep vertex b" in trace

    def test_degenerate_baseline_equivalence_sample(self):
        from helpers import random_degenerate_network

        rng = random.Random(23)
        net = random_degenerate_network(rng, 6)
        a = run(net, CLASSIC_INTERVAL)
        b = run(net, MIDPOINT)
        assert a.final_partition == b.final_partition
        assert [r.modularity for r in a.passes] == [r.modularity for r in b.passes]

    def test_midpoint_q_matches_networkx_at_scale(self):
        # an independent reference well beyond the oracle's n <= 12
        nx = pytest.importorskip("networkx")
        for seed in (1, 2):
            g = nx.planted_partition_graph(4, 50, 0.2, 0.02, seed=seed)
            rng = random.Random(seed)
            edges = []
            for u, v in g.edges():
                lo = rng.uniform(0.0, 5.0)
                hi = lo + rng.uniform(0.0, 5.0)
                edges.append((str(u), str(v), lo, hi))
                g[u][v]["weight"] = Interval(lo, hi).midpoint
            net = IWNetwork.from_edges([str(u) for u in g], edges)
            result = run(net, MIDPOINT)
            two_w = sum(map(sum, midpoints(net)))
            ref = nx.community.modularity(
                g, result.final_partition.communities, weight="weight"
            )
            assert result.final_partition.n_communities > 1
            assert math.isclose(result.final_q / two_w, ref, rel_tol=1e-12)


def _members(state):
    """Ascending member lists of every community id of a pass state."""
    members = [[] for _ in state.size]
    for u, c in enumerate(state.comm_of):
        members[c].append(u)
    return members


def _rest(state, v):
    """The member lists of a pass state with v removed, as ``step`` prices
    v's moves."""
    return [[u for u in m if u != v] for m in _members(state)]


def _full_difference_gains(net, rest, v, cids, q=q_interval_communities):
    """Reference gains of the isolated v joining each community in cids.

    ``rest`` lists the members of every community id with v already
    removed; a gain is q(v in C) minus q(v isolated), both over the whole
    partition.
    """
    base = q(net, [m for m in rest if m] + [[v]])
    gains = {}
    for c in cids:
        if not rest[c]:
            gains[c] = 0.0  # re-entering an emptied community
            continue
        comms = [sorted([*m, v]) if i == c else m for i, m in enumerate(rest) if m]
        gains[c] = q(net, comms) - base
    return gains


def _assert_gains_close(net, gains, ref):
    # gains are differences of terms as large as the total weight
    scale = net.total_weight().hi
    for c, g in gains.items():
        assert math.isclose(g, ref[c], rel_tol=1e-9, abs_tol=1e-9 * scale), (c, g, ref[c])


class TestIntervalGainDifferential:
    """Per-community interval gains against the full-difference reference."""

    def test_evaluate_moves_on_random_partitions(self):
        rng = random.Random(31)
        nets = [random_network(rng, n, density=0.3) for n in (5, 9, 14, 20, 26, 30)]
        nets += [random_degenerate_network(rng, n, density=0.3) for n in (6, 12, 24)]
        for net in nets:
            for _ in range(2):
                k = rng.randrange(1, net.n + 1)
                p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
                for v in range(net.n):
                    moves = dict(evaluate_moves(net, p, v, CLASSIC_INTERVAL))
                    rest = [[u for u in m if u != v] for m in p.communities]
                    ref = _full_difference_gains(net, rest, v, moves)
                    _assert_gains_close(net, moves, ref)

    def test_gains_during_full_runs(self, monkeypatch):
        # every evaluation of a whole run, after many incremental updates,
        # agrees with the reference, also where an adjusted total is 0/0
        checked = []
        original = _IntervalPass.step

        def step(state, v):
            cids = {state.comm_of[u] for u in state.net.rows[v]}
            ref = _full_difference_gains(state.net, _rest(state, v), v, cids)
            moved = original(state, v)
            _assert_gains_close(state.net, dict(zip(state.links, state.gains)), ref)
            checked.append(v)
            return moved

        monkeypatch.setattr(_IntervalPass, "step", step)
        rng = random.Random(32)
        nets = [random_network(rng, rng.randrange(4, 17), density=0.4) for _ in range(8)]
        nets += [random_degenerate_network(rng, rng.randrange(4, 17)) for _ in range(4)]
        # with every lower bound zero a community holding every edge has a
        # zero adjusted total, whose expected endpoint is 0; rounded
        # incremental strengths must not turn that into a division
        nets += [
            with_zero_lower_bounds(random_network(rng, rng.randrange(3, 10)), rng, share)
            for share in (0.5,) * 6 + (1.0,) * 24
        ]
        nets += _edge_case_networks(rng, 10, (3, 10))
        for net in nets:
            run(net, CLASSIC_INTERVAL)
        assert len(checked) > 300


def _q_midpoints(net, comms):
    return q_scalar_communities(net.midpoint_rows(), comms)


class TestScalarGainDifferential:
    """Scalar gains from the strength totals against full differences of
    q_scalar_communities on the midpoints."""

    @pytest.mark.parametrize("strategy", [HYBRID, MIDPOINT])
    def test_evaluate_moves_on_random_partitions(self, strategy):
        rng = random.Random(33)
        nets = [random_network(rng, n, density=0.3) for n in (5, 9, 14, 20, 26, 30)]
        nets += [random_degenerate_network(rng, n, density=0.3) for n in (6, 12, 24)]
        nets += _edge_case_networks(rng, 6, (5, 15))
        for net in nets:
            for _ in range(2):
                k = rng.randrange(1, net.n + 1)
                p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
                for v in range(net.n):
                    moves = dict(evaluate_moves(net, p, v, strategy))
                    rest = [[u for u in m if u != v] for m in p.communities]
                    ref = _full_difference_gains(net, rest, v, moves, _q_midpoints)
                    _assert_gains_close(net, moves, ref)

    @pytest.mark.parametrize("strategy", [HYBRID, MIDPOINT])
    def test_gains_during_full_runs(self, monkeypatch, strategy):
        # every evaluation of a whole run, after many updates of the
        # strength totals, agrees with the reference
        checked = []
        original = _ScalarPass.step

        def step(state, v):
            cids = {state.comm_of[u] for u in state.net.rows[v]}
            ref = _full_difference_gains(state.net, _rest(state, v), v, cids, _q_midpoints)
            moved = original(state, v)
            _assert_gains_close(state.net, dict(zip(state.links, state.gains)), ref)
            checked.append(v)
            return moved

        monkeypatch.setattr(_ScalarPass, "step", step)
        rng = random.Random(34)
        nets = [random_network(rng, rng.randrange(10, 40), density=0.2) for _ in range(8)]
        nets += [random_degenerate_network(rng, rng.randrange(4, 17)) for _ in range(4)]
        nets += _edge_case_networks(rng, 6, (3, 12))
        for net in nets:
            run(net, strategy)
        assert len(checked) > 500


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
def test_run_computes_q_once_per_pass(monkeypatch, strategy):
    """run() reads each pass's Q and Q_max from the sums of its pass states,
    so it collapses a partition only to aggregate a changed pass, and the
    trace reads the initial and every sweep's Q from its pass states'
    ``q()``: emit_trace, which drives the input through the pass loop again,
    collapses each changed pass's partition once more to aggregate it, and
    nothing else (midpoint's input prints as its degenerate projection,
    built without a collapse). Neither loads the reference module."""
    calls = []
    original = network.blocks
    monkeypatch.setattr(network, "blocks", lambda *a: calls.append(a) or original(*a))
    # with the module gone, any lookup of an oracle name would import it again
    monkeypatch.delitem(sys.modules, "iwnet.oracle", raising=False)
    monkeypatch.delattr(iwnet, "oracle", raising=False)
    # a multi-pass run, and one whose first pass moves nothing (no edge between vertices)
    loops = IWNetwork.from_edges(["a", "b"], [("a", "a", 1, 2), ("b", "b", 1, 2)])
    for net, min_passes in ((random_network(random.Random(55), 40, density=0.15), 3), (loops, 1)):
        calls.clear()
        result = run(net, strategy)
        assert len(result.passes) >= min_passes
        changed = [rec.partition.communities for rec in result.passes if rec.changed]
        assert [a[1] for a in calls] == changed
        calls.clear()
        emit_trace(result)
        assert [a[1] for a in calls] == changed
    assert "iwnet.oracle" not in sys.modules


def _projection_networks(rng):
    """Seeded networks, self-loops, a [0, 5e-324] edge (its midpoint is 0.0),
    -0.0 lower bounds and an isolated vertex."""
    nets = [random_network(rng, rng.randrange(2, 40), density=rng.choice((0.1, 0.4))) for _ in range(12)]
    nets += _edge_case_networks(rng, 6, (2, 12))
    labels = ["a", "b", "c", "d", "e"]
    nets.append(IWNetwork.from_edges(labels, [
        ("a", "a", 1, 3), ("a", "b", 0, 5e-324), ("b", "c", -0.0, 2.5), ("c", "c", -0.0, 4),
        ("a", "c", 0.5, 0.5), ("d", "d", 5e-324, 5e-324), ("b", "d", -0.0, 1e-300),
    ]))
    nets.append(IWNetwork.from_edges(["x", "y", "z"], [("x", "x", 2, 2), ("z", "z", 0, 1)]))
    return nets


def test_midpoint_projection_equals_singleton_aggregate():
    """The trace prints midpoint's input as ``_projection`` builds it, which
    is the aggregate of its singletons: the same labels, ascending keys, the
    bits of every endpoint and one Interval per entry, shared with its mirror."""
    nets = _projection_networks(random.Random(57))
    for net in nets:
        got = renderer._projection(net, net.midpoint_rows())
        ref = louvain._aggregate_midpoints(net, Partition.singletons(net.n))
        assert got.labels == ref.labels == net.labels
        assert [list(row) for row in got.rows] == [list(row) for row in ref.rows]
        assert all(list(row) == sorted(row) for row in got.rows)
        bits = [{j: (w.lo.hex(), w.hi.hex()) for j, w in row.items()} for row in got.rows]
        assert bits == [{j: (w.lo.hex(), w.hi.hex()) for j, w in row.items()} for row in ref.rows]
        assert all(got.rows[j][i] is w for i, j, w in got.edges())
    tiny = nets[-2]  # a-b is [0, 5e-324], whose midpoint is 0.0: no entry
    assert 1 in tiny.rows[0] and 1 not in renderer._projection(tiny, tiny.midpoint_rows()).rows[0]


def test_midpoint_input_prints_as_its_projection_at_both_ends():
    """A midpoint run whose first pass moves nothing ends on its input: the
    trace prints that network as the projection it is priced on, as the
    initial network and as the final one."""
    net = IWNetwork.from_edges(["x", "y", "z"], [("x", "x", 2, 2), ("z", "z", 0, 1)])
    result = run(net, "midpoint")
    assert result.final_network is net and len(result.passes) == 1
    matrix = "\n".join(louvain.format_matrix(renderer._projection(net, net.midpoint_rows()))) + "\n"
    assert "[0.5,0.5]" in matrix and "[0,1]" not in matrix
    trace = emit_trace(result)
    assert trace.split("Initial Interval-Weighted Network:\n")[1].startswith(matrix)
    assert trace.endswith("Final Interval-weighted network:\n\n" + matrix)


def _drift_networks(rng):
    """Random, degenerate, zero-lower-bound and isolated-vertex networks."""
    nets = [random_network(rng, rng.randrange(4, 30), density=rng.choice((0.1, 0.3))) for _ in range(24)]
    nets += [random_degenerate_network(rng, rng.randrange(4, 20), density=0.3) for _ in range(8)]
    return nets + _edge_case_networks(rng, 20, (3, 15))


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
def test_pass_q_matches_public_functions_exactly(strategy):
    """The Q and Q_max that run() reads from its pass states equal, bit for
    bit, the public functions on each pass's network under singletons."""
    if strategy.name == "cl":
        q_of, q_max_of = q_interval_communities, q_max_interval_adjusted
    else:
        q_of = lambda net, comms: q_scalar_communities(net.midpoint_rows(), comms)
        q_max_of = lambda net, p: q_max_scalar_communities(net.midpoint_rows(), p.communities)
    passes = 0
    for net in _drift_networks(random.Random(58)):
        result = run(net, strategy)
        for rec in result.passes:  # a no-change pass's network is its input
            singles = Partition.singletons(rec.aggregated.n)
            assert rec.modularity == q_of(rec.aggregated, singles.communities)
            passes += 1
        final = result.final_network
        singles = Partition.singletons(final.n)
        assert result.final_q == q_of(final, singles.communities)
        assert result.final_q_max == q_max_of(final, singles)
    assert passes > 100


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
def test_trace_q_matches_the_partition_level_reference(strategy):
    """The Q the trace prints, ``q()`` of each pass state of the run, read
    by a sweep hook before the pass's first sweep and after every sweep,
    against the reference partition-level Q of the same member lists: within
    1e-12 of the total weight, and printed alike by ``format_q``. The small
    dense networks end as one community, where Q is a rounding residue."""
    rng = random.Random(91)
    nets = [net for _, net in pinned_networks()] + _drift_networks(random.Random(58))
    nets += [tie_network(rng, shape, rng.randrange(3, 13)) for shape in ("ring", "star", "bipartite") * 4]
    nets.append(network_from_csv(io.StringIO(CYCLING_CSV)))
    dense = [random_network(rng, rng.randrange(2, 9), density=0.9) for _ in range(60)]
    single = [net for net in dense if run(net, strategy).final_network.n == 1]
    assert len(single) >= 10
    checked = 0

    def check(state):
        nonlocal checked
        if strategy.name == "cl":
            q_of, rows, scale = q_interval_communities, state.net, state.totals[1]
        else:
            q_of, rows, scale = q_scalar_communities, state.neigh, state.two_w
        got, ref = state.q(), q_of(rows, [m for m in _members(state) if m])
        assert math.isclose(got, ref, rel_tol=0.0, abs_tol=1e-12 * scale), (got, ref)
        assert renderer.format_q(got) == renderer.format_q(ref)
        checked += 1

    def sweep(state, iteration):
        if iteration == 1:
            check(state)
        moved = any([state.step(v) for v in range(state.net.n)])
        check(state)
        return moved

    for net in nets + single:
        assert run(net, strategy, sweep) == run(net, strategy)
    assert checked > 500


def test_interval_q_matches_paper_formula():
    """q_interval_communities (separable adjusted totals) against the
    paper's q_interval of pairwise-adjusted expected blocks, on the same
    seeds, to 1e-12 of the total weight."""
    rng = random.Random(58)
    checked = 0
    for net in _drift_networks(rng):
        parts = [Partition.singletons(net.n), run(net, CLASSIC_INTERVAL).final_partition]
        for _ in range(4):
            k = rng.randrange(1, net.n + 1)
            parts.append(Partition(tuple(rng.randrange(k) for _ in range(net.n))))
        for p in parts:
            agg = aggregate_sum(net, p)
            e = expected_interval_adjusted(agg).e
            ref = q_interval([agg.rows[r].get(r, ZERO) for r in range(agg.n)], [e[r][r] for r in range(agg.n)])
            got = q_interval_communities(net, p.communities)
            assert math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12 * net.total_weight().hi)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
def test_run_stays_sparse(monkeypatch, strategy):
    """run() on a large sparse network touches edges only and renders nothing."""
    rng = random.Random(41)
    n = 2000
    rows = [{} for _ in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            lo = rng.uniform(0.1, 5.0)
            rows[i][j] = rows[j][i] = Interval(lo, lo + rng.uniform(0.0, 5.0))
    net = IWNetwork(
        tuple(f"v{i}" for i in range(n)), tuple({j: r[j] for j in sorted(r)} for r in rows)
    )

    def refuse(*_):
        raise AssertionError("run() used a dense matrix")

    constructed = 0
    init = Interval.__init__

    def counting(self, *args):
        nonlocal constructed
        constructed += 1
        init(self, *args)

    monkeypatch.setattr(IWNetwork, "weights", property(refuse))
    monkeypatch.setattr(louvain, "format_matrix", refuse)
    monkeypatch.setattr(Interval, "__init__", counting)
    result = run(net, strategy)
    monkeypatch.setattr(Interval, "__init__", init)
    assert constructed < n * n // 10

    rendered = []
    monkeypatch.setattr(
        louvain, "format_matrix", lambda m: rendered.append(m) or [f"<{m.n} x {m.n}>"]
    )
    trace = emit_trace(result)
    changed = [rec.aggregated for rec in result.passes if rec.changed]
    assert rendered[1:] == [*changed, result.final_network]
    assert rendered[0].labels == net.labels
    assert f"<{n} x {n}>" in trace
    assert result.final_partition.n_communities < n


@pytest.fixture(scope="module")
def ring_csv():
    n = 20_000
    return "src,dst,lo,hi\n" + "".join(f"r{i},r{(i + 1) % n},1,2\n" for i in range(n))


# Run in a child, one per method, as the peak RSS only rises: prints how
# many kB ingesting the ring at argv[1] raised VmHWM, then how many run() did.
PEAK_RSS = """
import sys
from iwnet import network_from_csv, run

def peak_kb():
    with open('/proc/self/status', encoding='ascii') as status:
        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))

start = peak_kb()
net = network_from_csv(sys.argv[1])
ingest = peak_kb()
run(net, sys.argv[2])
print(ingest - start, peak_kb() - ingest)
"""


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
def test_run_memory_is_a_few_networks(ring_csv, strategy, tmp_path):
    """run() keeps no per-decision record: on the 20,000-vertex ring, whose
    run is 8 to 14 passes of 2 sweeps, its tracemalloc peak above the
    network it is given stays within a few times the network's own size
    (about 1.4x-1.6x; 2.0x-2.1x, and 2.8x for midpoint, while the result
    held the midpoint projection and the member lists of every partition).
    A log of every decision took it to 4.8x-5.0x.

    In a fresh process, where the peak RSS (VmHWM) is read, run() raises it
    by less than ingesting the ring from a file did (a decision log took the
    run to about twice the ingest). That half needs ``/proc/self/status``."""
    tracemalloc.start()
    try:
        net = network_from_csv(io.StringIO(ring_csv))
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run(net, strategy)
        peak = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    assert len(result.passes) >= 8
    assert peak < 2.5 * size, f"peak {peak} B above a {size} B network"

    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    path = tmp_path / "ring.csv"
    path.write_text(ring_csv, encoding="utf-8")
    src = str(Path(iwnet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, str(path), strategy.name],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ingest, grown = map(int, proc.stdout.split())
    assert grown < ingest, f"run() raised the peak RSS by {grown} kB, ingest by {ingest} kB"


def _hub_network(leaves):
    """Every leaf joined to one hub, and one leaf-leaf edge every 50 leaves:
    phase 1 gathers nearly every vertex into the hub's community."""
    labels = ["hub", *(f"l{i}" for i in range(leaves))]
    edges = [("hub", f"l{i}", 1, 1) for i in range(leaves)]
    edges += [(f"l{i}", f"l{i + 1}", 1, 1) for i in range(0, leaves - 1, 50)]
    return IWNetwork.from_edges(labels, edges)


@pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID])
def test_hub_network_scales_linearly(strategy):
    """A sweep is O(m) also when one community holds almost every vertex:
    four times the leaves take well under eight times as long (a cost
    linear in the size of the community moved in or out is about 12x)."""

    def best_of_2(net):
        times = []
        for _ in range(2):
            gc.collect()
            start = time.perf_counter()
            run(net, strategy)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best_of_2(_hub_network(5_000)), best_of_2(_hub_network(20_000))
    assert large / small < 8, (small, large)


class TestLazyDecisionLog:
    """run() keeps no decisions and builds none; decisions(run) and
    emit_trace derive them again, driving the input through the pass loop."""

    @pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
    def test_run_formats_no_gain(self, monkeypatch, strategy):
        net = random_network(random.Random(51), 40, density=0.15)

        def refuse(*_):
            raise AssertionError("run() built, derived or rendered a decision")

        monkeypatch.setattr(louvain, "format_matrix", refuse)
        for name in ("decisions", "_rerun", "format_q"):
            monkeypatch.setattr(renderer, name, refuse)
        monkeypatch.setattr(renderer.Decision, "__new__", refuse)
        for name in ("__init__", "sweep", "end"):
            monkeypatch.setattr(renderer._Trace, name, refuse)
        result = run(net, strategy)
        assert result.passes[0].changed
        monkeypatch.undo()
        assert "\tTry " in emit_trace(result)

    def test_midpoint_builds_intervals_for_its_aggregates_only(self, monkeypatch):
        """midpoint prices pass 1 on the input's midpoints: run() constructs no
        Interval before its first aggregate, then one per i <= j entry of each
        aggregate, shared by the entry and its mirror."""
        net = random_network(random.Random(55), 40, density=0.15)
        init, aggregate = Interval.__init__, louvain._aggregate_midpoints
        constructed, calls = [0], []

        def counting(self, *args):
            constructed[0] += 1
            init(self, *args)

        def aggregating(cur, p):
            before = constructed[0]
            agg = aggregate(cur, p)
            calls.append((before, constructed[0] - before, agg))
            return agg

        monkeypatch.setattr(Interval, "__init__", counting)
        monkeypatch.setattr(louvain, "_aggregate_midpoints", aggregating)
        result = run(net, MIDPOINT)
        monkeypatch.undo()
        aggregates = [agg for _, _, agg in calls]
        assert len(calls) >= 2 and calls[0][0] == 0
        assert aggregates == [rec.aggregated for rec in result.passes if rec.changed]
        assert [made for _, made, _ in calls] == [agg.edge_count() for agg in aggregates]
        assert constructed[0] == sum(agg.edge_count() for agg in aggregates)
        assert all(agg.rows[j][i] is w for agg in aggregates for i, j, w in agg.edges())

    @pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
    def test_log_holds_one_decision_per_vertex_and_sweep(self, strategy):
        result = run(random_network(random.Random(52), 60, density=0.1), strategy)
        log = list(renderer.decisions(result))
        assert all(isinstance(item, renderer.Decision) for item in log)
        assert len(log) == sum(
            rec.iterations * len(rec.partition.assignment) for rec in result.passes
        )

    def test_replay_leaves_the_run_unchanged(self):
        result = run(random_network(random.Random(53), 30, density=0.2), HYBRID)
        log = list(renderer.decisions(result))
        first = emit_trace(result)
        assert emit_trace(result) == first
        assert list(renderer.decisions(result)) == log

    @pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
    def test_replay_matches_live_membership(self, monkeypatch, strategy):
        """Each Try/Move/Keep line equals the line built from the driver's own
        membership at the moment of the decision in run()."""
        expected: list[str] = []
        kind = louvain._kind(strategy)
        step = kind.step

        def logged_step(state, v):
            # labels as before the decision: v in its own community only
            labels = [",".join(state.net.labels[u] for u in m) for m in _members(state)]
            own = state.comm_of[v]
            moved = step(state, v)
            vlabel = state.net.labels[v]
            for c, g in zip(state.links, state.gains):
                expected.append(f"\tTry {vlabel} -> {labels[c]:<15} | {_fmt_gain(g)}")
            if not moved:
                expected.append(f"\tKeep vertex {vlabel} at community {labels[own]}")
            else:
                expected.append(f"\tMove {vlabel} -> {labels[state.comm_of[v]]}")
            return moved

        rng = random.Random(54)
        for net in [random_network(rng, n, density=0.2) for n in (8, 25, 50)]:
            expected.clear()
            monkeypatch.setattr(kind, "step", logged_step)
            result = run(net, strategy)
            monkeypatch.setattr(kind, "step", step)  # the trace derives its own
            assert len(result.passes) >= 2  # the replay restarts on aggregated labels
            rendered = [
                line for line in emit_trace(result).splitlines()
                if line.startswith(("\tTry ", "\tMove ", "\tKeep "))
            ]
            assert rendered == expected


class _ScriptedState:
    """A pass state whose steps are given: ``script[v]`` is the candidates,
    gains and target (None for a keep) of v's step."""

    def __init__(self, net, script):
        self.net, self.script, self.comm_of = net, script, list(range(net.n))

    def q(self):
        return 0.0

    def step(self, v):
        candidates, self.gains, target = self.script.get(v, ((), [], None))
        self.links = dict.fromkeys(candidates, 0.0)
        if target is not None:
            self.comm_of[v] = target
        return target is not None


def test_try_lines_sign_and_mark_every_gain():
    """The trace's sweep hook renders each step's lines from the links and
    gains it left: a gain prints its sign, |gain| to 3 places and a mark,
    0 for -0.0 too; a move relabels the communities it changes."""
    net = IWNetwork.from_edges(["a", "b", "c", "d", "e", "f"], [("a", "b", 1, 1)])
    odd = (math.inf, -math.inf, math.nan, 1e-9, -5e-4, 5e-4)
    state = _ScriptedState(net, {
        0: ((0, 1, 2, 3, 4), [-0.0, 0.0, -1e-9, 2.5, -3.25], None),
        1: ((0,), [1.0], 0),
        2: ((0, 1, 3, 4, 5, 2), [*odd], None),
    })
    lines = []
    assert renderer._Trace(lines.append, net, "cl").sweep(state, 1)
    decided = [line for line in "".join(lines).splitlines() if line.startswith("\t")]
    assert decided[:8] == [
        "\tTry a -> a               | gain=+0.000 (0)",
        "\tTry a -> b               | gain=+0.000 (0)",
        "\tTry a -> c               | gain=-0.000 (-)",
        "\tTry a -> d               | gain=+2.500 (+)",
        "\tTry a -> e               | gain=-3.250 (-)",
        "\tKeep vertex a at community a",
        "\tTry b -> a               | gain=+1.000 (+)",
        "\tMove b -> a",
    ]
    labels = ["a,b", "", "c", "d", "e", "f"]
    assert decided[8:15] == [
        *(f"\tTry c -> {labels[c]:<15} | {_fmt_gain(g)}" for c, g in zip((0, 1, 3, 4, 5, 2), odd)),
        "\tKeep vertex c at community c",
    ]
    assert decided[15:] == [f"\tKeep vertex {x} at community {x}" for x in "def"]


def _fmt_gain(gain):
    """The gain field of a Try line: sign, magnitude to 3 places, and a
    mark that is 0 for a zero gain (-0.0 included)."""
    mark = "0" if gain == 0.0 else "+" if gain > 0.0 else "-"
    return f"gain={'-' if gain < 0.0 else '+'}{abs(gain):.3f} ({mark})"


def _reference_target(own, candidates, gains, gain_own):
    """The tie rule, by a sorted scan: the largest gain that is > 0 and beats
    returning home; the smallest id among equal gains; a tie with home keeps.
    On the integer-weighted tie networks gains are exact, so the rounding
    tolerance of the pass states' ``step`` never decides."""
    best = None
    for c in sorted(candidates):
        g = gains[candidates.index(c)]
        if c != own and g > 0.0 and g > gain_own and (best is None or g > best[1]):
            best = (c, g)
    return None if best is None else best[0]


def test_decisions_follow_the_tie_rule_on_exact_ties(monkeypatch):
    gain_owns = []
    for kind, q in ((_IntervalPass, q_interval_communities), (_ScalarPass, _q_midpoints)):
        def step(state, v, original=kind.step, q=q):
            own, rest = state.comm_of[v], _rest(state, v)
            moved = original(state, v)
            candidates = list(state.links)
            if own in candidates:
                gain_owns.append(state.gains[candidates.index(own)])
            else:  # v has no link into own: its gain from the reference
                gain_owns.append(_full_difference_gains(state.net, rest, v, [own], q)[own])
            return moved

        monkeypatch.setattr(kind, "step", step)
    rng = random.Random(81)
    nets = [tie_network(rng, shape, rng.randrange(3, 13)) for shape in ("ring", "star", "bipartite") * 6]
    ties = 0
    for net in nets:
        for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
            result = run(net, strategy)
            gain_owns.clear()  # keep those of the decisions derived again
            decisions = list(renderer.decisions(result))
            assert len(decisions) == len(gain_owns)
            for d, gain_own in zip(decisions, gain_owns):
                assert d.target == _reference_target(d.own, d.candidates, d.gains, gain_own)
                best = max((g for c, g in zip(d.candidates, d.gains) if c != d.own), default=0.0)
                ties += best > 0.0 and sum(g == best for c, g in zip(d.candidates, d.gains) if c != d.own) > 1
    assert ties >= 50


def _records(net, rng):
    """Directed flow records whose envelope is net, each pair split at random
    between the two directions, with self-loop records mixed in."""
    records = []
    for i, row in enumerate(net.rows):
        for j, w in row.items():
            if i < j:
                a, b = net.labels[i], net.labels[j]
                mid = rng.uniform(w.lo, w.hi)
                records += [DirectedFlowRecord(a, b, w.lo, mid), DirectedFlowRecord(b, a, mid, w.hi)]
        if rng.random() < 0.2:
            records.append(DirectedFlowRecord(net.labels[i], net.labels[i], 1.0, 2.0))
    rng.shuffle(records)
    return records


def test_networks_built_inside_pass_the_public_validator(monkeypatch):
    """symmetrize, the aggregates and the initial network of each trace (the
    input, or the midpoint projection the trace builds for midpoint) skip the
    checks of IWNetwork.__init__; rebuilding each through it changes nothing."""
    rendered, fmt = [], louvain.format_matrix
    monkeypatch.setattr(louvain, "format_matrix", lambda m: rendered.append(m) or fmt(m))
    rng = random.Random(82)
    nets = _edge_case_networks(rng, 8, (3, 14))
    nets += [random_degenerate_network(rng, rng.randrange(3, 14), density=0.3) for _ in range(4)]
    nets += [tie_network(rng, shape, rng.randrange(3, 10)) for shape in ("ring", "star", "bipartite")]
    checked = 0
    for net in nets:
        threshold = rng.choice([0.0, 2.0])
        sym = symmetrize(_records(net, rng), threshold)
        built = [sym]
        if sym.n and any(sym.rows):
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                result = run(sym, strategy)
                built += [rec.aggregated for rec in result.passes]
                rendered.clear()
                emit_trace(result)  # its first matrix: the input, or midpoint's projection
                built.append(rendered[0])
        for b in built:
            assert IWNetwork(b.labels, b.rows) == b
            checked += 1
    assert checked > 150
