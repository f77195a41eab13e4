import math
import random

import pytest

from iwnet import (
    Interval,
    IWNetwork,
    Partition,
    ZERO,
    adjusted_total_bounds,
    aggregate_minmax,
    aggregate_sum,
    dq_scalar_full,
    dq_scalar_reduced,
    expected_interval_adjusted,
    expected_scalar,
    q_interval,
    q_interval_communities,
    q_max_interval_adjusted,
    q_max_scalar_communities,
    q_scalar_communities,
)
from iwnet.errors import InvalidInterval, ZeroTotalWeight
from iwnet.modularity import _IntervalPass, expected_diag_adjusted
from iwnet.scalar import _ScalarPass
from iwnet.oracle import SameCommunity

from helpers import (
    from_matrix,
    midpoints,
    toy_midpoints,
    toy_network,
    random_degenerate_network,
    random_network,
    scalar_rows,
    triplet_midpoints,
    with_isolated_vertices,
    with_zero_lower_bounds,
)


class TestExpectedScalar:
    def test_reference_table(self):
        table = expected_scalar(toy_midpoints())
        s = [3, 3, 5, 3]
        for i in range(4):
            for j in range(4):
                expected = s[i] * s[j] / 14
                assert abs(table.e[i][j].midpoint - expected) < 1e-12
                assert table.e[i][j].lo == table.e[i][j].hi
        assert abs(table.e[0][2].midpoint - 15 / 14) < 1e-12
        assert abs(table.e[2][2].midpoint - 25 / 14) < 1e-12

    def test_two_vertex_single_edge(self):
        table = expected_scalar([[0.0, 4.0], [4.0, 0.0]])
        assert abs(table.e[0][1].midpoint - 2.0) < 1e-12

    def test_row_sums_match_strengths(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_network(rng, rng.randrange(3, 8))
            mid = midpoints(net)
            table = expected_scalar(mid)
            for i in range(net.n):
                row_sum = sum(e.midpoint for e in table.e[i])
                assert math.isclose(row_sum, sum(mid[i]), rel_tol=1e-9)

    def test_total_is_preserved(self):
        mid = toy_midpoints()
        table = expected_scalar(mid)
        total = sum(e.midpoint for row in table.e for e in row)
        assert abs(total - 14.0) < 1e-9

    def test_zero_total(self):
        with pytest.raises(ZeroTotalWeight):
            expected_scalar([[0.0, 0.0], [0.0, 0.0]])


class TestAdjustedExpected:
    def test_total_bound_pairs(self):
        net = toy_network()
        strengths = [net.strength(i) for i in range(4)]
        # (adjusted minimum, adjusted maximum) for all 10 vertex pairs
        expected = {
            (0, 0): (12, 16),
            (0, 1): (14, 14),
            (0, 2): (14, 14),
            (0, 3): (14, 14),
            (1, 1): (12, 16),
            (1, 2): (14, 14),
            (1, 3): (14, 14),
            (2, 2): (12, 16),
            (2, 3): (14, 14),
            (3, 3): (12, 16),
        }
        for (i, j), (lo, hi) in expected.items():
            adj_min, adj_max = adjusted_total_bounds(strengths, i, j)
            assert abs(adj_min - lo) < 1e-12
            assert abs(adj_max - hi) < 1e-12

    def test_reference_table(self):
        table = expected_interval_adjusted(toy_network())
        assert table.mode == "interval-adjusted"
        cases = {
            (0, 0): (4 / 16, 16 / 12),
            (0, 1): (4 / 14, 16 / 14),
            (0, 2): (8 / 14, 24 / 14),
            (2, 2): (16 / 16, 36 / 12),
            (2, 3): (8 / 14, 24 / 14),
        }
        for (i, j), (lo, hi) in cases.items():
            assert abs(table.e[i][j].lo - lo) < 1e-12
            assert abs(table.e[i][j].hi - hi) < 1e-12
            assert table.e[i][j] == table.e[j][i]

    def test_contained_in_unadjusted(self):
        rng = random.Random(12)
        for _ in range(30):
            net = random_network(rng, rng.randrange(3, 8))
            strengths = [net.strength(i) for i in range(net.n)]
            total = net.total_weight()
            table = expected_interval_adjusted(net)
            for i in range(net.n):
                for j in range(net.n):
                    naive = Interval(
                        strengths[i].lo * strengths[j].lo / total.hi,
                        strengths[i].hi * strengths[j].hi / total.lo,
                    )
                    tol = 1e-9 * (1 + naive.hi)
                    assert table.e[i][j].lo >= naive.lo - tol
                    assert table.e[i][j].hi <= naive.hi + tol

    def test_zero_adjusted_total(self):
        # an adjusted total vanishes only with its numerator; that 0/0
        # endpoint is 0, and a weightless network has no expectations
        loop = from_matrix(("a",), ((Interval(0, 5),),))
        assert expected_interval_adjusted(loop).e[0][0] == Interval(0, 5)
        isolated = IWNetwork.from_edges(["a", "b", "c"], [("a", "b", 0, 5)])
        assert expected_interval_adjusted(isolated).e[2][2] == ZERO
        net = from_matrix(("a", "b"), ((ZERO, ZERO), (ZERO, ZERO)))
        with pytest.raises(ZeroTotalWeight):
            expected_interval_adjusted(net)

    def test_diagonal_matches_pairwise_reference(self):
        # the O(q) separable diagonal of the pass states' sums against the pairwise
        # adjusted totals, on both tracks, over random partitions and zero lower bounds
        rng = random.Random(61)
        nets = [random_network(rng, n, density=0.3) for n in (4, 9, 17, 30)]
        nets += [
            with_isolated_vertices(
                with_zero_lower_bounds(random_network(rng, n, density=0.3), rng, share), rng, 2
            )
            for n, share in ((6, 0.5), (12, 1.0), (25, 0.5), (25, 1.0))
        ]
        for net in nets:
            for _ in range(3):
                k = rng.randrange(1, net.n + 1)
                p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
                agg = aggregate_sum(net, p)
                s = [agg.strength(r) for r in range(agg.n)]
                state = _IntervalPass(agg)
                for r, x in enumerate(state.vsum):
                    e_lo, e_hi = expected_diag_adjusted(x[2], x[3], *state.totals)
                    adj_min, adj_max = adjusted_total_bounds(s, r, r)
                    lo = s[r].lo * s[r].lo / adj_max if adj_max else 0.0
                    hi = s[r].hi * s[r].hi / adj_min if adj_min else 0.0
                    assert math.isclose(e_lo, lo, rel_tol=1e-12)
                    assert math.isclose(e_hi, hi, rel_tol=1e-12)
                mid = _ScalarPass(agg)
                for r, x in enumerate(mid.s):
                    e = x * x / (mid.two_w - x + x)  # as the scalar q() and q_max() divide
                    _, tw = adjusted_total_bounds([Interval(y, y) for y in mid.s], r, r)
                    assert math.isclose(e, mid.s[r] * mid.s[r] / tw, rel_tol=1e-12)


class TestScalarModularity:
    def test_triplet_values(self):
        rows = scalar_rows(triplet_midpoints())
        singles = Partition.singletons(3).communities
        assert abs(q_scalar_communities(rows, singles) - (-14 / 6)) < 1e-12
        merged = Partition((0, 0, 1)).communities
        assert abs(q_scalar_communities(rows, merged) - (-2 / 6)) < 1e-12

    def test_all_in_one_is_zero(self):
        rng = random.Random(13)
        for _ in range(10):
            net = random_network(rng, rng.randrange(3, 7))
            assert abs(q_scalar_communities(net.midpoint_rows(), [range(net.n)])) < 1e-9

    def test_triplet_gains_both_paths(self):
        mid = triplet_midpoints()
        singles = Partition.singletons(3)
        # merge {v1},{v2} and merge {v1},{v3}
        assert abs(dq_scalar_full(mid, singles, 0, 1) - 2.0) < 1e-12
        assert abs(dq_scalar_reduced(mid, singles, 0, 1) - 2.0) < 1e-12
        assert abs(dq_scalar_full(mid, singles, 0, 2) - 1.0) < 1e-12
        assert abs(dq_scalar_reduced(mid, singles, 0, 2) - 1.0) < 1e-12

    def test_gain_zero_for_disconnected_zero_expected(self):
        # isolated vertex: no connecting edge and zero expected block
        mid = [
            [0.0, 2.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
        singles = Partition.singletons(3)
        assert dq_scalar_full(mid, singles, 0, 2) == pytest.approx(0.0, abs=1e-12)
        assert dq_scalar_reduced(mid, singles, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_same_community_rejected(self):
        with pytest.raises(SameCommunity):
            dq_scalar_full(triplet_midpoints(), Partition.singletons(3), 1, 1)
        with pytest.raises(SameCommunity):
            dq_scalar_reduced(triplet_midpoints(), Partition.singletons(3), 1, 1)

    def test_full_equals_reduced_random(self):
        rng = random.Random(14)
        for _ in range(60):
            net = random_network(rng, rng.randrange(3, 9))
            mid = midpoints(net)
            k = rng.randrange(2, net.n + 1)
            p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
            if p.n_communities < 2:
                continue
            r, s = rng.sample(range(p.n_communities), 2)
            full = dq_scalar_full(mid, p, r, s)
            reduced = dq_scalar_reduced(mid, p, r, s)
            assert math.isclose(full, reduced, rel_tol=1e-9, abs_tol=1e-9)

    def test_q_norm_reference(self):
        mid = toy_midpoints()
        p = Partition((0, 0, 1, 1))
        # direct pairwise oracle for the denominator
        s = [sum(row) for row in mid]
        two_w = sum(s)
        e_within = sum(
            s[i] * s[j] / two_w
            for group in p.communities
            for i in group
            for j in group
        )
        q_max = two_w - e_within
        rows, comms = scalar_rows(mid), p.communities
        assert math.isclose(q_max_scalar_communities(rows, comms), q_max, rel_tol=1e-9)
        q_norm = q_scalar_communities(rows, comms) / q_max_scalar_communities(rows, comms)
        assert math.isclose(q_norm, (40 / 14) / (96 / 14), rel_tol=1e-9)

    def test_q_norm_zero_when_q_zero(self):
        # within-community observed equals expected while cross edges remain
        net = IWNetwork.from_edges(
            ["a", "b", "c", "d"],
            [("a", "b", 1, 1), ("c", "d", 1, 1), ("a", "c", 2, 2)],
        )
        rows, comms = net.midpoint_rows(), Partition((0, 0, 1, 1)).communities
        assert abs(q_scalar_communities(rows, comms)) < 1e-12
        assert q_max_scalar_communities(rows, comms) > 0

    def test_q_norm_degenerate_denominator(self):
        # one community holding every vertex leaves Q_max exactly 0, and
        # Q_norm undefined (``run`` reports it as NaN)
        assert q_max_scalar_communities(scalar_rows(toy_midpoints()), [range(4)]) == 0.0


class TestIntervalModularity:
    def test_initial_values(self):
        net = toy_network()
        adjusted = expected_interval_adjusted(net)
        o_blocks = [net.weights[i][i] for i in range(4)]
        e_blocks = [adjusted.e[i][i] for i in range(4)]
        assert abs(q_interval(o_blocks, e_blocks) - (-7.0)) < 1e-9

        mid_blocks = [Interval(m, m) for m in (0, 0, 0, 0)]
        scalar = expected_scalar(midpoints(net))
        e_mid = [scalar.e[i][i] for i in range(4)]
        assert abs(q_interval(mid_blocks, e_mid) - (-52 / 14)) < 1e-9

    def test_equal_blocks_zero(self):
        blocks = [Interval(1, 2), Interval(3, 5)]
        assert q_interval(blocks, list(blocks)) == 0.0
        with pytest.raises(ValueError, match="block counts differ"):
            q_interval(blocks, blocks[:1])

    def test_partition_values(self):
        net = toy_network()
        assert abs(q_interval_communities(net, Partition.singletons(4).communities) - (-7.0)) < 1e-9
        assert abs(q_interval_communities(net, [(0, 1), (2, 3)]) - 20 / 7) < 1e-9

    def test_gains_full_difference(self):
        net = toy_network()
        q_last = q_interval_communities(net, Partition.singletons(4).communities)
        q_12 = q_interval_communities(net, [(0, 1), (2,), (3,)])
        q_13 = q_interval_communities(net, [(0, 2), (1,), (3,)])
        assert abs((q_12 - q_last) - 4.095238095238095) < 1e-9
        assert abs((q_13 - q_last) - (-0.8095238095238102)) < 1e-9

    def test_reduced_form_invalid_for_intervals(self):
        # the scalar cancellation does not survive interval arithmetic:
        # moving through the full difference vs doubling the off-diagonal
        # signed difference disagree on the reference network
        net = toy_network()
        full = q_interval_communities(net, [(0, 1), (2,), (3,)]) - q_interval_communities(
            net, Partition.singletons(4).communities
        )
        table = expected_interval_adjusted(net)
        pseudo_reduced = 2.0 * (
            net.weights[0][1].midpoint - table.e[0][1].midpoint
        )
        assert not math.isclose(full, pseudo_reduced, rel_tol=1e-3)

    def test_q_norm_reference(self):
        # CL: Q / Q_max of the partition; HL: the scalar Q / Q_max of the
        # midpoints of its min-max aggregate under singletons
        net = toy_network()
        p = Partition((0, 0, 1, 1))
        q_max = q_max_interval_adjusted(net, p)
        assert abs(q_max - 44 / 7) < 1e-9
        assert abs(q_interval_communities(net, p.communities) / q_max - 5 / 11) < 1e-9
        agg = aggregate_minmax(net, p)
        rows, singles = agg.midpoint_rows(), Partition.singletons(agg.n).communities
        hl = q_scalar_communities(rows, singles) / q_max_scalar_communities(rows, singles)
        assert abs(hl - 5 / 12) < 1e-9

    def test_degenerate_network_matches_scalar_exactly(self):
        rng = random.Random(15)
        for _ in range(20):
            net = random_degenerate_network(rng, rng.randrange(3, 8))
            k = rng.randrange(1, net.n + 1)
            comms = Partition(tuple(rng.randrange(k) for _ in range(net.n))).communities
            assert q_interval_communities(net, comms) == q_scalar_communities(
                scalar_rows(midpoints(net)), comms
            )

    def test_degenerate_reference_network_matches_scalar(self):
        # the interval machinery on the degenerate projection of the
        # four-vertex fixture reproduces every scalar quantity exactly
        mid = toy_midpoints()
        net = from_matrix(
            ("v1", "v2", "v3", "v4"),
            tuple(tuple(Interval(m, m) for m in row) for row in mid),
        )
        for assignment in [(0, 1, 2, 3), (0, 0, 1, 2), (0, 0, 1, 1), (0, 1, 1, 2)]:
            comms = Partition(assignment).communities
            assert q_interval_communities(net, comms) == q_scalar_communities(
                scalar_rows(mid), comms
            )
        table = expected_interval_adjusted(net)
        scalar = expected_scalar(mid)
        for i in range(4):
            for j in range(4):
                assert table.e[i][j] == scalar.e[i][j]

    def test_q_scalar_zero_total(self):
        with pytest.raises(ZeroTotalWeight):
            q_scalar_communities([{}, {}], [[0], [1]])
        with pytest.raises(ZeroTotalWeight):
            q_max_scalar_communities([{}, {}], [[0], [1]])
        with pytest.raises(ZeroTotalWeight):
            dq_scalar_reduced([[0.0, 0.0], [0.0, 0.0]], Partition.singletons(2), 0, 1)
        net = IWNetwork.from_edges(["a", "b"], [("a", "b", 0.0, 5e-324)])
        # the edge's midpoint rounds to 0.0; its upper bound still weighs, so
        # the interval track raises nothing, and with T_lo = 0 its Q_max is 0
        assert q_max_interval_adjusted(net, Partition.singletons(2)) == 0.0
        with pytest.raises(ZeroTotalWeight):
            q_max_scalar_communities(net.midpoint_rows(), [[0], [1]])

    @pytest.mark.parametrize("assignment", [(0, 1), (0, 0)])
    def test_expected_diagonal_overflow(self, assignment):
        # a strength of 2e155 squares past the largest float: both tracks
        # refuse the expected block, rather than return -inf
        net = IWNetwork.from_edges(["a", "b"], [("a", "b", 1e155, 2e155)])
        p = Partition(assignment)
        rows = net.midpoint_rows()
        for call in (
            lambda: q_interval_communities(net, p.communities),
            lambda: q_max_interval_adjusted(net, p),
            lambda: q_scalar_communities(rows, p.communities),
            lambda: q_max_scalar_communities(rows, p.communities),
        ):
            with pytest.raises(InvalidInterval, match="expected diagonal block overflows"):
                call()
