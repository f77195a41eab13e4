import math
import random

import pytest

from iwnet import (
    CLASSIC_INTERVAL,
    HYBRID,
    Interval,
    IWNetwork,
    MIDPOINT,
    Partition,
    enumerate_best,
    partitions,
    q_definitional,
    run,
)
from iwnet.oracle import TooLarge

from helpers import from_matrix, toy_network, random_network, triplet_midpoints

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_are_bell_numbers(self, n):
        assert sum(1 for _ in partitions(n)) == BELL[n]

    def test_lexicographic_order(self):
        seq = list(partitions(4))
        assert seq == sorted(seq)
        assert seq[0] == (0, 0, 0, 0)
        assert seq[-1] == (0, 1, 2, 3)

    def test_restricted_growth_validity(self):
        for a in partitions(6):
            assert a[0] == 0
            for i in range(1, 6):
                assert a[i] <= max(a[:i]) + 1


class TestDefinitional:
    def test_classic_reference_values(self):
        net = toy_network()
        assert abs(q_definitional(net, Partition((0, 0, 1, 1)), CLASSIC_INTERVAL) - 20 / 7) < 1e-9
        assert abs(q_definitional(net, Partition.singletons(4), CLASSIC_INTERVAL) - (-7.0)) < 1e-9

    def test_scalar_all_in_one_zero(self):
        net = toy_network()
        p = Partition((0, 0, 0, 0))
        assert abs(q_definitional(net, p, MIDPOINT)) < 1e-9

    def test_matches_library_path(self):
        from iwnet import q_interval_communities, q_scalar_communities

        rng = random.Random(31)
        for _ in range(20):
            net = random_network(rng, rng.randrange(3, 7))
            k = rng.randrange(1, net.n + 1)
            p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
            assert math.isclose(
                q_definitional(net, p, CLASSIC_INTERVAL),
                q_interval_communities(net, p.communities),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
            assert math.isclose(
                q_definitional(net, p, MIDPOINT),
                q_scalar_communities(net.midpoint_rows(), p.communities),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )


class TestEnumerateBest:
    def test_reference_network_optimum(self):
        report = enumerate_best(toy_network(), CLASSIC_INTERVAL)
        assert report.partitions_evaluated == 15
        assert report.best_partition == Partition((0, 0, 1, 1))
        assert abs(report.best_q - 20 / 7) < 1e-9

    def test_two_vertex(self):
        net = IWNetwork.from_edges(["a", "b"], [("a", "b", 1, 2)])
        report = enumerate_best(net, MIDPOINT)
        assert report.partitions_evaluated == 2

    def test_bell_five(self):
        rng = random.Random(32)
        net = random_network(rng, 5)
        report = enumerate_best(net, HYBRID)
        assert report.partitions_evaluated == 52

    def test_triplet_lower_bound(self):
        mid = triplet_midpoints()
        net = from_matrix(
            ("v1", "v2", "v3"),
            tuple(
                tuple(Interval(mid[i][j], mid[i][j]) for j in range(3))
                for i in range(3)
            ),
        )
        report = enumerate_best(net, MIDPOINT)
        assert report.best_q >= -14 / 6 - 1e-12

    def test_too_large(self):
        rng = random.Random(33)
        net = random_network(rng, 13, density=0.3)
        with pytest.raises(TooLarge):
            enumerate_best(net, MIDPOINT)

    def test_beats_or_ties_driver(self):
        rng = random.Random(34)
        for _ in range(10):
            net = random_network(rng, rng.randrange(3, 7))
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                best = enumerate_best(net, strategy).best_q
                heuristic = run(net, strategy).final_q
                assert best >= heuristic - 1e-9
