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
    evaluate_moves,
    partitions,
    q_definitional,
    q_interval_communities,
    q_max_interval_adjusted,
    q_max_scalar_communities,
    q_scalar_communities,
    run,
)
from iwnet.cli import main
from iwnet.errors import InvalidInterval, IWNError, ZeroTotalWeight
from iwnet.louvain import NAMES
from iwnet.oracle import TooLarge

from helpers import from_matrix, toy_network, random_network, triplet_midpoints

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestEnumeration:
    @pytest.mark.parametrize("n", range(9))
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

    @pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
    def test_edgeless_is_zero(self, strategy):
        # a zero total makes every definition 0.0, where the library raises;
        # the search refuses the network as run() does
        net = IWNetwork.from_edges(["a", "b"], [])
        assert q_definitional(net, Partition.singletons(2), strategy) == 0.0
        with pytest.raises(ZeroTotalWeight, match="^network has no weight$"):
            enumerate_best(net, strategy)

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

    @pytest.mark.parametrize("strategy", [CLASSIC_INTERVAL, HYBRID, MIDPOINT])
    @pytest.mark.parametrize(
        "edges, message",
        [
            (
                [("a", "b", 1e308, 1.5e308), ("b", "c", 1e308, 1.5e308), ("c", "d", 1, 1)],
                "non-finite endpoint in [inf, inf]",
            ),
            (
                [("a", "b", 1e155, 2e155), ("b", "c", 1, 1)],
                "total weight 4e+155 overflows when squared",
            ),
        ],
        ids=["total", "squared"],
    )
    def test_overflowing_total_is_refused_as_run_refuses_it(self, strategy, edges, message):
        net = IWNetwork.from_edges(sorted({v for e in edges for v in e[:2]}), edges)
        for search in (enumerate_best, run):
            with pytest.raises(InvalidInterval) as caught:
                search(net, strategy)
            assert str(caught.value) == message

    def test_beats_or_ties_driver(self):
        rng = random.Random(34)
        for _ in range(10):
            net = random_network(rng, rng.randrange(3, 7))
            for strategy in (CLASSIC_INTERVAL, HYBRID, MIDPOINT):
                best = enumerate_best(net, strategy).best_q
                heuristic = run(net, strategy).final_q
                assert best >= heuristic - 1e-9


@pytest.mark.parametrize(
    "edges, refusal",
    [
        ([("a", "b", 0.0, 0.0)], (ZeroTotalWeight, "network has no weight")),
        (
            [("a", "b", 0.0, 5e-324), ("b", "c", 0.0, 5e-324)],
            (InvalidInterval, "total weight 2e-323 underflows when squared"),
        ),
        (
            [("a", "b", 1e-160, 1e-160), ("b", "c", 1e-160, 1e-160)],
            (InvalidInterval, "total weight 4e-160 underflows when squared"),
        ),
        (
            [("a", "b", 1e155, 2e155), ("b", "c", 1.0, 1.0)],
            (InvalidInterval, "total weight 4e+155 overflows when squared"),
        ),
        (
            [("a", "b", 1e308, 1.5e308), ("b", "c", 1e308, 1.5e308), ("c", "d", 1.0, 1.0)],
            (InvalidInterval, "non-finite endpoint in [inf, inf]"),
        ),
    ],
    ids=["edgeless", "subnormal", "square-underflows", "square-overflows", "total-overflows"],
)
def test_every_entry_point_refuses_alike(capsys, tmp_path, edges, refusal):
    """A network no track can price is refused by one rule, with one
    message, at every entry point that takes a network; the scalar pair
    refuses its midpoint total by the same rule, and ``iwnet oracle``
    prints what ``iwnet run`` prints."""
    net = IWNetwork.from_edges(sorted({v for e in edges for v in e[:2]}), edges)
    one, singletons = Partition([0] * net.n), Partition.singletons(net.n)
    calls = []
    for p in (one, singletons):
        calls += [
            lambda p=p: q_interval_communities(net, p.communities),
            lambda p=p: q_max_interval_adjusted(net, p),
        ]
    for name in NAMES:
        calls += [
            lambda s=name: run(net, s),
            lambda s=name: evaluate_moves(net, singletons, 0, s),
            lambda s=name: enumerate_best(net, s),
        ]
    for call in calls:
        with pytest.raises(IWNError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == refusal
    rows = net.midpoint_rows()  # [0, 5e-324] has a midpoint of 0.0: no scalar weight
    for call in (q_scalar_communities, q_max_scalar_communities):
        for p in (one, singletons):
            with pytest.raises(InvalidInterval if any(rows) else ZeroTotalWeight):
                call(rows, p.communities)
    path = tmp_path / "refused.csv"
    records = "".join(f"{s},{d},{lo!r},{hi!r}\n" for s, d, lo, hi in edges)
    path.write_text("src,dst,lo,hi\n" + records, encoding="utf-8")
    for name in NAMES:
        printed = []
        for argv in (["run", "--method", name], ["oracle", "--metric", name]):
            code = main([*argv, "--input", str(path)])
            printed.append((code, *capsys.readouterr()))
        assert printed == [(2, "", f"error: {refusal[0].__name__}: {refusal[1]}\n")] * 2


class TestMemberListsMustPartition:
    """The partition-level Q functions refuse member lists in which a vertex
    of the network is missing, repeated or out of range, as evaluate_moves
    refuses a partition of the wrong size, instead of pricing them."""

    NOT_PARTITIONS = [
        [[0, 1], [2]],  # 3 missing
        [[0, 1], [1, 2, 3]],  # 1 repeated
        [[0, 1], [2, 5]],  # 5 out of range
        [[0, 1], [2, 3, -1]],  # -1 out of range
        [[0, 1], [2, 3], [4]],  # n + 1 vertices
    ]

    @pytest.mark.parametrize("comms", NOT_PARTITIONS)
    def test_member_lists(self, comms):
        net = toy_network()
        with pytest.raises(ValueError, match="do not partition the 4 vertices"):
            q_interval_communities(net, comms)
        for q in (q_scalar_communities, q_max_scalar_communities):
            with pytest.raises(ValueError, match="do not partition the 4 vertices"):
                q(net.midpoint_rows(), comms)

    @pytest.mark.parametrize("assignment", [(0, 0, 1), (0, 0, 1, 1, 2)])
    def test_partition_of_another_size(self, assignment):
        with pytest.raises(ValueError, match="do not partition the 4 vertices"):
            q_max_interval_adjusted(toy_network(), Partition(assignment))

    def test_a_partition_is_priced(self):
        net, comms = toy_network(), [[0, 1], [2, 3]]
        assert q_interval_communities(net, comms) == run(net, "cl").final_q
        assert q_interval_communities(net, [[2, 3], [0, 1]]) == pytest.approx(20 / 7)
