import gc
import io
import math
import operator
import random
import tracemalloc

import pytest

from iwnet import (
    DirectedFlowRecord,
    Interval,
    IWNetwork,
    Partition,
    ZERO,
    aggregate_minmax,
    aggregate_sum,
    format_matrix,
    network_from_csv,
    read_flow_csv,
    symmetrize,
)
from iwnet import network
from iwnet.errors import DuplicateEdge, InvalidInterval, NegativeWeight, ParseError

from helpers import from_matrix, midpoints, toy_network, random_network


class TestIWNetwork:
    def test_strength(self):
        net = toy_network()
        assert net.strength(0) == Interval(2, 4)
        assert net.strength(2) == Interval(4, 6)

    def test_strength_isolated(self):
        net = IWNetwork.from_edges(["a", "b", "c"], [("a", "b", 1, 2)])
        assert net.strength(2) == ZERO

    def test_total_weight(self):
        assert toy_network().total_weight() == Interval(10, 18)
        empty = IWNetwork((), ())
        assert empty.total_weight() == ZERO

    def test_total_weight_degenerate(self):
        mid = midpoints(toy_network())
        labels = ["v1", "v2", "v3", "v4"]
        net = from_matrix(
            tuple(labels),
            tuple(tuple(Interval(m, m) for m in row) for row in mid),
        )
        assert net.total_weight() == Interval(14, 14)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            from_matrix(
                ("a", "b"),
                ((ZERO, Interval(1, 2)), (Interval(1, 3), ZERO)),
            )

    def test_negative_weight_rejected(self):
        with pytest.raises((NegativeWeight, InvalidInterval)):
            from_matrix(
                ("a", "b"),
                ((ZERO, Interval(-1, 2)), (Interval(-1, 2), ZERO)),
            )
        # only [0,0] is an absent edge: [-1,0] is kept, and refused
        with pytest.raises(NegativeWeight):
            IWNetwork.from_edges(("a", "b"), [("a", "b", -1, 0)])
        assert IWNetwork.from_edges(("a", "b"), [("a", "b", -0.0, 0)]).edge_count() == 0

    def test_neighbors_include_self_loop(self):
        net = from_matrix(
            ("a", "b"),
            ((Interval(1, 2), Interval(3, 3)), (Interval(3, 3), ZERO)),
        )
        assert list(net.rows[0]) == [0, 1]
        assert list(net.rows[1]) == [0]

    def test_rows_hold_present_edges_only(self):
        a, b = Interval(1, 2), Interval(0, 3)
        net = from_matrix(("x", "y", "z"), ((a, b, ZERO), (b, ZERO, ZERO), (ZERO,) * 3))
        assert net.rows == ({0: a, 1: b}, {0: b}, {})
        assert net.weights == ((a, b, ZERO), (b, ZERO, ZERO), (ZERO, ZERO, ZERO))
        assert net.edge_count() == 2

    @pytest.mark.parametrize(
        "rows",
        [
            ({1: ZERO}, {0: ZERO}),  # an absent edge has no entry
            ({1: Interval(1, 2)}, {}),  # one-sided
            ({1: Interval(1, 2), 0: Interval(1, 1)}, {0: Interval(1, 2)}),  # keys descend
            ({2: Interval(1, 2)}, {}),  # key out of range
        ],
    )
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            IWNetwork(("a", "b"), rows)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IWNetwork.from_edges(["a", "a", "b"], [("a", "b", 1, 2)]),
            lambda: from_matrix(("b", "a", "a"), ((ZERO,) * 3,) * 3),
            lambda: IWNetwork(("a", "b", "a"), ({}, {}, {})),
        ],
    )
    def test_duplicate_label_rejected(self, build):
        with pytest.raises(ValueError, match="duplicate vertex label 'a'"):
            build()

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count does not match label count"):
            IWNetwork(("a", "b"), ({},))

    def test_from_edges_equals_from_matrix(self):
        # duplicates (in either direction, the later wins), self-loops,
        # [0,0] edges, zero lower bounds and degenerate weights
        rng = random.Random(71)
        for _ in range(200):
            n = rng.randrange(1, 12)
            labels = [f"v{i}" for i in range(n)]
            w = [[ZERO] * n for _ in range(n)]
            edges = []
            for _ in range(rng.randrange(3 * n)):
                i, j = rng.randrange(n), rng.randrange(n)
                lo = rng.choice([0.0, float(rng.randrange(1, 4)), rng.uniform(0.0, 5.0)])
                hi = lo + rng.choice([0.0, rng.uniform(0.0, 5.0)])
                edges.append((labels[i], labels[j], lo, hi))
                w[i][j] = w[j][i] = Interval(lo, hi)
            net = IWNetwork.from_edges(labels, edges)
            assert net == from_matrix(labels, w)
            assert all(list(row) == sorted(row) for row in net.rows)

    @pytest.mark.parametrize("edge", [("a", "x", 1, 2), ("x", "a", 1, 2), ("x", "x", 1, 2)])
    def test_from_edges_unknown_label_rejected(self, edge):
        with pytest.raises(ValueError, match=f"edge {edge[0]}-{edge[1]} names unknown label 'x'"):
            IWNetwork.from_edges(["a", "b"], [("a", "b", 1, 2), edge])

    def test_from_edges_builds_no_matrix(self):
        n = 100_000
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[(i * 7919) % n], 1.0, 2.0) for i in range(1, 11)]
        net = IWNetwork.from_edges(labels, edges)
        assert net.n == n
        assert net.edge_count() == 10
        assert sum(map(len, net.rows)) == 20


class TestSymmetrize:
    def test_bidirectional_envelope(self):
        records = [
            DirectedFlowRecord("A", "B", 1496, 1585),
            DirectedFlowRecord("B", "A", 1782, 1814),
        ]
        net = symmetrize(records, 0.0)
        assert net.labels == ("A", "B")
        assert net.weights[0][1] == Interval(1496, 1814)
        # brute-force the envelope rule over the two records
        lows = [1496, 1782]
        highs = [1585, 1814]
        assert net.weights[0][1] == Interval(min(lows), max(highs))

    def test_single_direction(self):
        net = symmetrize([DirectedFlowRecord("A", "B", 5, 7)], 0.0)
        assert net.weights[0][1] == Interval(5, 7)

    def test_threshold_discards(self):
        net = symmetrize([DirectedFlowRecord("A", "B", 10, 40)], 50.0)
        assert net.weights[0][1] == ZERO

    def test_threshold_keeps_boundary(self):
        net = symmetrize([DirectedFlowRecord("A", "B", 10, 50)], 50.0)
        assert net.weights[0][1] == Interval(10, 50)

    def test_threshold_drops_one_direction(self):
        records = [
            DirectedFlowRecord("A", "B", 10, 40),
            DirectedFlowRecord("B", "A", 60, 80),
        ]
        net = symmetrize(records, 50.0)
        assert net.weights[0][1] == Interval(60, 80)

    def test_self_loops_dropped_with_count(self):
        records = [
            DirectedFlowRecord("A", "A", 5, 6),
            DirectedFlowRecord("A", "B", 1, 2),
        ]
        net = symmetrize(records, 0.0)
        assert net.dropped_self_loops == 1
        assert net.weights[0][0] == ZERO

    def test_records_below_threshold_counted(self):
        records = [
            DirectedFlowRecord("A", "B", 10, 40),  # below; B->A keeps the edge
            DirectedFlowRecord("B", "A", 60, 80),
            DirectedFlowRecord("B", "C", 0, 49.5),  # below; C stays a vertex
            DirectedFlowRecord("C", "C", 0, 1),  # a self-loop, counted as one
            DirectedFlowRecord("C", "A", 1, 50),  # at the threshold: kept
        ]
        net = symmetrize(records, 50.0)
        assert (net.dropped_self_loops, net.dropped_below_threshold) == (1, 2)
        assert net.edge_count() == 2
        assert symmetrize(records, 0.0).dropped_below_threshold == 0
        # the counts describe ingestion, not the network
        assert net == IWNetwork(net.labels, net.rows)

    def test_nan_threshold_refused(self):
        # no `hi < nan` holds, so a NaN threshold would keep every record
        with pytest.raises(ValueError, match="nan"):
            symmetrize([DirectedFlowRecord("A", "B", 1, 2)], math.nan)
        with pytest.raises(ValueError, match="nan"):
            network_from_csv(io.StringIO("src,dst,lo,hi\nA,B,1,2\n"), threshold=math.nan)

    def test_duplicate_directed_record_rejected(self):
        records = [
            DirectedFlowRecord("A", "B", 1, 2),
            DirectedFlowRecord("A", "B", 3, 4),
        ]
        with pytest.raises(DuplicateEdge):
            symmetrize(records, 0.0)

    def test_reverse_pair_allowed_when_directed(self):
        records = [
            DirectedFlowRecord("A", "B", 1, 2),
            DirectedFlowRecord("B", "A", 3, 4),
        ]
        assert symmetrize(records, 0.0).weights[0][1] == Interval(1, 4)

    def test_reverse_pair_rejected_when_undirected(self):
        records = [
            DirectedFlowRecord("A", "B", 1, 2),
            DirectedFlowRecord("B", "A", 3, 4),
        ]
        with pytest.raises(DuplicateEdge):
            symmetrize(records, 0.0, directed=False)

    def test_first_appearance_vertex_order(self):
        records = [
            DirectedFlowRecord("C", "A", 1, 2),
            DirectedFlowRecord("B", "C", 3, 4),
        ]
        assert symmetrize(records, 0.0).labels == ("C", "A", "B")

    def test_output_invariants_random(self):
        rng = random.Random(7)
        labels = ["r1", "r2", "r3", "r4", "r5"]
        for _ in range(50):
            records = []
            seen = set()
            for _ in range(rng.randrange(1, 12)):
                s, d = rng.choice(labels), rng.choice(labels)
                if (s, d) in seen:
                    continue
                seen.add((s, d))
                lo = rng.uniform(0, 5)
                records.append(DirectedFlowRecord(s, d, lo, lo + rng.uniform(0, 5)))
            net = symmetrize(records, rng.choice([0.0, 3.0]))
            for i in range(net.n):
                assert net.weights[i][i] == ZERO
                for j in range(net.n):
                    assert net.weights[i][j] == net.weights[j][i]
                    assert net.weights[i][j].lo >= 0


class TestAggregation:
    def test_sum_reference(self):
        net = toy_network()
        p = Partition((0, 0, 1, 1))
        agg = aggregate_sum(net, p)
        assert agg.labels == ("v1,v2", "v3,v4")
        assert agg.weights[0][0] == Interval(2, 6)
        assert agg.weights[0][1] == Interval(2, 2)
        assert agg.weights[1][1] == Interval(4, 8)

    def test_sum_singletons_identity(self):
        net = toy_network()
        agg = aggregate_sum(net, Partition.singletons(4))
        assert agg == net

    def test_sum_all_in_one(self):
        net = toy_network()
        agg = aggregate_sum(net, Partition((0, 0, 0, 0)))
        assert agg.weights[0][0] == net.total_weight()

    def test_minmax_reference(self):
        net = toy_network()
        p = Partition((0, 0, 1, 1))
        agg = aggregate_minmax(net, p)
        assert agg.weights[0][0] == Interval(1, 3)
        assert agg.weights[0][1] == Interval(1, 1)
        assert agg.weights[1][1] == Interval(2, 4)

    def test_minmax_singletons_identity(self):
        net = toy_network()
        assert aggregate_minmax(net, Partition.singletons(4)) == net

    def test_minmax_absent_block_stays_absent(self):
        net = IWNetwork.from_edges(
            ["a", "b", "c", "d"], [("a", "b", 1, 2), ("c", "d", 3, 4)]
        )
        p = Partition((0, 0, 1, 1))
        agg = aggregate_minmax(net, p)
        assert agg.weights[0][1] == ZERO

    def test_sum_preserves_total(self):
        rng = random.Random(3)
        for _ in range(30):
            net = random_network(rng, rng.randrange(3, 8))
            assignment = tuple(rng.randrange(3) for _ in range(net.n))
            agg = aggregate_sum(net, Partition(assignment))
            total = net.total_weight()
            agg_total = agg.total_weight()
            assert math.isclose(agg_total.lo, total.lo, rel_tol=1e-12)
            assert math.isclose(agg_total.hi, total.hi, rel_tol=1e-12)

    def test_minmax_respects_envelope(self):
        rng = random.Random(4)
        for _ in range(30):
            net = random_network(rng, rng.randrange(3, 8))
            assignment = tuple(rng.randrange(3) for _ in range(net.n))
            p = Partition(assignment)
            agg = aggregate_minmax(net, p)
            present = [
                w for row in net.weights for w in row if w != ZERO
            ]
            lo = min(w.lo for w in present)
            hi = max(w.hi for w in present)
            for row in agg.weights:
                for w in row:
                    if w != ZERO:
                        assert lo <= w.lo and w.hi <= hi

    def test_relabeling_invariance(self):
        net = toy_network()
        p1 = Partition((0, 0, 1, 1))
        p2 = Partition((1, 1, 0, 0))
        assert p1 == p2
        assert aggregate_sum(net, p1) == aggregate_sum(net, p2)


def _mixed_network(rng, n):
    """Sparse network with zero lower bounds, degenerate weights and isolated
    vertices (every fifth vertex has no edge)."""
    w = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i % 5 and j % 5 and rng.random() < 0.3:
                hi = rng.uniform(0.1, 10.0)
                kind = rng.random()
                lo = 0.0 if kind < 0.3 else hi if kind < 0.6 else rng.uniform(0.0, hi)
                w[i][j] = w[j][i] = Interval(lo, hi)
    return from_matrix([f"n{i}" for i in range(n)], w)


def _dense_sum(weights, comms, zero):
    q = len(comms)
    out = [[zero] * q for _ in range(q)]
    for r in range(q):
        for c in range(r, q):
            acc = zero
            for i in comms[r]:
                for j in comms[c]:
                    acc = acc + weights[i][j]
            out[r][c] = out[c][r] = acc
    return out


def _dense_minmax(weights, comms):
    q = len(comms)
    out = [[ZERO] * q for _ in range(q)]
    for r in range(q):
        for c in range(r, q):
            lo = hi = None
            for i in comms[r]:
                for j in comms[c]:
                    w = weights[i][j]
                    if w != ZERO:
                        lo = w.lo if lo is None else min(lo, w.lo)
                        hi = w.hi if hi is None else max(hi, w.hi)
            if lo is not None:
                out[r][c] = out[c][r] = Interval(lo, hi)
    return out


def _densify(upper, k, zero, finish=lambda b: b):
    """The dense k x k matrix of the upper blocks ``upper``, each made an
    entry by ``finish``, after checking that they come as
    ``IWNetwork._built`` takes them and that it lays them out in
    ascending, symmetric maps."""
    upper = [(r, c, finish(b)) for r, c, b in upper]
    assert all(r <= c for r, c, _ in upper)
    assert [b[:2] for b in upper] == sorted(b[:2] for b in upper)
    rows = IWNetwork._built(tuple(map(str, range(k))), upper).rows
    assert all(list(row) == sorted(row) for row in rows)
    assert all(rows[c][r] is rows[r][c] for r, c, _ in upper)
    return [[row.get(c, zero) for c in range(k)] for row in rows]


class TestBlocksMatchDenseLoops:
    """The one-pass edge aggregation equals the dense double loops bit for bit."""

    def _levels(self):
        rng = random.Random(8)
        for _ in range(25):
            net = _mixed_network(rng, rng.randrange(2, 20))
            k = rng.randrange(1, net.n + 1)
            p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
            yield rng, net
            # the aggregated level carries self-loops
            yield rng, aggregate_sum(net, p)
            yield rng, aggregate_minmax(net, p)

    def test_aggregates_and_blocks(self):
        for rng, net in self._levels():
            k = rng.randrange(1, net.n + 1)
            p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
            assert aggregate_sum(net, p).weights == tuple(
                map(tuple, _dense_sum(net.weights, p.communities, ZERO))
            )
            assert aggregate_minmax(net, p).weights == tuple(
                map(tuple, _dense_minmax(net.weights, p.communities))
            )
            # community order as the driver lists them, not first appearance
            comms = list(p.communities)
            rng.shuffle(comms)
            k = len(comms)
            assert _densify(network.blocks(net.rows, comms, operator.add, ZERO), k, ZERO) == (
                _dense_sum(net.weights, comms, ZERO)
            )
            # the float folds of the aggregates, finished as Intervals
            pair = lambda b: Interval(*b)  # noqa: E731
            assert _densify(
                network.blocks(net.rows, comms, network.pair_sum, (0.0, 0.0)), k, ZERO, pair
            ) == _dense_sum(net.weights, comms, ZERO)
            assert _densify(network.blocks(net.rows, comms, network.envelope, None), k, ZERO, pair) == (
                _dense_minmax(net.weights, comms)
            )
            mids = network.blocks(net.midpoint_rows(), comms, operator.add, 0.0)
            assert _densify(mids, k, 0.0) == _dense_sum(midpoints(net), comms, 0.0)


def test_midpoint_rows_are_the_midpoints_bit_for_bit():
    """``midpoint_rows`` computes ``Interval.midpoint`` inline: the same
    bits, the same key order, and a midpoint of 0.0 left out."""
    rng = random.Random(58)
    nets = [random_network(rng, rng.randrange(2, 30), density=0.3) for _ in range(10)]
    nets.append(IWNetwork.from_edges(["a", "b", "c", "d"], [
        ("a", "a", 1, 3), ("a", "b", 0, 5e-324), ("b", "c", -0.0, 2.5),
        ("c", "c", 5e-324, 5e-324), ("a", "c", 1e300, 1e300), ("c", "d", 0.1, 0.7),
    ]))
    for net in nets:
        expected = [[(j, w.midpoint.hex()) for j, w in row.items() if w.midpoint != 0.0] for row in net.rows]
        assert [[(j, m.hex()) for j, m in row.items()] for row in net.midpoint_rows()] == expected
    assert nets[-1].midpoint_rows()[0] == {0: 2.0, 2: 1e300}  # a-b is [0, 5e-324]


class TestCsv:
    def test_roundtrip(self):
        text = "src,dst,lo,hi\nA,B,1,3\nB,C,2,2\n"
        records = read_flow_csv(io.StringIO(text))
        assert records == [
            DirectedFlowRecord("A", "B", 1.0, 3.0),
            DirectedFlowRecord("B", "C", 2.0, 2.0),
        ]

    def test_byte_order_mark_skipped(self):
        text = "src,dst,lo,hi\nA,B,1,3\n"
        records = read_flow_csv(io.StringIO(text))
        assert read_flow_csv(io.StringIO("\ufeff" + text)) == records
        # only before the header: elsewhere it is part of the field
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO("src,\ufeffdst,lo,hi\n"))
        assert exc.value.line == 1

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO("a,b,c,d\n1,2,3,4\n"))
        assert exc.value.line == 1

    def test_bad_number_has_line(self):
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO("src,dst,lo,hi\nA,B,1,3\nB,C,x,2\n"))
        assert exc.value.line == 3

    def test_inverted_interval_has_line(self):
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO("src,dst,lo,hi\nA,B,5,3\n"))
        assert exc.value.line == 2

    def test_negative_weight_has_line(self):
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO("src,dst,lo,hi\nA,B,-1,3\n"))
        assert exc.value.line == 2

    def test_network_from_csv(self):
        text = "src,dst,lo,hi\nA,B,1,3\nB,A,2,5\n"
        net = network_from_csv(io.StringIO(text))
        assert net.weights[0][1] == Interval(1, 5)


def _reference_fold(records, threshold, directed):
    """symmetrize, record by record: labels, ascending rows of Intervals
    without [0,0], and the two drop counts. Each surviving record is one
    ``Interval``, and a pair's weight is the envelope of it and the pair's
    weight so far."""
    index, rows, seen = {}, [], set()
    loops = below = 0
    for rec in records:
        key = (rec.src, rec.dst) if directed else frozenset((rec.src, rec.dst))
        if key in seen:
            raise DuplicateEdge(key)
        seen.add(key)
        for lab in (rec.src, rec.dst):
            if lab not in index:
                index[lab] = len(index)
                rows.append({})
        i, j = index[rec.src], index[rec.dst]
        if i == j:
            loops += 1
        elif rec.hi < threshold:
            below += 1
        else:
            w = Interval(rec.lo, rec.hi)
            prev = rows[i].get(j)
            if prev is not None:
                w = Interval(min(prev.lo, w.lo), max(prev.hi, w.hi))
            rows[i][j] = rows[j][i] = w
    rows = [{j: row[j] for j in sorted(row) if row[j] != ZERO} for row in rows]
    return tuple(index), rows, loops, below


def _weight_text(rng):
    """A weight as a CSV writes it: int, float, zero lower bound, -0.0, [0,0]."""
    kind = rng.randrange(6)
    x = rng.uniform(0.0, 5.0)
    return {
        0: (str(rng.randrange(4)), str(rng.randrange(4, 8))),
        1: (repr(x), repr(x + rng.uniform(0.0, 5.0))),
        2: ("0", repr(x)),
        3: ("-0.0", rng.choice(["-0.0", "0", repr(x)])),
        4: (repr(x), repr(x)),
        5: ("0", rng.choice(["0", "0.0", "-0.0"])),
    }[kind]


def _flow_csv(rng, directed):
    """Seeded records over a few labels: both directions of most pairs when
    directed, self-loops, and no repeated key."""
    labels = [f"n{i}" for i in range(rng.randrange(2, 9))]
    lines, keys = ["src,dst,lo,hi"], set()
    for _ in range(rng.randrange(1, 30)):
        a, b = rng.choice(labels), rng.choice(labels)
        key = (a, b) if directed else frozenset((a, b))
        if key not in keys:
            keys.add(key)
            lines.append(",".join((a, b, *_weight_text(rng))))
    return "\n".join(lines) + "\n"


def _bits(net_rows):
    return [{j: (repr(w.lo), repr(w.hi)) for j, w in row.items()} for row in net_rows]


class TestIngestDifferential:
    """network_from_csv against the record-by-record reference fold: labels,
    keys, the bits of every endpoint (-0.0 included) and the drop counts."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_reference_fold(self, directed):
        rng = random.Random(91 + directed)
        checked = 0
        for _ in range(300):
            text = _flow_csv(rng, directed)
            records = read_flow_csv(io.StringIO(text))
            # no threshold, one below every weight, and one equal to a record's hi (kept)
            for threshold in (0.0, -1.0, rng.choice(records).hi):
                labels, rows, loops, below = _reference_fold(records, threshold, directed)
                net = network_from_csv(io.StringIO(text), directed=directed, threshold=threshold)
                assert net.labels == labels
                assert _bits(net.rows) == _bits(rows)
                assert (net.dropped_self_loops, net.dropped_below_threshold) == (loops, below)
                assert net == IWNetwork(labels, tuple(rows))  # the public checks pass
                checked += 1
        assert checked == 900

    def test_signed_zeros_fold_in_record_order(self):
        text = "src,dst,lo,hi\na,b,-0.0,1\nb,a,0,2\nc,d,0,-0.0\nd,c,-0.0,0\ne,f,-0.0,0\nf,e,0,-0.0\n"
        net = network_from_csv(io.StringIO(text))
        assert _bits(net.rows) == [{1: ("-0.0", "2.0")}, {0: ("-0.0", "2.0")}, {}, {}, {}, {}]

    @pytest.mark.parametrize("src, dst", [("b", "a"), ("a", "b")])
    def test_undirected_repeated_pair_rejected(self, src, dst):
        text = f"src,dst,lo,hi\na,b,1,2\nb,c,1,1\n{src},{dst},3,4\n"
        with pytest.raises(DuplicateEdge, match=f"duplicate record {src}->{dst}"):
            network_from_csv(io.StringIO(text), directed=False)

    @pytest.mark.parametrize(
        "lines, threshold, directed, repeated",
        [
            # a repeated self-loop, both ways of reading the records
            (["a,a,1,2", "b,a,1,1", "a,a,1,2"], 0.0, True, "a->a"),
            (["a,a,1,2", "b,a,1,1", "a,a,1,2"], 0.0, False, "a->a"),
            # a repeated record below --min-weight, and its reverse when undirected
            (["a,b,0,1", "b,c,3,4", "a,b,0,1"], 2.0, True, "a->b"),
            (["a,b,0,1", "b,c,3,4", "b,a,0,1"], 2.0, False, "b->a"),
            # a reversed pair under --undirected
            (["a,b,1,2", "b,c,1,1", "b,a,3,4"], 0.0, False, "b->a"),
            # both directions of a pair when directed, one of them dropped or not
            (["a,b,1,2", "b,c,1,1", "b,a,3,4"], 0.0, True, None),
            (["a,b,0,1", "b,c,3,4", "b,a,3,4"], 2.0, True, None),
            (["b,a,3,4", "b,c,3,4", "a,b,0,1"], 2.0, True, None),
        ],
    )
    def test_duplicates_match_reference_fold(self, lines, threshold, directed, repeated):
        text = "\n".join(["src,dst,lo,hi", *lines]) + "\n"
        records = read_flow_csv(io.StringIO(text))
        if repeated:
            with pytest.raises(DuplicateEdge):
                _reference_fold(records, threshold, directed)
            with pytest.raises(DuplicateEdge, match=f"^duplicate record {repeated}$"):
                network_from_csv(io.StringIO(text), directed=directed, threshold=threshold)
            return
        labels, rows, loops, below = _reference_fold(records, threshold, directed)
        net = network_from_csv(io.StringIO(text), directed=directed, threshold=threshold)
        assert (net.labels, _bits(net.rows)) == (labels, _bits(rows))
        assert (net.dropped_self_loops, net.dropped_below_threshold) == (loops, below)

    def test_malformed_line_after_a_duplicate_is_reported(self):
        # every line is parsed before any record is folded
        text = "src,dst,lo,hi\na,b,1,2\na,b,1,2\nb,c,1,1\nc,d,x,1\n"
        with pytest.raises(ParseError) as exc:
            network_from_csv(io.StringIO(text))
        assert exc.value.line == 5

    @pytest.mark.parametrize(
        "line, message",
        [
            ("A,B,5,3", "line 3: A->B: lo 5.0 > hi 3.0"),
            ("A,B,-1,3", "line 3: A->B: lo -1.0 < 0"),
            ("A,B,-1,-2", "line 3: A->B: lo -1.0 > hi -2.0"),
            ("A,B,-0.5,-0.25", "line 3: A->B: lo -0.5 < 0"),
            ("A,B,inf,3", "line 3: non-finite weight in 'inf','3'"),
            ("A,B,1,nan", "line 3: non-finite weight in '1','nan'"),
            ("A,B,-inf,nan", "line 3: non-finite weight in '-inf','nan'"),
            ("A,B,1e400,1e401", "line 3: non-finite weight in '1e400','1e401'"),
            ("A,B,x,2", "line 3: non-numeric weight in 'x','2'"),
        ],
    )
    def test_weight_errors_keep_line_and_message(self, line, message):
        with pytest.raises(ParseError) as exc:
            read_flow_csv(io.StringIO(f"src,dst,lo,hi\nC,D,1,2\n{line}\n"))
        assert (exc.value.line, str(exc.value)) == (3, message)


def _write_flows(path, n=2_000, pairs=10_000, seed=5):
    """Seeded directed flows: ``pairs`` distinct pairs over n labels, each
    pair in both directions with its own weight."""
    rng = random.Random(seed)
    seen = set()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("src,dst,lo,hi\n")
        while len(seen) < pairs:
            a, b = rng.sample(range(n), 2)
            if (a, b) in seen or (b, a) in seen:
                continue
            seen.add((a, b))
            for s, d in ((a, b), (b, a)):
                lo = rng.uniform(0.0, 5.0)
                fh.write(f"v{s},v{d},{lo!r},{lo + rng.uniform(0.0, 5.0)!r}\n")


def test_ingest_peak_is_a_small_multiple_of_the_network(tmp_path):
    """On 20,000 directed records, ingest's tracemalloc peak above what it
    started from is about 2.4x the network it returns (Python 3.10-3.13).
    It was 4.9x-5.0x while every label field was a string of its own, a set
    held the key of every record and the rows were copied again in key order."""
    path = tmp_path / "flows.csv"
    _write_flows(path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net = network_from_csv(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.edge_count() == 10_000
    assert peak - base < 2.75 * (kept - base), (peak - base, kept - base)


@pytest.mark.parametrize("as_path", [False, True])
def test_ingest_reads_then_folds_through_module_names(monkeypatch, tmp_path, as_path):
    """The benchmark's ingest spans wrap ``network.read_flow_csv`` and
    ``network.symmetrize`` and read ``len()`` of the records: ingest calls
    each once through the module, the reader first, returning a list that
    is what the fold gets. A path's reader calls itself on the open file,
    inside the outer call."""
    text = "src,dst,lo,hi\na,b,1,2\nb,a,0,3\nb,c,1,1\nc,c,1,1\n"
    source = io.StringIO(text)
    if as_path:
        source = tmp_path / "flows.csv"
        source.write_text(text, encoding="utf-8")
        source = str(source)
    read, fold = network.read_flow_csv, network.symmetrize
    calls, open_reads = [], []

    def reading(src):
        open_reads.append(src)
        try:
            records = read(src)
        finally:
            open_reads.pop()
        if not open_reads:
            calls.append(("read", records))
        return records

    def folding(records, *args, **kwargs):
        calls.append(("fold", records))
        return fold(records, *args, **kwargs)

    monkeypatch.setattr(network, "read_flow_csv", reading)
    monkeypatch.setattr(network, "symmetrize", folding)
    net = network_from_csv(source, threshold=1.5)
    monkeypatch.undo()
    assert [name for name, _ in calls] == ["read", "fold"]
    records = calls[0][1]
    assert type(records) is list and len(records) == 4
    assert all(type(r) is DirectedFlowRecord for r in records)
    assert calls[1][1] is records
    assert net == symmetrize(records, 1.5)
    assert (net.dropped_self_loops, net.dropped_below_threshold) == (1, 1)


def test_format_matrix_tokens():
    lines = format_matrix(toy_network())
    assert lines[0].split() == ["v1", "v2", "v3", "v4"]
    assert lines[1].split() == ["v1", "[0,0]", "[1,3]", "[1,1]", "[0,0]"]


def _dense_format_matrix(net):
    """The dense renderer: every cell of ``net.weights`` stringified."""
    table = [("", net.labels)] + [
        (lab, [str(w) for w in row]) for lab, row in zip(net.labels, net.weights)
    ]
    label_w = max((len(lab) for lab in net.labels), default=0)
    col_w = [max(len(cells[j]) for _, cells in table) for j in range(net.n)]
    return [
        (lab.ljust(label_w) + "  " + "  ".join(c.ljust(w) for c, w in zip(cells, col_w))).rstrip()
        for lab, cells in table
    ]


def _rendering_cases():
    yield IWNetwork((), ())
    yield IWNetwork(("a",), ({},))
    yield IWNetwork(("solo",), ({0: Interval(0.0, 2.5)},))
    yield toy_network()
    # labels shorter and longer than [0,0]; c and e are isolated, so their
    # columns hold no entry at all; self-loops, zero lower bounds, degenerate
    yield IWNetwork.from_edges(
        ["a", "a-long-label", "c", "dd", "e"],
        [
            ("a", "a", 0.0, 12.5),
            ("a", "a-long-label", 0.0, 3.0),
            ("a-long-label", "dd", 7.0, 7.0),
            ("dd", "dd", 1e-3, 1234.0),
        ],
    )
    rng = random.Random(11)
    for _ in range(10):
        net = _mixed_network(rng, rng.randrange(1, 16))
        k = rng.randrange(1, net.n + 1)
        p = Partition(tuple(rng.randrange(k) for _ in range(net.n)))
        yield net
        yield aggregate_sum(net, p)
        yield aggregate_minmax(net, p)


def test_format_matrix_matches_dense_renderer(monkeypatch):
    cases = [(net, _dense_format_matrix(net)) for net in _rendering_cases()]

    def refuse(*_):
        raise AssertionError("format_matrix used the dense view")

    monkeypatch.setattr(IWNetwork, "weights", property(refuse))
    for net, expected in cases:
        assert format_matrix(net) == expected


def _edge_list_reference(net):
    """The edge-list rendering, from the upper triangle of ``net.weights``."""
    entries = [
        f"{net.labels[i]}  {net.labels[j]}  {w}"
        for i, row in enumerate(net.weights)
        for j, w in enumerate(row)
        if j >= i and w != ZERO
    ]
    return [f"{net.n} vertices, {len(entries)} edges (i <= j):", *entries]


@pytest.mark.parametrize("n", [network.DENSE_LIMIT, network.DENSE_LIMIT + 1])
def test_format_matrix_is_dense_up_to_the_limit_then_an_edge_list(n):
    rng = random.Random(n)
    labels = [f"v{i}" for i in range(n)]
    edges = [("v0", "v0", 1.0, 2.0), ("v3", f"v{n - 1}", 2.0, 2.0)]
    edges += [(f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", 0.0, rng.uniform(0.1, 9.0))
              for _ in range(3 * n)]
    net = IWNetwork.from_edges(labels, edges)
    lines = format_matrix(net)
    if n <= network.DENSE_LIMIT:
        assert lines == _dense_format_matrix(net)
    else:
        assert lines == _edge_list_reference(net)
        assert lines[1] == "v0  v0  [1,2]" and f"v3  v{n - 1}  [2,2]" in lines
        assert len(lines) == net.edge_count() + 1
