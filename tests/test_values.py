"""Value semantics of the hand-written immutable types.

``Interval``, ``Partition``, ``Strategy``, ``IWNetwork`` and
``DirectedFlowRecord`` build on ``iwnet.frozen.Frozen``: positional and
keyword construction, refused assignment, ``==`` and ``hash`` on the
compared fields only, a ``Name(field=value, ...)`` repr, and copies
that survive ``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from iwnet import DirectedFlowRecord, Interval, IWNetwork, Partition, Strategy, symmetrize
from iwnet.errors import InvalidInterval, NegativeWeight

EDGE = Interval(1, 2)
ROWS = ({1: EDGE}, {0: EDGE})


def samples():
    """(value, an equal value built differently, a field name) per type."""
    return [
        (Interval(1, 2), Interval(lo=1.0, hi=2), "lo"),
        (Partition((1, 1, 0)), Partition(assignment=(0, 0, 1)), "communities"),
        (Strategy("hl"), Strategy(name="hl"), "name"),
        (
            DirectedFlowRecord("a", "b", 1, 2),
            DirectedFlowRecord(src="a", dst="b", lo=1.0, hi=2.0),
            "src",
        ),
        (
            IWNetwork(("a", "b"), ROWS),
            IWNetwork(labels=("a", "b"), rows=ROWS, dropped_self_loops=4),
            "rows",
        ),
    ]


@pytest.mark.parametrize(
    "value, twin, field", samples(), ids=[type(v).__name__ for v, _, _ in samples()]
)
class TestCommon:
    def test_equal(self, value, twin, field):
        assert value == twin
        assert not value != twin

    def test_immutable(self, value, twin, field):
        before = repr(value)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == before

    def test_other_types_unequal(self, value, twin, field):
        assert value != getattr(value, field)
        assert value.__eq__(object()) is NotImplemented

    def test_copies(self, value, twin, field):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value
            assert repr(clone) == repr(value)


class TestInterval:
    def test_keyword_construction(self):
        x = Interval(lo=1, hi=2)
        assert (x.lo, x.hi) == (1.0, 2.0)
        assert type(x.lo) is float
        assert x == Interval(1, 2)

    def test_keyword_construction_validates(self):
        with pytest.raises(InvalidInterval, match=r"lo > hi in \[3, 2\]"):
            Interval(hi=2, lo=3)

    def test_hash_and_repr(self):
        assert hash(Interval(1, 2)) == hash(Interval(1.0, 2.0))
        assert len({Interval(1, 2), Interval(1.0, 2.0), Interval(1, 3)}) == 2
        assert repr(Interval(1, 2)) == "Interval(lo=1.0, hi=2.0)"
        assert Interval(1, 2) != (1.0, 2.0)

    def test_slotted(self):
        assert not hasattr(Interval(1, 2), "__dict__")


class TestPartition:
    def test_relabelings_equal(self):
        a, b = Partition((5, 5, 2, 7)), Partition((0, 0, 1, 2))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, Partition((0, 1, 1, 2))}) == 2
        assert a.assignment == (0, 0, 1, 2)

    def test_compares_assignment_only(self):
        # communities follow from the assignment; a different one never
        # compares equal even with the same number of communities
        assert Partition((0, 1, 0)) != Partition((0, 0, 1))
        assert Partition((0, 1, 0)).communities == ((0, 2), (1,))

    def test_repr(self):
        assert repr(Partition((1, 1, 0))) == (
            "Partition(assignment=(0, 0, 1), communities=((0, 1), (2,)))"
        )


class TestStrategy:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy 'hybrid'"):
            Strategy("hybrid")  # only the short names are spellings
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            Strategy("nope")

    def test_hash_and_repr(self):
        assert Strategy("hl") == Strategy(name="hl")
        assert hash(Strategy("cl")) == hash(Strategy("cl"))
        assert Strategy("hl") != Strategy("midpoint")
        assert repr(Strategy("midpoint")) == "Strategy(name='midpoint')"


class TestIWNetwork:
    def test_counts_do_not_count(self):
        a = IWNetwork(("a", "b"), ROWS)
        b = IWNetwork(("a", "b"), ROWS, 3, 7)
        assert a == b
        assert (b.dropped_self_loops, b.dropped_below_threshold) == (3, 7)
        assert a != IWNetwork(("a", "b"), ({1: Interval(1, 3)}, {0: Interval(1, 3)}))
        assert a != IWNetwork(("a", "c"), ROWS)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IWNetwork(("a", "b"), ROWS))

    def test_repr(self):
        assert repr(IWNetwork(("a", "b"), ROWS, 1)) == (
            "IWNetwork(labels=('a', 'b'), rows=({1: Interval(lo=1.0, hi=2.0)}, "
            "{0: Interval(lo=1.0, hi=2.0)}), dropped_self_loops=1, dropped_below_threshold=0)"
        )

    def test_trusted_matches_public_constructor(self):
        records = [DirectedFlowRecord("a", "a", 0, 1), DirectedFlowRecord("a", "b", 1, 2)]
        built = symmetrize(records, 0.0)
        assert built == IWNetwork(("a", "b"), ROWS)
        assert built.dropped_self_loops == 1
        assert "dropped_below_threshold=0" in repr(built)

    def test_weights_view_cached(self):
        net = IWNetwork(("a", "b"), ROWS)
        assert net.weights is net.weights
        assert net.weights[0][1] == EDGE

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="not symmetric"):
            IWNetwork(("a", "b"), ({1: EDGE}, {0: Interval(1, 3)}))


class TestDirectedFlowRecord:
    def test_errors(self):
        with pytest.raises(InvalidInterval, match=r"a->b: lo 3 > hi 2"):
            DirectedFlowRecord("a", "b", 3, 2)
        with pytest.raises(NegativeWeight, match=r"a->b: lo -1 < 0"):
            DirectedFlowRecord("a", "b", -1, 2)
        with pytest.raises(NegativeWeight):
            DirectedFlowRecord(src="a", dst="b", lo=-0.5, hi=-0.25)
        # a min/max fold would drop a nan, so the record refuses it
        with pytest.raises(InvalidInterval, match=r"a->b: non-finite weight \[1, nan\]"):
            DirectedFlowRecord("a", "b", 1, float("nan"))
        with pytest.raises(InvalidInterval, match="non-finite"):
            DirectedFlowRecord("a", "b", 1, float("inf"))

    def test_hash_and_repr(self):
        a = DirectedFlowRecord("a", "b", 1, 2)
        assert hash(a) == hash(DirectedFlowRecord("a", "b", 1.0, 2.0))
        assert a != DirectedFlowRecord("b", "a", 1, 2)
        assert repr(a) == "DirectedFlowRecord(src='a', dst='b', lo=1, hi=2)"

    def test_unpacks_as_its_fields(self):
        src, dst, lo, hi = DirectedFlowRecord("a", "b", 1.0, 2.0)
        assert (src, dst, lo, hi) == ("a", "b", 1.0, 2.0)
