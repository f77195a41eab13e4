import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwnet import Interval, ZERO, hausdorff, signed_diff
from iwnet.errors import DivisorContainsZero, InvalidInterval
from iwnet.interval import _fmt, seq_sum


def brute_interval_op(a, b, op, samples=200, seed=0):
    """Range of x op y over endpoint pairs and interior samples."""
    rng = random.Random(seed)
    xs = [a.lo, a.hi] + [a.lo + rng.random() * (a.hi - a.lo) for _ in range(samples)]
    ys = [b.lo, b.hi] + [b.lo + rng.random() * (b.hi - b.lo) for _ in range(samples)]
    vals = [op(x, y) for x in xs for y in ys]
    return min(vals), max(vals)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw, lo=-1e6, hi=1e6):
    a = draw(st.floats(min_value=lo, max_value=hi))
    b = draw(st.floats(min_value=lo, max_value=hi))
    return Interval(min(a, b), max(a, b))


class TestConstruction:
    def test_degenerate_allowed(self):
        x = Interval(2.5, 2.5)
        assert x.lo == x.hi
        assert x.midpoint == 2.5

    def test_rejects_inverted(self):
        with pytest.raises(InvalidInterval):
            Interval(3, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInterval):
            Interval(bad, 5)
        with pytest.raises(InvalidInterval):
            Interval(0, bad)

    def test_immutable(self):
        x = Interval(1, 2)
        with pytest.raises(AttributeError):
            x.lo = 0


class TestArithmetic:
    def test_add_examples(self):
        assert Interval(1, 3) + Interval(1, 1) == Interval(2, 4)
        assert Interval(0, 0) + Interval(5, 9) == Interval(5, 9)
        total = Interval(2, 4) + Interval(2, 4) + Interval(4, 6) + Interval(2, 4)
        assert total == Interval(10, 18)

    def test_sub_examples(self):
        assert Interval(1, 2) - Interval(1, 2) == Interval(-1, 1)
        assert Interval(3, 5) - Interval(0, 0) == Interval(3, 5)
        lo, hi = brute_interval_op(Interval(4, 6), Interval(1, 2), lambda x, y: x - y)
        assert Interval(4, 6) - Interval(1, 2) == Interval(2, 5)
        assert math.isclose(lo, 2) and math.isclose(hi, 5)

    def test_mul_examples(self):
        assert Interval(2, 4) * Interval(2, 4) == Interval(4, 16)
        assert Interval(1, 1) * Interval(-3, 7) == Interval(-3, 7)
        lo, hi = brute_interval_op(Interval(-1, 2), Interval(3, 4), lambda x, y: x * y)
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)
        assert math.isclose(lo, -4) and math.isclose(hi, 8)

    def test_div_examples(self):
        assert Interval(4, 16) / Interval(10, 18) == Interval(4 / 18, 16 / 10)
        assert Interval(2, 5) / Interval(1, 1) == Interval(2, 5)
        with pytest.raises(DivisorContainsZero):
            Interval(2, 4) / Interval(0, 1)
        with pytest.raises(DivisorContainsZero):
            Interval(2, 4) / Interval(-1, 1)


class TestPointOperations:
    def test_midpoint(self):
        assert Interval(1, 3).midpoint == 2
        assert Interval(7, 7).midpoint == 7
        assert Interval(2, 4).midpoint == 3

    def test_hausdorff(self):
        assert hausdorff(Interval(1, 3), Interval(4, 5)) == 3
        assert hausdorff(Interval(2, 5), Interval(2, 5)) == 0
        assert hausdorff(Interval(2, 5), Interval(1, 3)) == 2

    def test_signed_diff_cases(self):
        # non-overlapping, partially overlapping, completely overlapping
        assert signed_diff(Interval(1, 3), Interval(4, 5)) == -3
        assert signed_diff(Interval(2, 5), Interval(1, 3)) == 2
        assert signed_diff(Interval(1, 5), Interval(3, 4)) == -2
        assert signed_diff(Interval(2, 7), Interval(2, 7)) == 0.0

    def test_signed_diff_tie_uses_upper(self):
        # |dl| == |dh| with opposite signs: the upper-endpoint difference wins
        assert signed_diff(Interval(0, 10), Interval(2, 8)) == 2
        assert signed_diff(Interval(2, 8), Interval(0, 10)) == -2

    def test_seq_sum_adds_left_to_right(self):
        # compensated summation (builtin sum() of floats from Python 3.12)
        # would keep the 1.0; the interval track cannot, so neither may floats
        assert seq_sum([1e16, 1.0, -1e16]) == 0.0
        assert seq_sum([Interval(1e16, 1e16), Interval(1, 1), Interval(-1e16, -1e16)], ZERO) == ZERO
        assert seq_sum([]) == 0.0


# endpoints that print differently: signed zeros, the smallest subnormal,
# a huge integral float, integral and fractional values
endpoints = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 2.0, 0.5]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(min_value=-1e300, max_value=1e300),
)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(endpoints, endpoints, st.booleans())
@example(0.0, -0.0, False)
@example(-0.0, 0.0, False)
@example(5e-324, 5e-324, True)
@example(1e300, 1e300, True)
@example(3.0, 3.0, True)
def test_str_formats_each_endpoint(a, b, degenerate):
    """A degenerate interval formats its endpoint once; the text is the same
    as formatting each endpoint, [0.0,-0.0] and [-0.0,0.0] included."""
    lo, hi = (a, a) if degenerate else sorted((a, b))
    assert str(Interval(lo, hi)) == f"[{_fmt(lo)},{_fmt(hi)}]"


class TestProperties:
    @given(intervals(), intervals())
    def test_add_mul_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(intervals(lo=-1e3, hi=1e3), intervals(lo=-1e3, hi=1e3), intervals(lo=-1e3, hi=1e3))
    def test_add_associative(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert math.isclose(left.lo, right.lo, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(left.hi, right.hi, rel_tol=1e-12, abs_tol=1e-9)

    @given(intervals())
    def test_self_subtraction_width(self, a):
        # the dependency pitfall: a - a spans the full width, not [0,0]
        d = a - a
        width = a.hi - a.lo
        assert d == Interval(-width, width)
        # doubling the radius can lose one ulp when the width is subnormal
        assert math.isclose(d.hi, 2 * ((a.hi - a.lo) / 2), rel_tol=1e-15, abs_tol=5e-324)

    @given(intervals(lo=-100, hi=100), intervals(lo=-100, hi=100), intervals(lo=-100, hi=100))
    def test_subdistributivity(self, x, y, z):
        lhs = z * (x + y)
        rhs = z * x + z * y
        tol = 1e-9 * (1 + abs(rhs.lo) + abs(rhs.hi))
        assert lhs.lo >= rhs.lo - tol
        assert lhs.hi <= rhs.hi + tol

    @settings(max_examples=300)
    @given(intervals(lo=-100, hi=100), intervals(lo=-100, hi=100), st.randoms(use_true_random=False))
    def test_enclosure_soundness(self, a, b, rnd):
        ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y]
        results = [a + b, a - b, a * b]
        # divisor bounded away from zero: reciprocals of near-zero endpoints
        # overflow IEEE doubles (no extended division here)
        if b.lo > 1e-6 or b.hi < -1e-6:
            ops.append(lambda x, y: x / y)
            results.append(a / b)
        for op, res in zip(ops, results):
            for _ in range(20):
                x = a.lo + rnd.random() * (a.hi - a.lo)
                y = b.lo + rnd.random() * (b.hi - b.lo)
                v = op(x, y)
                tol = 1e-9 * (1 + abs(res.lo) + abs(res.hi))
                assert res.lo - tol <= v <= res.hi + tol

    @given(intervals(), intervals())
    def test_signed_diff_antisymmetric(self, a, b):
        assert signed_diff(a, b) == -signed_diff(b, a)

    @given(intervals(), intervals())
    def test_signed_diff_magnitude_is_hausdorff(self, a, b):
        assert abs(signed_diff(a, b)) == hausdorff(a, b)

    @given(finite, finite)
    def test_signed_diff_degenerate_collapse(self, x, y):
        assert signed_diff(Interval(x, x), Interval(y, y)) == x - y

    @given(intervals())
    def test_zero_identity(self, a):
        assert a + ZERO == a
        assert a - ZERO == a
