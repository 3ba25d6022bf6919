"""Interval arithmetic: directed rounding and the containment theorem."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interval import Interval, IntervalError
from repro.softfloat import BINARY32, SoftFloat, sf


class TestConstruction:
    def test_point_interval(self):
        x = Interval.from_value(1.5)
        assert x.is_point
        assert x.contains_value(1.5)

    def test_from_decimal_encloses_the_real(self):
        x = Interval.from_decimal("0.1")
        assert x.contains_fraction(Fraction(1, 10))
        assert x.width_ulps() <= 1.0

    def test_exact_decimal_is_a_point(self):
        assert Interval.from_decimal("0.5").is_point

    def test_from_bounds(self):
        x = Interval.from_bounds(1.0, 2.0)
        assert x.contains_value(1.7)
        assert not x.contains_value(2.5)

    def test_empty_rejected(self):
        with pytest.raises(IntervalError):
            Interval.from_bounds(2.0, 1.0)

    def test_nan_endpoint_rejected(self):
        with pytest.raises(IntervalError):
            Interval(SoftFloat.nan(), sf(1.0))

    def test_mixed_formats_rejected(self):
        with pytest.raises(IntervalError):
            Interval(sf(0.0, BINARY32), sf(1.0))

    def test_infinite_endpoints_allowed(self):
        x = Interval(sf(0.0), SoftFloat.inf())
        assert x.contains_value(1e308)


class TestBasicArithmetic:
    def test_add(self):
        x = Interval.from_bounds(1.0, 2.0) + Interval.from_bounds(10.0, 20.0)
        assert x.contains_value(11.0) and x.contains_value(22.0)
        assert not x.contains_value(10.5)

    def test_sub(self):
        x = Interval.from_bounds(1.0, 2.0) - Interval.from_bounds(0.5, 1.5)
        assert x.lo.to_float() == -0.5 and x.hi.to_float() == 1.5

    def test_neg(self):
        x = -Interval.from_bounds(1.0, 2.0)
        assert x.lo.to_float() == -2.0 and x.hi.to_float() == -1.0

    def test_mul_sign_cases(self):
        pos = Interval.from_bounds(2.0, 3.0)
        neg = Interval.from_bounds(-3.0, -2.0)
        mixed = Interval.from_bounds(-1.0, 2.0)
        assert (pos * pos).lo.to_float() == 4.0
        assert (pos * neg).hi.to_float() == -4.0
        assert (mixed * pos).lo.to_float() == -3.0
        assert (mixed * pos).hi.to_float() == 6.0

    def test_div(self):
        x = Interval.from_bounds(1.0, 2.0) / Interval.from_bounds(4.0, 8.0)
        assert x.contains_fraction(Fraction(1, 4))
        assert x.contains_fraction(Fraction(1, 8))

    def test_div_by_zero_crossing_rejected(self):
        with pytest.raises(IntervalError):
            Interval.from_value(1.0) / Interval.from_bounds(-1.0, 1.0)

    def test_scalar_coercion(self):
        x = 1.0 + Interval.from_bounds(0.0, 1.0) * 2.0
        assert x.lo.to_float() == 1.0 and x.hi.to_float() == 3.0
        y = 1.0 / Interval.from_bounds(2.0, 4.0)
        assert y.contains_value(0.3)

    def test_sqrt(self):
        x = Interval.from_bounds(4.0, 9.0).sqrt()
        assert x.lo.to_float() == 2.0 and x.hi.to_float() == 3.0

    def test_sqrt_of_negative_rejected(self):
        with pytest.raises(IntervalError):
            Interval.from_bounds(-1.0, 1.0).sqrt()

    def test_abs(self):
        assert Interval.from_bounds(-3.0, 2.0).abs().hi.to_float() == 3.0
        assert Interval.from_bounds(-3.0, -2.0).abs().lo.to_float() == 2.0
        assert Interval.from_bounds(1.0, 2.0).abs().lo.to_float() == 1.0

    def test_hull_and_intersect(self):
        a = Interval.from_bounds(0.0, 2.0)
        b = Interval.from_bounds(1.0, 3.0)
        assert a.hull(b).hi.to_float() == 3.0
        assert a.intersect(b).lo.to_float() == 1.0
        with pytest.raises(IntervalError):
            a.intersect(Interval.from_bounds(5.0, 6.0))


class TestOutwardRounding:
    def test_sum_of_tenths_encloses_exact(self):
        """0.1 added ten times encloses exactly 1, even though the
        float result is not 1."""
        tenth = Interval.from_decimal("0.1")
        total = Interval.from_value(0.0)
        for _ in range(10):
            total = total + tenth
        assert total.contains_fraction(Fraction(1))
        assert total.width_ulps() < 32

    def test_point_op_widens_when_inexact(self):
        x = Interval.from_value(1.0) / Interval.from_value(3.0)
        assert not x.is_point
        assert x.contains_fraction(Fraction(1, 3))
        assert x.width_ulps() == pytest.approx(1.0)

    def test_exact_ops_stay_points(self):
        x = Interval.from_value(1.5) + Interval.from_value(0.25)
        assert x.is_point

    def test_catastrophic_cancellation_shows_as_width(self):
        """The interval version of the shadow-execution diagnosis."""
        a = Interval.from_value(1.0) + Interval.from_decimal("1e-17")
        b = Interval.from_value(1.0)
        diff = a - b
        # The true difference 1e-17 is enclosed...
        assert diff.contains_fraction(Fraction(1, 10**17))
        # ...and the relative width is enormous: total precision loss.
        assert diff.hi.to_fraction() - diff.lo.to_fraction() > \
            Fraction(1, 10**17)


INF = float("inf")


class TestConventions:
    """Where intervals of reals part from IEEE 754 machine values."""

    def test_zero_times_infinity_is_zero(self):
        x = Interval.from_value(0.0) * Interval.from_value(INF)
        assert x.lo.is_zero and x.hi.is_zero

    def test_zero_corner_of_a_product_contributes_zero(self):
        x = Interval.from_bounds(-1e-300, -0.0) * Interval.from_value(INF)
        assert x.lo.is_inf and x.lo.sign
        assert x.hi.is_zero

    @pytest.mark.parametrize("num,den", [
        ((1.0, INF), (2.0, INF)),
        ((-INF, -1.0), (-INF, -2.0)),
    ])
    def test_infinite_quotient_corner_is_dropped(self, num, den):
        x = Interval.from_bounds(*num) / Interval.from_bounds(*den)
        assert x.lo.is_zero
        assert x.hi.is_inf and not x.hi.sign

    def test_quotient_with_only_infinite_corners_raises(self):
        with pytest.raises(IntervalError):
            Interval.from_value(INF) / Interval.from_value(INF)

    def test_infinite_sum_corner_still_raises(self):
        with pytest.raises(IntervalError):
            Interval.from_value(INF) + Interval.from_bounds(-INF, 1.0)

    def test_zero_endpoints_lean_outward(self):
        """A lower zero endpoint prefers -0 and an upper one +0."""
        x = Interval.from_bounds(0.0, 1.0) * Interval.from_bounds(-1.0, 0.0)
        assert str(x) == "[-1.0, 0.0]"


finite = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


class TestContainmentProperty:
    """The fundamental theorem, property-tested with hypothesis."""

    @settings(max_examples=200)
    @given(finite, finite, finite, finite)
    def test_add_containment(self, a, b, c, d):
        x = Interval.from_bounds(min(a, b), max(a, b))
        y = Interval.from_bounds(min(c, d), max(c, d))
        result = x + y
        exact = Fraction(min(a, b)) + Fraction(min(c, d))
        assert result.contains_fraction(exact)
        exact_hi = Fraction(max(a, b)) + Fraction(max(c, d))
        assert result.contains_fraction(exact_hi)

    @settings(max_examples=200)
    @given(finite, finite, finite, finite)
    def test_mul_containment(self, a, b, c, d):
        x = Interval.from_bounds(min(a, b), max(a, b))
        y = Interval.from_bounds(min(c, d), max(c, d))
        result = x * y
        for left in (min(a, b), max(a, b)):
            for right in (min(c, d), max(c, d)):
                assert result.contains_fraction(
                    Fraction(left) * Fraction(right)
                )

    @settings(max_examples=200)
    @given(finite, finite)
    def test_sub_of_self_contains_zero(self, a, b):
        x = Interval.from_bounds(min(a, b), max(a, b))
        assert (x - x).contains_fraction(Fraction(0))

    @settings(max_examples=100)
    @given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
    def test_sqrt_containment(self, a):
        x = Interval.from_value(a)
        result = x.sqrt()
        # sqrt(a)^2 must bracket a.
        lo2 = result.lo.to_fraction() ** 2
        hi2 = result.hi.to_fraction() ** 2
        assert lo2 <= Fraction(a) <= hi2

    @settings(max_examples=150)
    @given(finite, finite, st.floats(min_value=0.5, max_value=100.0))
    def test_division_containment(self, a, b, d):
        x = Interval.from_bounds(min(a, b), max(a, b))
        y = Interval.from_value(d)
        result = x / y
        assert result.contains_fraction(Fraction(min(a, b)) / Fraction(d))


class TestDiagnostics:
    def test_width(self):
        x = Interval.from_bounds(1.0, 1.5)
        assert x.width().to_float() == 0.5

    def test_width_ulps_unbounded(self):
        x = Interval(sf(0.0), SoftFloat.inf())
        assert x.width_ulps() == float("inf")

    def test_midpoint_inside(self):
        x = Interval.from_bounds(1.0, 2.0)
        assert x.contains(x.midpoint())

    def test_str(self):
        assert str(Interval.from_bounds(1.0, 2.0)) == "[1.0, 2.0]"


class TestIntervalEvaluate:
    def test_point_inputs(self):
        from repro.interval import interval_evaluate
        from repro.optsim import parse_expr

        box = interval_evaluate(
            parse_expr("a * b + c"), {"a": 2.0, "b": 3.0, "c": 1.0}
        )
        assert box.is_point and box.contains_value(7.0)

    def test_constants_enclose_their_reals(self):
        from repro.interval import interval_evaluate
        from repro.optsim import parse_expr

        box = interval_evaluate(parse_expr("0.1 + 0.2"), {})
        assert box.contains_fraction(Fraction(3, 10))

    def test_interval_inputs_propagate(self):
        from repro.interval import Interval, interval_evaluate
        from repro.optsim import parse_expr

        box = interval_evaluate(
            parse_expr("sqrt(x*x + y*y)"),
            {"x": Interval.from_bounds(3.0, 3.1), "y": 4.0},
        )
        assert box.contains_value(5.0)
        assert box.contains_value(5.06)
        assert not box.contains_value(5.2)

    def test_fma_node(self):
        from repro.interval import interval_evaluate
        from repro.optsim import parse_expr

        box = interval_evaluate(
            parse_expr("fma(a, b, c)"), {"a": 2.0, "b": 3.0, "c": -6.0}
        )
        assert box.contains_value(0.0)

    def test_unsupported_operator(self):
        from repro.interval import IntervalError, interval_evaluate
        from repro.optsim import parse_expr

        with pytest.raises(IntervalError):
            interval_evaluate(parse_expr("rem(a, b)"),
                              {"a": 5.0, "b": 2.0})

    def test_unbound_variable(self):
        from repro.errors import OptimizationError
        from repro.interval import interval_evaluate
        from repro.optsim import parse_expr

        with pytest.raises(OptimizationError):
            interval_evaluate(parse_expr("x"), {})

    def test_enclosure_of_strict_evaluation(self):
        """The interval box always contains the point result."""
        import random

        from repro.interval import interval_evaluate
        from repro.optsim import STRICT, evaluate, parse_expr
        from repro.optsim.evaluator import bind

        rng = random.Random(4)
        expr = parse_expr("(a + b) * (a - c) / (b + 2.0)")
        for _ in range(30):
            values = {name: rng.uniform(0.1, 10.0) for name in "abc"}
            point = evaluate(expr, bind(STRICT, **values), STRICT).value
            box = interval_evaluate(expr, dict(values))
            assert box.contains(point), values
