"""Guided divergence search: regions, coverage, sweeps, lanes."""

import numpy as np
import pytest

from repro.fpenv.flags import FPFlag
from repro.optsim import (
    O2,
    O3,
    STRICT,
    evaluate,
    evaluate_lanes,
    exhaustive_sweep,
    find_divergence,
    guided_search,
    optimization_level,
    optimize,
    parse_expr,
)
from repro.optsim.guided import FlowCoverage
from repro.softfloat import TINY8, SoftFloat, sf
from repro.staticfp.regions import (
    BitRegion,
    bits_of_key,
    divergence_goals,
    key_of_bits,
    total_keys,
    variable_regions,
)
from tests.strategies import special_bits

FAST_MATH = optimization_level("--ffast-math")
TINY_O3 = O3.replace(fmt=TINY8)


class TestBitKeys:
    """The ordered-key bijection over non-NaN encodings."""

    @pytest.mark.parametrize("fmt", [TINY8])
    def test_bijection_roundtrip(self, fmt):
        for key in range(total_keys(fmt)):
            bits = bits_of_key(fmt, key)
            assert key_of_bits(fmt, bits) == key

    def test_keys_ascend_numerically(self, fmt=TINY8):
        previous = None
        for key in range(total_keys(fmt)):
            value = SoftFloat(fmt, bits_of_key(fmt, key))
            assert not value.is_nan
            if previous is not None:
                # -0 and +0 are adjacent keys and compare equal; every
                # other step is strictly increasing.
                assert previous < value or (
                    previous.is_zero and value.is_zero
                )
            previous = value


class TestBitRegion:
    def test_full_counts_every_non_nan_encoding(self):
        region = BitRegion.full(TINY8)
        non_nan = sum(
            1 for bits in range(1 << TINY8.width)
            if not SoftFloat(TINY8, bits).is_nan
        )
        assert region.size == non_nan

    def test_full_with_all_nans_counts_every_encoding(self):
        region = BitRegion.full(TINY8, nan="all")
        assert region.size == 1 << TINY8.width

    def test_contains_agrees_with_select(self):
        region = BitRegion.full(TINY8, nan="canonical")
        members = {region.select(i) for i in range(region.size)}
        assert len(members) == region.size
        for bits in range(1 << TINY8.width):
            assert (bits in members) == region.contains(bits)

    def test_intersect_union_roundtrip(self):
        full = BitRegion.full(TINY8)
        a = BitRegion.from_spans(
            TINY8, [(0, 10)]
        )
        b = BitRegion.from_spans(TINY8, [(5, 20)])
        inter = a.intersect(b)
        assert inter.size == 6  # keys 5..10
        union = a.union(b)
        assert union.size == 21  # keys 0..20
        assert full.intersect(a).size == a.size

    def test_dict_roundtrip(self):
        region = BitRegion.full(TINY8, nan="canonical")
        again = BitRegion.from_dict(region.to_dict())
        assert again == region

    def test_sample_lands_inside(self):
        import random

        region = BitRegion.from_spans(TINY8, [(3, 9), (40, 45)])
        rng = random.Random(7)
        for _ in range(50):
            assert region.contains(region.sample(rng))

    def test_lattice_points_are_members(self):
        region = BitRegion.full(TINY8)
        for bits in region.lattice_points():
            assert region.contains(bits)


class TestVariableRegions:
    def test_bindings_restrict_the_region(self):
        expr = parse_expr("a + b")
        regions = variable_regions(
            expr, STRICT.replace(fmt=TINY8),
            {"a": ("1", "2"), "b": ("1", "4")},
        )
        lo, hi = sf(1.0, TINY8), sf(2.0, TINY8)
        for i in range(regions["a"].size):
            value = SoftFloat(TINY8, regions["a"].select(i))
            assert not value.is_nan
            assert not (value < lo) and not (hi < value)

    def test_unbound_variables_get_the_full_region(self):
        expr = parse_expr("a + b")
        regions = variable_regions(expr, STRICT.replace(fmt=TINY8))
        assert regions["a"].size == BitRegion.full(TINY8).size


class TestDivergenceGoals:
    def test_fma_contraction_yields_a_goal(self):
        expr = parse_expr("a*b + c")
        goals = divergence_goals(expr, O3, None)
        assert goals
        assert any("contract" in g.name or "fma" in g.name for g in goals)

    def test_ftz_level_yields_subnormal_goals(self):
        expr = parse_expr("a - b")
        goals = divergence_goals(
            expr, FAST_MATH,
            {"a": ("1e-308", "3e-308"), "b": ("1e-308", "2e-308")},
        )
        assert any("daz" in g.name or "ftz" in g.name for g in goals)

    def test_strict_clean_expression_yields_no_goals(self):
        expr = parse_expr("min(a, b)")
        goals = divergence_goals(
            expr, STRICT, {"a": ("1", "2"), "b": ("3", "4")}
        )
        assert goals == ()


class TestGuidedSearch:
    def test_finds_fma_contraction_divergence(self):
        expr = parse_expr("a*b + c")
        optimized = optimize(expr, O3)
        result = guided_search(expr, optimized, O3)
        assert result.witness is not None
        assert result.value_diverged or result.flags_diverged

    def test_guided_beats_random_on_fast_math(self):
        from repro.staticfp.witness import find_witness

        expr = parse_expr("((t + y) - t) - y")
        bindings = {"t": ("1e8", "1e9"), "y": ("1e-8", "1e-7")}
        guided = find_witness(
            expr, FAST_MATH, bindings, strategy="guided"
        )
        assert guided.witnessed
        # Admission-filtered random search burns through hundreds of
        # candidates without a hit on this domain; the goal lattice
        # lands in the cancellation band immediately.
        random_report = find_witness(
            expr, FAST_MATH, bindings, strategy="random",
            trials=max(100, 5 * guided.evals),
        )
        assert not random_report.witnessed

    def test_coverage_tracks_exception_flows(self):
        expr = parse_expr("a*b + c")
        optimized = optimize(expr, O3)
        result = guided_search(expr, optimized, O3)
        coverage = result.coverage
        assert coverage.total > 0
        assert 0 < coverage.exercised <= coverage.total
        assert len(coverage.unexercised()) == coverage.total - \
            coverage.exercised
        data = coverage.to_dict()
        assert data["exercised"] == coverage.exercised

    def test_variable_free_expression_searches_the_empty_binding(self):
        expr = parse_expr("0.1 + 0.2")
        optimized = optimize(expr, O2)
        result = guided_search(expr, optimized, O2)
        assert result.witness == {}
        assert result.flags_diverged and not result.value_diverged


class TestExhaustiveSweep:
    def test_tiny8_proof_sweeps_every_state(self):
        expr = parse_expr("min(a, b)")
        config = STRICT.replace(fmt=TINY8)
        optimized = optimize(expr, config)
        result = exhaustive_sweep(expr, optimized, config)
        assert result.found_index is None
        assert result.is_proof
        assert result.states == (1 << TINY8.width) ** 2
        assert result.checked == result.states

    def test_tiny8_finds_contraction_witness(self):
        expr = parse_expr("a*b + c")
        optimized = optimize(expr, TINY_O3)
        result = exhaustive_sweep(expr, optimized, TINY_O3)
        assert result.found_index is not None
        assert result.witness is not None
        assert result.value_diverged or result.flags_diverged
        assert not result.is_proof

    def test_budget_guard_rejects_oversized_sweeps(self):
        expr = parse_expr("a + b")
        optimized = optimize(expr, O2)
        with pytest.raises(ValueError):
            exhaustive_sweep(expr, optimized, O2, max_states=1000)


class TestEvaluateLanes:
    def test_bit_identical_to_scalar_evaluator(self):
        expr = parse_expr("sqrt(a*a + b*b)")
        lanes_a = np.array(special_bits(TINY8), dtype=np.uint64)
        lanes_b = lanes_a[::-1].copy()
        config = STRICT.replace(fmt=TINY8)
        bits, flags = evaluate_lanes(
            expr, {"a": lanes_a, "b": lanes_b}, config
        )
        for i in range(lanes_a.shape[0]):
            scalar = evaluate(
                expr,
                {
                    "a": SoftFloat(TINY8, int(lanes_a[i])),
                    "b": SoftFloat(TINY8, int(lanes_b[i])),
                },
                config,
            )
            assert int(bits[i]) == scalar.value.bits
            assert FPFlag(int(flags[i])) == scalar.flags

    def test_ragged_lanes_rejected(self):
        expr = parse_expr("a + b")
        with pytest.raises(ValueError):
            evaluate_lanes(
                expr,
                {
                    "a": np.zeros(3, dtype=np.uint64),
                    "b": np.zeros(4, dtype=np.uint64),
                },
            )


class TestFindDivergenceStrategies:
    def test_random_is_the_default_and_unchanged(self):
        report = find_divergence(parse_expr("a*b + c"), O3, seed=754)
        legacy = find_divergence(
            parse_expr("a*b + c"), O3, seed=754, strategy="random"
        )
        assert report.diverged and legacy.diverged
        assert report.trials == legacy.trials
        assert {k: v.bits for k, v in report.witness.items()} == \
            {k: v.bits for k, v in legacy.witness.items()}

    def test_guided_strategy_reports_coverage(self):
        report = find_divergence(
            parse_expr("a*b + c"), O3, strategy="guided"
        )
        assert report.diverged
        assert report.strategy == "guided"
        assert report.coverage is not None
        assert "coverage" in report.describe()

    def test_exhaustive_strategy_proves_on_tiny8(self):
        report = find_divergence(
            parse_expr("min(a, b)"), STRICT.replace(fmt=TINY8),
            strategy="exhaustive",
        )
        assert not report.diverged
        assert report.exhausted
        assert "exhaustive" in report.describe()

    def test_exhaustive_strategy_finds_witnesses(self):
        report = find_divergence(
            parse_expr("a*b + c"), TINY_O3, strategy="exhaustive"
        )
        assert report.diverged
        assert report.witness is not None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            find_divergence(
                parse_expr("a + b"), O2, strategy="telepathic"
            )


class TestFlowCoverageUnit:
    def test_targets_come_from_both_sides(self):
        expr = parse_expr("a*b + c")
        optimized = optimize(expr, O3)
        coverage = FlowCoverage.for_search(expr, optimized, O3)
        sides = {side for side, _, _ in coverage.targets}
        assert sides == {"strict", "optimized"}

    def test_record_is_idempotent(self):
        expr = parse_expr("a + b")
        optimized = optimize(expr, O2)
        coverage = FlowCoverage.for_search(expr, optimized, O2)
        side, node, flag = next(iter(coverage.targets))
        coverage.record(side, node, FPFlag[flag.upper()])
        coverage.record(side, node, FPFlag[flag.upper()])
        assert coverage.exercised == 1

    def test_off_target_records_ignored(self):
        expr = parse_expr("a + b")
        optimized = optimize(expr, O2)
        coverage = FlowCoverage.for_search(expr, optimized, O2)
        coverage.record("strict", "(bogus)", FPFlag.INVALID)
        assert coverage.exercised == 0
