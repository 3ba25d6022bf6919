"""Guided divergence search: regions, coverage, sweeps, lanes."""

import hashlib
import json
import random
from itertools import islice

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
from repro.optsim.guided import FlowCoverage, _candidate_stream
from repro.softfloat import TINY8, SoftFloat, sf
from repro.staticfp import regions as regions_module
from repro.staticfp import lint
from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS, entry_by_key
from repro.staticfp.regions import (
    BitRegion,
    bits_of_key,
    divergence_goals,
    goal_stream,
    key_of_bits,
    total_keys,
    variable_regions,
)
from repro.telemetry import telemetry_session
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


LEVELS = ("strict", "-O2", "-O3", "--ffast-math", "-Ofast")
#: a contraction whose product absorbs its addend (built tie goal) on a
#: subnormal-capable addend (a DAZ goal ahead of it at fast-math levels)
TIE_BINDINGS = {"a": ("3.5e-26", "1e-22"), "b": ("2e300", "3e301"),
                "c": ("-3e-11", "3e-11")}


def _goal_cases():
    """``(key, source, level, bindings)``: every corpus entry under
    every level, plus the tie contraction under every level."""
    for entry in GOTCHA_CORPUS + CLEAN_CORPUS:
        for level in LEVELS:
            yield entry.key, entry.expr, level, entry.binding_map() or None
    for level in LEVELS:
        yield "tie", "a*b + c", level, TIE_BINDINGS


def _goal_record(goal):
    return [goal.name, goal.detail,
            [[name, region.to_dict()] for name, region in goal.regions],
            [[list(pair) for pair in built] for built in goal.candidates]]


#: sha256 of every case's goal tuple at ``max_goals`` 1, 2, 3 and 32,
#: as the goal list was derived whole, before the search derived each
#: goal on demand
GOALS_SHA256 = \
    "36fbddf1fab7a78f5a9582ea3c65ca5586df2339e081edd507d6ea2bac48b5a1"


class TestGoalStream:
    """Goals are derived on demand, and exactly as before."""

    def test_drained_goals_match_the_whole_derivation(self):
        records = []
        for key, source, level, bindings in _goal_cases():
            for max_goals in (1, 2, 3, 32):
                goals = tuple(goal_stream(
                    parse_expr(source), optimization_level(level), bindings,
                    max_goals=max_goals))
                records.append([key, level, max_goals,
                                [_goal_record(goal) for goal in goals]])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == GOALS_SHA256

    @pytest.mark.parametrize("max_goals", [1, 2, 3])
    def test_the_cap_keeps_a_prefix_and_the_built_goals(self, max_goals):
        """``built()`` read off the hazards equals the built goals of
        the drained stream, also where the cap drops one."""
        for key, source, level, bindings in _goal_cases():
            expr, config = parse_expr(source), optimization_level(level)
            full = divergence_goals(expr, config, bindings)
            stream = goal_stream(expr, config, bindings, max_goals=max_goals)
            built = stream.built()
            assert tuple(stream) == full[:max_goals], (key, level)
            assert built == tuple(
                goal for goal in full[:max_goals] if goal.candidates
            ), (key, level)

    def test_the_cap_binds_before_a_built_goal(self):
        config = optimization_level("-Ofast")
        stream = goal_stream(parse_expr("a*b + c"), config, TIE_BINDINGS,
                             max_goals=1)
        assert stream.built() == ()
        assert [goal.name for goal in stream] == ["daz:c"]
        stream = goal_stream(parse_expr("a*b + c"), config, TIE_BINDINGS,
                             max_goals=2)
        assert [goal.name for goal in stream.built()] \
            == ["midpoint:((a * b) + c)"]
        assert stream.derived == []

    def test_candidates_are_the_same_lazily_or_as_a_tuple(self):
        for key, source, level, bindings in _goal_cases():
            expr, config = parse_expr(source), optimization_level(level)
            base = variable_regions(expr, config, bindings)
            names = sorted(base)
            optimized = optimize(expr, config)
            streams = [
                _candidate_stream(
                    names, base, goals,
                    FlowCoverage.for_search(expr, optimized, config,
                                            bindings),
                    random.Random(754), ())
                for goals in (divergence_goals(expr, config, bindings),
                              goal_stream(expr, config, bindings))
            ]
            tuple_side, lazy_side = (
                [(sorted((n, v.bits) for n, v in binding.items()), label)
                 for binding, label in islice(candidates, 400)]
                for candidates in streams
            )
            assert lazy_side == tuple_side, (key, level)

    @pytest.mark.parametrize("key,level", [
        ("zero_divide_by_zero", "-Ofast"),
        ("fast_math", "--ffast-math"),
    ])
    def test_a_lint_witnessed_on_the_base_lattice_refines_nothing(
            self, key, level, monkeypatch):
        entry = entry_by_key(key)
        expr, config = parse_expr(entry.expr), optimization_level(level)
        calls = []
        original = regions_module.refine_toward

        def spy(analysis, node, desired):
            calls.append(node)
            return original(analysis, node, desired)

        monkeypatch.setattr(regions_module, "refine_toward", spy)
        report = lint(expr, config, entry.binding_map(), witness=True)
        assert report.witness_report.detail == "goal 'base'"
        assert calls == []
        # deriving every goal would have refined
        divergence_goals(expr, config, entry.binding_map())
        assert calls

    def test_telemetry_counts_the_goals_each_search_derived(self):
        capped = ("a - b", "-Ofast", {"a": ("2.5e297", "1.5e301"),
                                      "b": ("1.5e297", "4.6e299")})
        witnessed = ("a / b", "-Ofast", {"a": ("0", "1"), "b": ("0", "1")})
        with telemetry_session() as telemetry:
            for source, level, bindings in (capped, witnessed):
                report = lint(source, optimization_level(level), bindings,
                              witness=True, witness_trials=400)
                assert report.witness_report is not None
        histogram = telemetry.metrics.snapshot()[
            "optsim.search_goals{stage=derived}"]
        full = divergence_goals(parse_expr(capped[0]),
                                optimization_level(capped[1]), capped[2])
        assert histogram["count"] == 2
        assert histogram["zero"] == 1
        assert histogram["max"] == len(full) > 0


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

    @pytest.mark.parametrize("source", ["a*b + c", "(a + b) - a",
                                        "x / y + 1.0"])
    def test_coverage_is_the_same_with_telemetry_on_and_off(self, source):
        """Marks taken directly (memoized per node and flag set) equal
        marks decoded from the telemetry stream."""
        expr = parse_expr(source)
        optimized = optimize(expr, O3)
        plain = guided_search(expr, optimized, O3, trials=300)
        with telemetry_session():
            traced = guided_search(expr, optimized, O3, trials=300)
        assert plain.coverage.covered == traced.coverage.covered
        assert plain.coverage.exercised > 0
        assert plain.witness == traced.witness

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
        assert result.witness is None
        assert result.is_proof
        assert result.states == (1 << TINY8.width) ** 2
        assert result.evals == result.states

    def test_tiny8_finds_contraction_witness(self):
        expr = parse_expr("a*b + c")
        optimized = optimize(expr, TINY_O3)
        result = exhaustive_sweep(expr, optimized, TINY_O3)
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
