"""Witness engine: verified counterexamples for every unsafe verdict.

The S-tier edge cases live here: witnesses whose divergence is
sticky-flags-only, FTZ/DAZ-environment-only, or visible only through
the underflow tininess-detection convention — each serialized through
JSON and re-verified from the record alone.
"""

import json

import pytest

from repro.fpenv.rounding import RoundingMode
from repro.optsim import (
    O2,
    O3,
    STRICT,
    evaluate,
    optimization_level,
    parse_expr,
)
from repro.softfloat import TINY8, SoftFloat
from repro.staticfp import lint, predict_pass_safety
from repro.staticfp.witness import (
    Witness,
    WitnessReport,
    find_witness,
    localize_divergence,
    verify_witness,
)

FAST_MATH = optimization_level("--ffast-math")


def roundtrip(witness: Witness) -> Witness:
    """JSON-serialize, parse back, and re-verify from the record."""
    data = json.loads(witness.to_json())
    again = verify_witness(Witness.from_dict(data))
    assert again.verified
    return again


class TestStickyFlagsOnlyWitness:
    """Constant folding preserves values but erases INEXACT."""

    def test_flags_only_witness_found_and_verified(self):
        report = find_witness(parse_expr("0.1 + 0.2"), O2)
        assert report.witnessed
        witness = report.witness
        assert witness.flags_diverged and not witness.value_diverged
        assert witness.binding == {}  # unconditional: no free variables
        assert witness.strict["flags"] == ["inexact"]
        assert witness.optimized["flags"] == []
        assert witness.verified

    def test_flags_only_witness_roundtrips(self):
        report = find_witness(parse_expr("0.1 + 0.2"), O2)
        again = roundtrip(report.witness)
        assert again.flags_diverged and not again.value_diverged

    def test_localized_to_the_folding_pass(self):
        report = find_witness(parse_expr("0.1 + 0.2"), O2)
        localization = report.witness.localization
        assert localization is not None
        assert localization.kind == "rewrite"
        assert localization.pass_name == "constant-fold"


class TestEnvironmentOnlyWitness:
    """FTZ/DAZ divergence with no value-changing rewrite involved."""

    def test_subnormal_difference_flushes(self):
        expr = parse_expr("a - b")
        bindings = {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")}
        report = find_witness(expr, FAST_MATH, bindings)
        assert report.witnessed
        witness = report.witness
        # No algebraic rewrite applies to a lone subtraction: the
        # divergence is the environment's.
        assert witness.localization is not None
        assert witness.localization.kind == "environment"
        assert witness.config["ftz"] and witness.config["daz"]

    def test_environment_witness_roundtrips(self):
        expr = parse_expr("a - b")
        bindings = {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")}
        report = find_witness(expr, FAST_MATH, bindings)
        again = roundtrip(report.witness)
        assert again.localization.kind == "environment"

    def test_witness_binding_values_are_subnormal_producing(self):
        expr = parse_expr("a - b")
        bindings = {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")}
        report = find_witness(expr, FAST_MATH, bindings)
        values = report.witness.binding_values()
        strict_result = evaluate(expr, values, STRICT)
        assert strict_result.value.is_subnormal or \
            strict_result.value.is_zero


class TestTininessConventionWitness:
    """Flag sets that differ *only* by the underflow tininess-detection
    convention: the engine pins before-rounding, and the witness record
    says so."""

    @staticmethod
    def _convention_sensitive_pair():
        from repro.oracle import OracleConfig, oracle_operation

        base = dict(
            rounding=RoundingMode.NEAREST_EVEN, ftz=False, daz=False
        )
        before = OracleConfig(tininess="before", **base)
        after = OracleConfig(tininess="after", **base)
        for a_bits in range(1 << TINY8.width):
            a = SoftFloat(TINY8, a_bits)
            if a.is_nan or a.is_negative:
                continue
            for b_bits in range(1 << TINY8.width):
                b = SoftFloat(TINY8, b_bits)
                if b.is_nan:
                    continue
                rb = oracle_operation("mul", TINY8, before, a_bits, b_bits)
                ra = oracle_operation("mul", TINY8, after, a_bits, b_bits)
                if rb.bits == ra.bits and rb.flags != ra.flags:
                    return a, b, rb, ra
        raise AssertionError("no convention-sensitive pair in TINY8")

    def test_conventions_disagree_on_flags_only(self):
        a, b, rb, ra = self._convention_sensitive_pair()
        assert rb.bits == ra.bits
        assert rb.flags != ra.flags

    def test_engine_matches_the_before_convention(self):
        a, b, rb, _ = self._convention_sensitive_pair()
        result = evaluate(
            parse_expr("a * b"), {"a": a, "b": b},
            STRICT.replace(fmt=TINY8),
        )
        assert result.value.bits == rb.bits
        assert result.flags == rb.flags

    def test_witness_record_pins_the_convention(self):
        report = find_witness(
            parse_expr("a*b + c"), O3.replace(fmt=TINY8),
            strategy="exhaustive",
        )
        assert report.witnessed
        witness = roundtrip(report.witness)
        assert witness.config["tininess"] == "before"


class TestVerifyWitness:
    def test_tampered_bits_fail_verification(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        data = report.witness.to_dict()
        data["strict"]["bits"] = "0x0"
        assert not verify_witness(Witness.from_dict(data)).verified

    def test_tampered_flags_fail_verification(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        data = report.witness.to_dict()
        data["optimized"]["flags"] = ["invalid"]
        assert not verify_witness(Witness.from_dict(data)).verified

    def test_tampered_compiled_form_fails_verification(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        data = report.witness.to_dict()
        data["compiled"] = "(a + b)"
        assert not verify_witness(Witness.from_dict(data)).verified


class TestLocalization:
    def test_fma_contraction_localized_to_the_pass(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        localization = report.witness.localization
        assert localization.kind == "rewrite"
        assert localization.pass_name == "fma-contraction"
        assert "fma" in localization.site_after

    def test_localization_dict_roundtrip(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        localization = report.witness.localization
        from repro.staticfp.witness import Localization

        assert Localization.from_dict(
            localization.to_dict()
        ) == localization

    def test_localize_divergence_direct(self):
        from repro.optsim import optimize

        expr = parse_expr("a*b + c")
        optimized = optimize(expr, O3)
        report = find_witness(expr, O3)
        localization = localize_divergence(
            expr, optimized, report.witness.binding_values(), O3
        )
        assert localization.kind == "rewrite"


class TestFindWitnessOutcomes:
    def test_exhaustive_proof_on_safe_tiny8(self):
        report = find_witness(
            parse_expr("min(a, b)"), STRICT.replace(fmt=TINY8),
            strategy="exhaustive", expect_safe=True,
        )
        assert report.outcome == "proved-safe"
        assert report.witness is None
        assert report.states == (1 << TINY8.width) ** 2

    def test_exhaustive_refutes_an_unsafe_overapproximation(self):
        # (a - b) / 2.0 -> (a - b) * 0.5 raises the same flags as the
        # division, so the static verdict is flags-safe; told to expect
        # a divergence anyway, the exhaustive sweep on TINY8 finds none
        # and labels the claim it refutes.
        expr = parse_expr("(a - b) / 2.0")
        config = STRICT.replace(fmt=TINY8)
        bindings = {"a": ("4", "8"), "b": ("1", "2")}
        safety = predict_pass_safety(expr, config, bindings)
        assert safety.flags_safe
        report = find_witness(
            expr, config, bindings, strategy="exhaustive",
            safety=safety, expect_safe=False,
        )
        assert report.outcome == "refuted"

    def test_unresolved_when_budget_runs_dry(self):
        expr = parse_expr("(a - b) / 2.0")
        report = find_witness(
            expr, STRICT, {"a": ("4", "8"), "b": ("1", "2")},
            strategy="random", trials=50, expect_safe=False,
        )
        assert report.outcome == "unresolved"
        assert report.witness is None

    def test_report_to_dict_is_json_safe(self):
        report = find_witness(parse_expr("a*b + c"), O3)
        text = json.dumps(report.to_dict())
        assert "witnessed" in text


class TestCorpusWitnessGate:
    def test_every_corpus_entry_resolves(self):
        from repro.staticfp.corpus import witness_outcomes, witness_summary

        outcomes = witness_outcomes()
        summary = witness_summary(outcomes)
        assert summary["resolved"] == summary["total"] == len(outcomes)
        assert not summary["unresolved"]

    def test_unsafe_entries_ship_verified_witnesses(self):
        from repro.staticfp.corpus import witness_outcomes

        outcomes = witness_outcomes()
        for key, outcome in outcomes.items():
            if outcome["outcome"] == "witnessed":
                assert outcome["verified"], key
                witness = verify_witness(
                    Witness.from_dict(outcome["witness"])
                )
                assert witness.verified, key

    def test_golden_witness_section_has_no_drift(self):
        from repro.staticfp.corpus import (
            check_golden_witnesses,
            witness_outcomes,
        )

        assert check_golden_witnesses(
            outcomes=witness_outcomes()
        ) == []


class TestLintIntegration:
    def test_lint_witness_attaches_a_report(self):
        report = lint(
            "((t + y) - t) - y", FAST_MATH,
            {"t": ("1e8", "1e9"), "y": ("1e-8", "1e-7")},
            witness=True,
        )
        assert isinstance(report.witness_report, WitnessReport)
        assert report.witness_report.witnessed
        rendered = report.render()
        assert "witness" in rendered
        assert "localized" in rendered
        assert "coverage" in rendered

    def test_lint_witness_json_carries_the_outcome(self):
        report = lint(
            "a*b + c", optimization_level("-O3"),
            {"a": ("1", "2"), "b": ("1", "2"), "c": ("1", "2")},
            witness=True,
        )
        data = report.to_dict()
        assert data["witness"]["outcome"] == "witnessed"

    def test_safe_lint_skips_the_search(self):
        report = lint(
            "min(a, b)", STRICT, {"a": ("1", "2"), "b": ("3", "4")},
            witness=True,
        )
        assert report.witness_report is None

    def test_safety_report_describe_includes_witness(self):
        expr = parse_expr("a*b + c")
        safety = predict_pass_safety(expr, O3)
        witness_report = find_witness(expr, O3, safety=safety)
        described = safety.with_witness(witness_report).describe()
        assert "witness search" in described
