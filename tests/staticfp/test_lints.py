"""Lint engine tests: corpus detection, rule behavior, golden drift."""

from __future__ import annotations

import pytest

from repro.optsim.machine import STRICT, optimization_level
from repro.staticfp import lint
from repro.staticfp.corpus import (
    CLEAN_CORPUS,
    GOLDEN_PATH,
    GOTCHA_CORPUS,
    check_golden,
    precision_summary,
    run_entry,
)


class TestGotchaCorpus:
    @pytest.mark.parametrize(
        "entry", GOTCHA_CORPUS, ids=[e.key for e in GOTCHA_CORPUS]
    )
    def test_expected_id_detected(self, entry):
        report = run_entry(entry)
        assert entry.expect_id in report.gotcha_ids, (
            f"{entry.key}: wanted {entry.expect_id!r} in "
            f"{report.gotcha_ids}"
        )

    @pytest.mark.parametrize(
        "entry", CLEAN_CORPUS, ids=[e.key for e in CLEAN_CORPUS]
    )
    def test_clean_corpus_has_no_findings(self, entry):
        report = run_entry(entry)
        assert not report.has_findings, report.render()

    def test_precision_summary_is_perfect(self):
        summary = precision_summary()
        assert summary["gotchas_detected"] == summary["gotchas_total"]
        assert summary["false_positives"] == []

    def test_figure15_gotchas_all_covered(self):
        keys = {e.key for e in GOTCHA_CORPUS}
        assert {"madd", "flush_to_zero", "opt_level", "fast_math"} <= keys

    def test_at_least_six_figure14_gotchas(self):
        figure15 = {"madd", "flush_to_zero", "opt_level", "fast_math"}
        figure14 = [e for e in GOTCHA_CORPUS if e.key not in figure15]
        assert len(figure14) >= 6


class TestGoldenFile:
    def test_golden_file_exists(self):
        assert GOLDEN_PATH.exists()

    def test_no_drift(self):
        drift = check_golden()
        assert drift == [], "\n".join(drift)


class TestRuleBehavior:
    def test_accepts_string_or_expr(self):
        from repro.optsim.parser import parse_expr

        a = lint("0.1 + 0.2")
        b = lint(parse_expr("0.1 + 0.2"))
        assert a.gotcha_ids == b.gotcha_ids

    def test_severity_ordering(self):
        report = lint("1.0 / a", bindings={"a": ("-1", "1")})
        ranks = {"error": 2, "warning": 1, "info": 0}
        severities = [ranks[d.severity] for d in report.diagnostics]
        assert severities == sorted(severities, reverse=True)

    def test_must_divide_by_zero_is_error(self):
        report = lint("1.0 / a", bindings={"a": "0"})
        (diag,) = report.by_id("divide_by_zero")
        assert diag.severity == "error"

    def test_may_divide_by_zero_is_warning(self):
        report = lint("1.0 / a", bindings={"a": ("-1", "1")})
        (diag,) = report.by_id("divide_by_zero")
        assert diag.severity == "warning"

    def test_madd_info_when_not_contracting(self):
        report = lint("a*b + c", optimization_level("-O2"))
        diags = report.by_id("madd")
        assert diags and all(d.severity == "info" for d in diags)

    def test_madd_warning_when_contracting(self):
        report = lint("a*b + c", optimization_level("-O3"))
        diags = report.by_id("madd")
        assert any(d.severity == "warning" for d in diags)

    def test_madd_info_when_the_contraction_is_proved_on_the_ranges(self):
        bindings = {"a": ("1e-20", "2e-20"), "b": ("1", "2"),
                    "c": ("1", "2")}
        report = lint("a*b + c", optimization_level("-O3"), bindings)
        (contraction,) = [v for v in report.safety.applied
                          if v.pass_name == "fma-contraction"]
        assert contraction.proved_on_ranges
        (diag,) = report.by_id("madd")
        assert diag.severity == "info"
        assert "rounds identically on the bound ranges" in diag.message
        # the tie ranges the contraction cannot be proved on still warn
        bindings["b"] = ("1", "1e20")
        report = lint("a*b + c", optimization_level("-O3"), bindings)
        assert [d.severity for d in report.by_id("madd")] == ["warning"]

    def test_flush_to_zero_info_at_strict(self):
        report = lint(
            "a - b", STRICT,
            {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")},
        )
        diags = report.by_id("flush_to_zero")
        assert diags and all(d.severity == "info" for d in diags)

    def test_flush_to_zero_warning_under_ftz(self):
        report = lint(
            "a - b", optimization_level("--ffast-math"),
            {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")},
        )
        assert any(
            d.severity == "warning" for d in report.by_id("flush_to_zero")
        )

    def test_fast_math_kahan_collapse(self):
        report = lint(
            "((t + y) - t) - y", optimization_level("--ffast-math"),
            {"t": ("1e8", "1e9"), "y": ("1e-8", "1e-7")},
        )
        diags = report.by_id("fast_math")
        assert any("Kahan" in d.message for d in diags)

    def test_no_duplicate_diagnostics(self):
        report = lint("(a + b) - a", bindings={"a": ("1", "1e30")})
        seen = {(d.gotcha_id, d.node) for d in report.diagnostics}
        assert len(seen) == len(report.diagnostics)

    def test_to_json_round_trips(self):
        import json

        report = lint("0.1 + 0.2")
        data = json.loads(report.to_json())
        assert data["expr"] == "(0.1 + 0.2)"
        assert data["may_flags"] == ["inexact"]
        assert isinstance(data["diagnostics"], list)

    def test_nan_introduction_points_at_node(self):
        report = lint("sqrt(a)")
        (diag,) = report.by_id("identity")
        assert diag.node == "sqrt(a)"

    def test_always_nan_is_error(self):
        report = lint("sqrt(a)", bindings={"a": ("-4", "-1")})
        diags = report.by_id("identity")
        assert any(d.severity == "error" for d in diags)

    def test_no_nan_blame_on_finite_ranges(self):
        # Bounded finite operands cannot introduce NaN at an add, so
        # the identity rule stays quiet; unbound operands include
        # ±inf, where inf + (-inf) legitimately introduces one.
        bounded = lint("a + b", bindings={"a": ("1", "2"), "b": ("1", "2")})
        assert not bounded.by_id("identity")
        unbounded = lint("a + b")
        assert unbounded.by_id("identity")
