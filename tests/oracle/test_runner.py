"""The differential runner, shrinker, and report plumbing.

The engine is believed conformant, so exercising the discrepancy path
needs a legitimate disagreement: the oracle under ``tininess="after"``
drops the underflow flag whenever a tiny value rounds up to the
smallest normal, which the (before-rounding) engine keeps.  That gives
a real, reproducible "flags" discrepancy without planting a bug.
"""

import json

import pytest

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle import (
    ConformanceReport,
    check_case,
    generate_cases,
    run_conformance,
)
from repro.oracle.shrink import shrink_case, simplicity_key
from repro.softfloat import BINARY16, BINARY32, SoftFloat
from repro.softfloat.formats import BINARY128, TINY8

RNE = RoundingMode.NEAREST_EVEN

# binary16: min_normal * (1 - 2^-11) rounds up to min_normal under RNE.
TINY_UP_CASE = (0x0400, 0x3BFF)


class TestCheckCase:
    def test_agreement_returns_none(self):
        assert check_case("add", BINARY16, (0x3C00, 0x3C00), RNE) is None

    def test_tininess_after_flags_discrepancy(self):
        disc = check_case("mul", BINARY16, TINY_UP_CASE, RNE,
                          tininess="after")
        assert disc is not None
        assert disc.kind == "flags"
        assert disc.engine_bits == disc.oracle_bits == 0x0400
        assert disc.engine_flags & FPFlag.UNDERFLOW
        assert not (disc.oracle_flags & FPFlag.UNDERFLOW)
        assert "underflow" in disc.describe()

    def test_same_case_agrees_under_before(self):
        assert check_case("mul", BINARY16, TINY_UP_CASE, RNE) is None

    def test_discrepancy_serializes(self):
        disc = check_case("mul", BINARY16, TINY_UP_CASE, RNE,
                          tininess="after")
        d = disc.to_dict()
        assert d["op"] == "mul"
        assert d["operands"] == ["0x0400", "0x3bff"]
        assert d["kind"] == "flags"
        assert "underflow" in d["engine_flags"]
        json.dumps(d)  # must be JSON-serializable as-is


class TestShrink:
    def test_simplicity_key_prefers_fewer_bits(self):
        assert simplicity_key(0x0001) < simplicity_key(0x0003)
        assert simplicity_key(0x8000) < simplicity_key(0x8001)

    def test_shrinks_toward_landmarks(self):
        # Predicate: fails whenever the first operand is negative.
        def fails(operands):
            return bool(operands[0] >> (BINARY16.width - 1))

        start = (0xFACE, 0x1234)
        minimal = shrink_case(fails, start, BINARY16)
        assert fails(minimal)
        assert simplicity_key(minimal[0]) <= simplicity_key(start[0])
        assert simplicity_key(minimal[1]) <= simplicity_key(start[1])
        # The second operand has no bearing on failure: shrinks to +0.
        assert minimal[1] == 0

    def test_non_failing_case_unchanged(self):
        minimal = shrink_case(lambda ops: False, (0x1234, 0x5678), BINARY16)
        assert minimal == (0x1234, 0x5678)


class TestGenerateCases:
    def test_exhaustive_for_tiny_unary(self):
        cases = list(generate_cases(TINY8, 1, budget=100, seed=1))
        assert len(cases) == 64
        assert sorted(c[0] for c in cases) == list(range(64))

    def test_budget_respected(self):
        cases = list(generate_cases(BINARY32, 2, budget=77, seed=1))
        assert len(cases) == 77

    def test_deterministic_by_seed(self):
        # Arity 3 engages the seeded rng from the first lattice case
        # (the third operand is a random corner), so distinct seeds
        # must diverge while equal seeds reproduce exactly.
        a = list(generate_cases(BINARY32, 3, budget=500, seed=9))
        b = list(generate_cases(BINARY32, 3, budget=500, seed=9))
        c = list(generate_cases(BINARY32, 3, budget=500, seed=10))
        assert a == b
        assert a != c


class TestRunConformance:
    def test_clean_tiny_run(self):
        report = run_conformance(TINY8, ["add", "sqrt"], budget=400, seed=1)
        assert report.clean
        assert set(report.op_stats) == {"add", "sqrt"}
        for stats in report.op_stats.values():
            assert stats.evals > 0
            assert stats.value_agree == stats.evals
            assert stats.flag_agree == stats.evals
        assert report.total_evals == sum(
            s.evals for s in report.op_stats.values())

    def test_sqrt_exhausts_tiny_space(self):
        # 64 encodings x 5 modes x 2 env combos = 640 evals fit in budget.
        report = run_conformance(TINY8, ["sqrt"], budget=1000, seed=1)
        assert report.op_stats["sqrt"].cases == 64
        assert report.op_stats["sqrt"].evals == 640

    def test_tininess_after_reports_discrepancies(self):
        report = run_conformance(
            BINARY16, ["mul"], budget=4000, seed=1, tininess="after")
        assert not report.clean
        for disc in report.discrepancies:
            assert disc.kind == "flags"
            assert disc.shrunk_operands is not None
            # The shrunk witness must still reproduce the failure.
            assert check_case(
                disc.op, BINARY16, disc.shrunk_operands,
                RoundingMode(disc.rounding), ftz=disc.ftz, daz=disc.daz,
                tininess=disc.tininess) is not None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown ops"):
            run_conformance(TINY8, ["cbrt"], budget=10)

    def test_binary128_identical_across_backends(self):
        """128-bit lanes run on the scalar backend whatever is asked."""
        reports = [
            run_conformance(BINARY128, ["add", "fma"], budget=120, seed=5,
                            engine_backend=backend)
            for backend in ("scalar", "batch", "auto")
        ]
        assert reports[0].clean and reports[0].total_evals == 240
        assert len({r.canonical_json() for r in reports}) == 1

    def test_native_third_opinion_runs_on_binary32(self):
        report = run_conformance(BINARY32, ["add"], budget=600, seed=3)
        stats = report.op_stats["add"]
        assert stats.native_evals > 0
        assert stats.native_agree == stats.native_evals

    def test_no_native_for_tiny(self):
        report = run_conformance(TINY8, ["add"], budget=200, seed=3)
        assert report.op_stats["add"].native_evals == 0

    def test_reproducible_by_seed(self):
        a = run_conformance(TINY8, ["mul"], budget=300, seed=42)
        b = run_conformance(TINY8, ["mul"], budget=300, seed=42)

        def without_timing(report):
            data = report.to_dict()
            for stats in data["ops"].values():
                stats.pop("wall_seconds")
                stats.pop("evals_per_sec")
            return data

        assert without_timing(a) == without_timing(b)

    def test_op_stats_record_wall_time(self):
        report = run_conformance(TINY8, ["mul"], budget=300, seed=42)
        stats = report.op_stats["mul"]
        assert stats.wall_seconds > 0
        assert stats.evals_per_sec > 0
        data = stats.to_dict()
        assert data["wall_seconds"] > 0 and data["evals_per_sec"] > 0


class TestReportOutput:
    def test_json_round_trip(self, tmp_path):
        report = run_conformance(TINY8, ["add"], budget=200, seed=1)
        path = tmp_path / "report.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["format"] == "tiny8"
        assert data["clean"] is True
        assert data["ops"]["add"]["evals"] == report.op_stats["add"].evals
        assert data["ops"]["add"]["value_agreement_rate"] == 1.0
        assert data["discrepancies"] == []

    def test_summary_mentions_verdict(self):
        report = run_conformance(TINY8, ["add"], budget=200, seed=1)
        text = report.summary()
        assert "RESULT: conformant" in text
        assert "zero discrepancies" in text

    def test_dirty_summary_lists_witnesses(self):
        report = run_conformance(
            BINARY16, ["mul"], budget=4000, seed=1, tininess="after")
        text = report.summary()
        assert "RESULT:" in text and "discrepanc" in text
        assert "mul(" in text

    def test_empty_report_is_clean(self):
        report = ConformanceReport(
            fmt_name="binary16", seed=0, budget=0, tininess="before",
            rounding_modes=("nearest-even",), env_combos=((False, False),))
        assert report.clean and report.total_evals == 0
