"""Conformance-oracle throughput.

How many differential evaluations per second the oracle subsystem
sustains — this bounds how much coverage an ``oracle run`` budget
actually buys, so a slowdown here silently shrinks conformance
coverage.  Measured per layer: the exact-rounding core alone, one full
differential check (engine + oracle), and an end-to-end mini sweep.
"""

import pytest

from repro.fpenv.rounding import RoundingMode
from repro.oracle import OracleConfig, check_case, oracle_operation, run_conformance
from repro.oracle.exact import round_fraction_exact
from repro.softfloat import BINARY16, BINARY64, sf
from repro.softfloat.formats import TINY8

RNE_CFG = OracleConfig()


def test_oracle_add_binary64(benchmark):
    a, b = sf(1.7).bits, sf(2.9).bits
    benchmark(oracle_operation, "add", BINARY64, RNE_CFG, a, b)


def test_oracle_fma_binary64(benchmark):
    a, b, c = sf(1.7).bits, sf(2.9).bits, sf(-0.3).bits
    benchmark(oracle_operation, "fma", BINARY64, RNE_CFG, a, b, c)


def test_oracle_sqrt_binary64(benchmark):
    x = sf(2.0).bits
    benchmark(oracle_operation, "sqrt", BINARY64, RNE_CFG, x)


def test_round_fraction_exact_subnormal(benchmark):
    """The core rounding primitive on its slowest path (underflow)."""
    from fractions import Fraction

    value = Fraction(3, 2) * Fraction(2) ** (BINARY64.emin - 3) \
        + Fraction(1, 2 ** 1200)
    benchmark(round_fraction_exact, BINARY64, value, RNE_CFG)


def test_differential_check_binary16(benchmark):
    """One full engine-vs-oracle comparison (the runner's inner loop)."""
    benchmark(check_case, "mul", BINARY16, (0x3C01, 0x3AFF),
              RoundingMode.NEAREST_EVEN)


@pytest.mark.parametrize("op", ["add", "fma"])
def test_mini_sweep_tiny8(benchmark, op):
    """End-to-end ``run_conformance`` on a small fixed budget, so the
    per-evaluation overhead of case generation, stats, and reporting is
    captured too.  evals/sec = 500 / reported time."""
    report = benchmark(
        run_conformance, TINY8, [op], budget=500, seed=1, native=False)
    assert report.clean
