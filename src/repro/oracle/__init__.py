"""Exact-rounding conformance oracle for the softfloat engine.

TestFloat-style differential testing subsystem.  The parts:

- :mod:`repro.oracle.exact` — the **oracle** itself: IEEE 754 add,
  sub, mul, div, sqrt, and fma computed exactly over scaled integers and
  correctly rounded into any format under all five rounding modes,
  with the exact sticky-flag set (including both tininess-detection
  conventions and FTZ/DAZ);
- :mod:`repro.oracle.cases` — exhaustive / boundary-lattice / seeded
  random case generation;
- :mod:`repro.oracle.runner` — the differential runner comparing
  engine vs oracle vs (where available) the host's native floats;
- :mod:`repro.oracle.shrink` — minimization of failing cases;
- :mod:`repro.oracle.report` — structured discrepancy records and the
  JSON conformance report;
- :mod:`repro.oracle.optcheck` — oracle evaluation of optsim
  expression trees, powering ``oracle_checked`` compliance verdicts.

CLI: ``python -m repro oracle run --format binary16 --ops add,fma
--budget 100000 --seed 42``.
"""

from repro.oracle.cases import (
    boundary_operands,
    exhaustive_operands,
    generate_cases,
    random_operands,
)
from repro.oracle.exact import (
    OP_ARITY,
    ORACLE_OPS,
    OracleConfig,
    OracleResult,
    oracle_add,
    oracle_div,
    oracle_fma,
    oracle_mul,
    oracle_operation,
    oracle_sqrt,
    oracle_sub,
    round_fraction_exact,
)
from repro.oracle.optcheck import OracleEvalResult, oracle_evaluate
from repro.oracle.report import ConformanceReport, Discrepancy, OpStats
from repro.oracle.runner import (
    FORMATS_BY_NAME,
    MODE_ALIASES,
    OracleMismatch,
    check_case,
    run_conformance,
)
from repro.oracle.shrink import shrink_case

__all__ = [
    "OracleConfig",
    "OracleResult",
    "ORACLE_OPS",
    "OP_ARITY",
    "oracle_add",
    "oracle_sub",
    "oracle_mul",
    "oracle_div",
    "oracle_sqrt",
    "oracle_fma",
    "oracle_operation",
    "round_fraction_exact",
    "boundary_operands",
    "exhaustive_operands",
    "random_operands",
    "generate_cases",
    "shrink_case",
    "check_case",
    "run_conformance",
    "ConformanceReport",
    "Discrepancy",
    "OpStats",
    "OracleMismatch",
    "FORMATS_BY_NAME",
    "MODE_ALIASES",
    "oracle_evaluate",
    "OracleEvalResult",
]
