"""Compiler and hardware floating point optimization simulator.

The paper's optimization quiz asks whether developers know *which*
optimizations step outside IEEE 754.  This package makes those claims
observable instead of asserted:

- a small expression IR (:mod:`~repro.optsim.ast`) with an infix parser,
- a :class:`~repro.optsim.machine.MachineConfig` capturing both hardware
  controls (format, rounding, FTZ/DAZ) and compiler permissions
  (fp-contract, reassociation, the fast-math sub-flags),
- optimization passes (:mod:`~repro.optsim.passes`) gated by those
  permissions, composed into named levels ``-O0``…``-O3``/``-Ofast``
  modeled on gcc's behavior (:mod:`~repro.optsim.pipeline`),
- an evaluator that runs an expression under a config with full flag
  capture, and
- a compliance checker (:mod:`~repro.optsim.compliance`) that searches
  for concrete inputs where a configuration's result differs bit-for-bit
  from strict IEEE evaluation.

Example::

    from repro.optsim import parse_expr, evaluate, O3, STRICT, find_divergence

    expr = parse_expr("a*b + c")
    report = find_divergence(expr, O3, seed=754)
    assert report.diverged          # -O3 contracts to FMA
"""

from repro.optsim.ast import (
    FMA,
    BinOp,
    Binary,
    Const,
    Expr,
    UnOp,
    Unary,
    Var,
    expr_variables,
)
from repro.optsim.parser import parse_expr
from repro.optsim.machine import (
    FAST_MATH,
    O0,
    O1,
    O2,
    O3,
    OFAST,
    STRICT,
    MachineConfig,
    optimization_level,
)
from repro.optsim.evaluator import EvalResult, evaluate, evaluate_strict
from repro.optsim.batch_eval import evaluate_lanes, evaluate_many
from repro.optsim.flags import config_from_flags
from repro.optsim.guided import (
    FlowCoverage,
    exhaustive_sweep,
    guided_search,
)
from repro.optsim.pipeline import optimize
from repro.optsim.program import (
    Assign,
    Program,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    evaluate_program,
    optimize_program,
    parse_program,
)
from repro.optsim.compliance import (
    DivergenceReport,
    SearchResult,
    find_divergence,
    is_standard_compliant,
    noncompliance_reasons,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FMA",
    "BinOp",
    "UnOp",
    "expr_variables",
    "parse_expr",
    "MachineConfig",
    "optimization_level",
    "config_from_flags",
    "STRICT",
    "O0",
    "O1",
    "O2",
    "O3",
    "OFAST",
    "FAST_MATH",
    "evaluate",
    "evaluate_strict",
    "evaluate_many",
    "evaluate_lanes",
    "EvalResult",
    "FlowCoverage",
    "guided_search",
    "exhaustive_sweep",
    "optimize",
    "Assign",
    "Program",
    "parse_program",
    "evaluate_program",
    "optimize_program",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "find_divergence",
    "DivergenceReport",
    "SearchResult",
    "is_standard_compliant",
    "noncompliance_reasons",
]
