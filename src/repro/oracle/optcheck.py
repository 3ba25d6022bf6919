"""Oracle evaluation of optsim expression trees.

:func:`oracle_evaluate` interprets an expression the way
:func:`repro.optsim.evaluator.evaluate` does, but computes every
``+ - * / sqrt fma`` node through the exact-rounding oracle instead of
the softfloat engine, accumulating the oracle's flag sets.  Compliance
verdicts can then be *cross-validated*: the strict-IEEE side of a
:class:`~repro.optsim.compliance.DivergenceReport` is recomputed
against exact rounding, so a verdict can no longer be an artifact of a
shared engine bug.

``min``/``max``/``%`` nodes have no oracle implementation (they are
exact selections / exact remainders with no rounding step to verify)
and fall back to the engine; flag accumulation still goes through the
shared environment so footprints stay comparable.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import OptimizationError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.optsim.ast import FMA, Binary, BinOp, Const, Expr, Unary, UnOp, Var
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import (
    SoftFloat,
    convert_format,
    fp_max,
    fp_min,
    fp_remainder,
    parse_softfloat,
)

__all__ = ["oracle_evaluate", "OracleEvalResult"]

_BINOP_NAMES = {BinOp.ADD: "add", BinOp.SUB: "sub",
                BinOp.MUL: "mul", BinOp.DIV: "div"}


class OracleEvalResult:
    """Value and flag footprint of an oracle evaluation."""

    __slots__ = ("value", "flags")

    def __init__(self, value: SoftFloat, flags: FPFlag) -> None:
        self.value = value
        self.flags = flags


def oracle_evaluate(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig = STRICT,
) -> OracleEvalResult:
    """Evaluate ``expr`` with every rounding performed by the oracle."""
    cfg = OracleConfig(rounding=config.rounding, ftz=config.ftz,
                       daz=config.daz)
    env = config.fresh_env()  # flag accumulator (and engine fallback env)
    value = _eval(expr, bindings, config, cfg, env)
    return OracleEvalResult(value, env.flags)


def _oracle_node(
    op: str, cfg: OracleConfig, env: FPEnv, *operands: SoftFloat
) -> SoftFloat:
    fmt = operands[0].fmt
    result = oracle_operation(op, fmt, cfg, *(x.bits for x in operands))
    env.raise_flags(result.flags, op)
    return result.value(fmt)


def _eval(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig,
    cfg: OracleConfig,
    env: FPEnv,
) -> SoftFloat:
    if isinstance(expr, Const):
        return parse_softfloat(expr.literal, config.fmt)
    if isinstance(expr, Var):
        try:
            value = bindings[expr.name]
        except KeyError:
            raise OptimizationError(f"unbound variable {expr.name!r}")
        if value.fmt != config.fmt:
            value = convert_format(value, config.fmt, env)
        return value
    if isinstance(expr, Unary):
        operand = _eval(expr.operand, bindings, config, cfg, env)
        if expr.op is UnOp.NEG:
            return -operand
        if expr.op is UnOp.ABS:
            return abs(operand)
        if expr.op is UnOp.SQRT:
            return _oracle_node("sqrt", cfg, env, operand)
        raise AssertionError(f"unhandled unary op {expr.op}")
    if isinstance(expr, Binary):
        left = _eval(expr.left, bindings, config, cfg, env)
        right = _eval(expr.right, bindings, config, cfg, env)
        name = _BINOP_NAMES.get(expr.op)
        if name is not None:
            return _oracle_node(name, cfg, env, left, right)
        if expr.op is BinOp.REM:
            return fp_remainder(left, right, env)
        if expr.op is BinOp.MIN:
            return fp_min(left, right, env)
        if expr.op is BinOp.MAX:
            return fp_max(left, right, env)
        raise AssertionError(f"unhandled binary op {expr.op}")
    if isinstance(expr, FMA):
        a = _eval(expr.a, bindings, config, cfg, env)
        b = _eval(expr.b, bindings, config, cfg, env)
        c = _eval(expr.c, bindings, config, cfg, env)
        return _oracle_node("fma", cfg, env, a, b, c)
    raise OptimizationError(f"cannot evaluate node {type(expr).__name__}")
