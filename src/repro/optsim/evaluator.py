"""Expression evaluation under a machine configuration.

:func:`evaluate` interprets an expression tree with the softfloat engine
in the config's format, rounding mode, and FTZ/DAZ setting, collecting
the sticky exception flags the run raises.  :func:`evaluate_strict` is
the reference semantics every compliance question compares against:
strict IEEE, no tree transformations.

Note the separation of concerns: *this module never rewrites the tree* —
compiler transformations live in :mod:`repro.optsim.passes` and are
applied by :func:`repro.optsim.pipeline.optimize` before evaluation.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Mapping

from repro.errors import OptimizationError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
from repro.optsim.ast import FMA, Binary, BinOp, Const, Expr, Unary, UnOp, Var
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import (
    SoftFloat,
    convert_format,
    fp_add,
    fp_div,
    fp_fma,
    fp_max,
    fp_min,
    fp_mul,
    fp_remainder,
    fp_sqrt,
    fp_sub,
    parse_softfloat,
)
from repro.softfloat.formats import FloatFormat

__all__ = ["EvalResult", "bind", "const_value", "evaluate", "evaluate_strict"]


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """The value and the exception footprint of one evaluation."""

    value: SoftFloat
    flags: FPFlag
    config: MachineConfig

    def __str__(self) -> str:
        from repro.fpenv.flags import flag_names

        names = ",".join(flag_names(self.flags)) or "none"
        return f"{self.value!s} [{names}] under {self.config.name}"


def bind(
    config: MachineConfig, **values: object
) -> dict[str, SoftFloat]:
    """Build a binding dict, converting plain numbers to the config's
    format.

    >>> from repro.optsim.machine import STRICT
    >>> bind(STRICT, a=1.5)["a"]
    SoftFloat(binary64, 1.5)
    """
    from repro.softfloat import sf

    return {name: sf(value, config.fmt) for name, value in values.items()}


def evaluate(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig = STRICT,
    env: FPEnv | None = None,
    *,
    hook: Callable[[Expr, FPFlag], None] | None = None,
) -> EvalResult:
    """Interpret ``expr`` under ``config``.

    ``bindings`` maps variable names to SoftFloat values; values in a
    different format are converted (with rounding) on use, modelling a
    load into the destination register width.  A fresh environment is
    created from the config unless ``env`` is supplied (in which case
    flags accumulate there and the config's FTZ/DAZ/rounding are
    *ignored* in favor of the environment's).

    ``hook(node, flags)`` is called after every operation (and every
    converting variable load) with the flags that node alone raised.
    """
    local_env = env if env is not None else config.fresh_env()
    value = _eval(expr, bindings, config, local_env, hook)
    return EvalResult(value=value, flags=local_env.flags, config=config)


def evaluate_strict(
    expr: Expr, bindings: Mapping[str, SoftFloat], fmt=None
) -> EvalResult:
    """Reference semantics: strict IEEE in the given (default binary64)
    format, default rounding, no FTZ/DAZ, no transformations."""
    config = STRICT if fmt is None else STRICT.replace(fmt=fmt)
    return evaluate(expr, bindings, config)


@functools.lru_cache(maxsize=4096)
def const_value(literal: str, fmt: FloatFormat) -> SoftFloat:
    """A literal rounded into ``fmt`` quietly, decoded once: constant
    conversion happens at compile time, so its inexactness is not a
    runtime exception (itself a documented subtlety)."""
    return parse_softfloat(literal, fmt)


_BINARY_FNS = {
    BinOp.ADD: fp_add,
    BinOp.SUB: fp_sub,
    BinOp.MUL: fp_mul,
    BinOp.DIV: fp_div,
    BinOp.REM: fp_remainder,
    BinOp.MIN: fp_min,
    BinOp.MAX: fp_max,
}


def _run(hook, node: Expr, env: FPEnv, fn, *args) -> SoftFloat:
    """``fn(*args, env)``, handing ``hook`` the flags this call alone
    raised: the sticky flags are set aside, cleared, and ORed back."""
    if hook is None:
        return fn(*args, env)
    saved = env.flags
    env.flags = FPFlag.NONE
    try:
        result = fn(*args, env)
        hook(node, env.flags)
    finally:
        env.flags = FLAGS_BY_VALUE[env.flags._value_ | saved._value_]
    return result


def _eval(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig,
    env: FPEnv,
    hook=None,
) -> SoftFloat:
    if isinstance(expr, Const):
        return const_value(expr.literal, config.fmt)
    if isinstance(expr, Var):
        try:
            value = bindings[expr.name]
        except KeyError:
            raise OptimizationError(f"unbound variable {expr.name!r}")
        if value.fmt != config.fmt:
            value = _run(hook, expr, env, convert_format, value, config.fmt)
        return value
    if isinstance(expr, Binary):
        left = _eval(expr.left, bindings, config, env, hook)
        right = _eval(expr.right, bindings, config, env, hook)
        return _run(hook, expr, env, _BINARY_FNS[expr.op], left, right)
    if isinstance(expr, Unary):
        operand = _eval(expr.operand, bindings, config, env, hook)
        if expr.op is UnOp.NEG:
            return -operand
        if expr.op is UnOp.ABS:
            return abs(operand)
        if expr.op is UnOp.SQRT:
            return _run(hook, expr, env, fp_sqrt, operand)
        raise AssertionError(f"unhandled unary op {expr.op}")  # pragma: no cover
    if isinstance(expr, FMA):
        a = _eval(expr.a, bindings, config, env, hook)
        b = _eval(expr.b, bindings, config, env, hook)
        c = _eval(expr.c, bindings, config, env, hook)
        return _run(hook, expr, env, fp_fma, a, b, c)
    raise OptimizationError(f"cannot evaluate node {type(expr).__name__}")
