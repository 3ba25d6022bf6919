"""Batched expression evaluation over the softfloat backend protocol.

:func:`evaluate_many` is the vectorized twin of
:func:`repro.optsim.evaluator.evaluate`: one walk of the expression
tree evaluates *every* candidate binding at once, with each tree node
computed across all lanes by a :class:`~repro.softfloat.SoftFloatBackend`
before the walk moves on.  Per-lane sticky flags accumulate exactly as
a fresh :class:`~repro.fpenv.FPEnv` would collect them lane by lane —
flag accumulation is a set union, so node order inside one lane and
lane order inside one node commute.

Operations outside the backend protocol (``REM``, ``MIN``, ``MAX``,
cross-format variable loads) fall back to the scalar engine lane by
lane, so the function is total over the expression IR while the hot
arithmetic rides the batch kernels.  The cross-backend differential
suite covers the resulting bit-identity with the scalar evaluator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import OptimizationError
from repro.fpenv.flags import FLAGS_BY_VALUE
from repro.optsim.ast import FMA, Binary, BinOp, Const, Expr, Unary, UnOp, Var
from repro.optsim.evaluator import EvalResult, const_value
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import (
    SoftFloat,
    convert_format,
    fp_max,
    fp_min,
    fp_remainder,
)
from repro.softfloat.backend import SoftFloatBackend, get_backend

__all__ = ["evaluate_lanes", "evaluate_many"]

#: Binary AST operations carried by the backend protocol.
_BACKEND_BINOPS = {
    BinOp.ADD: "add",
    BinOp.SUB: "sub",
    BinOp.MUL: "mul",
    BinOp.DIV: "div",
}

#: Binary AST operations that always take the scalar lane-by-lane path.
_SCALAR_BINOPS = {
    BinOp.REM: fp_remainder,
    BinOp.MIN: fp_min,
    BinOp.MAX: fp_max,
}


def evaluate_many(
    expr: Expr,
    bindings_list: Sequence[Mapping[str, SoftFloat]],
    config: MachineConfig = STRICT,
    backend: SoftFloatBackend | str = "auto",
) -> list[EvalResult]:
    """Evaluate ``expr`` under ``config`` for every binding at once.

    Returns one :class:`~repro.optsim.evaluator.EvalResult` per binding,
    bit-identical (value and flags) to calling
    :func:`repro.optsim.evaluator.evaluate` in a loop.

    >>> from repro.optsim import parse_expr, STRICT
    >>> from repro.softfloat import sf
    >>> expr = parse_expr("a + b")
    >>> results = evaluate_many(
    ...     expr, [{"a": sf(0.1), "b": sf(0.2)}, {"a": sf(1.0), "b": sf(2.0)}]
    ... )
    >>> [str(r.value) for r in results]
    ['0.30000000000000004', '3.0']
    """
    backend_obj = get_backend(backend)
    n = len(bindings_list)
    flags = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return []
    fmt = config.fmt

    def var_source(name: str, flags: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=np.uint64)
        for i, bindings in enumerate(bindings_list):
            try:
                value = bindings[name]
            except KeyError:
                raise OptimizationError(f"unbound variable {name!r}")
            if value.fmt != fmt:
                env = config.fresh_env()
                value = convert_format(value, fmt, env)
                flags[i] |= np.uint8(env.flags.value)
            out[i] = value.bits
        return out

    bits = _eval_lanes(expr, var_source, n, config, backend_obj, flags)
    return [
        EvalResult(
            value=SoftFloat(fmt, lane_bits),
            flags=FLAGS_BY_VALUE[lane_flags],
            config=config,
        )
        for lane_bits, lane_flags in zip(bits.tolist(), flags.tolist())
    ]


def evaluate_lanes(
    expr: Expr,
    var_lanes: Mapping[str, np.ndarray],
    config: MachineConfig = STRICT,
    backend: SoftFloatBackend | str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Bits-level twin of :func:`evaluate_many` for pre-packed lanes.

    ``var_lanes`` maps each variable to a ``uint64`` array of packed
    encodings *already in the config's format* (no per-lane conversion
    happens — this is the hot path exhaustive sweeps drive, where the
    operands come straight out of a bit-region enumerator rather than
    from SoftFloat binding dicts).  Returns ``(bits, flags)`` arrays:
    packed result encodings and per-lane sticky-flag bytes.
    """
    sizes = {lane.shape[0] for lane in var_lanes.values()}
    if len(sizes) > 1:
        raise ValueError(f"ragged variable lanes: {sorted(sizes)}")
    n = sizes.pop() if sizes else 1
    flags = np.zeros(n, dtype=np.uint8)

    def var_source(name: str, flags: np.ndarray) -> np.ndarray:
        try:
            return np.asarray(var_lanes[name], dtype=np.uint64)
        except KeyError:
            raise OptimizationError(f"unbound variable {name!r}")

    bits = _eval_lanes(expr, var_source, n, config, get_backend(backend),
                       flags)
    return bits, flags


def _scalar_sweep(
    kernel,
    config: MachineConfig,
    flags: np.ndarray,
    *operand_lanes: np.ndarray,
) -> np.ndarray:
    """Apply a scalar engine kernel lane by lane, accumulating flags."""
    fmt = config.fmt
    out = np.zeros(flags.shape[0], dtype=np.uint64)
    for i in range(flags.shape[0]):
        env = config.fresh_env()
        args = [SoftFloat(fmt, int(lane[i])) for lane in operand_lanes]
        out[i] = kernel(*args, env).bits
        flags[i] |= np.uint8(env.flags.value)
    return out


def _run_op(
    op: str,
    config: MachineConfig,
    backend: SoftFloatBackend,
    flags: np.ndarray,
    *operand_lanes: np.ndarray,
) -> np.ndarray:
    """One protocol op across all lanes; scalar fallback off-protocol."""
    fmt = config.fmt
    if backend.supports(op, fmt, config.rounding, config.ftz, config.daz):
        result = backend.run_packed(
            op, fmt, list(operand_lanes), config.rounding, config.ftz,
            config.daz,
        )
        flags |= result.flags
        return result.bits
    from repro.softfloat.backend import _SCALAR_KERNELS

    return _scalar_sweep(_SCALAR_KERNELS[op], config, flags, *operand_lanes)


def _eval_lanes(
    expr: Expr,
    var_source,
    n: int,
    config: MachineConfig,
    backend: SoftFloatBackend,
    flags: np.ndarray,
) -> np.ndarray:
    """The vectorized mirror of ``evaluator._eval``: packed bits lanes.

    ``var_source(name, flags)`` supplies each variable's lane array —
    how :func:`evaluate_many` (SoftFloat dicts, converting) and
    :func:`evaluate_lanes` (pre-packed bits) share one walk."""
    fmt = config.fmt
    if isinstance(expr, Const):
        # Compile-time constant conversion: quiet, like the evaluator.
        return np.full(n, const_value(expr.literal, fmt).bits,
                       dtype=np.uint64)
    if isinstance(expr, Var):
        return var_source(expr.name, flags)
    if isinstance(expr, Unary):
        operand = _eval_lanes(expr.operand, var_source, n, config, backend,
                              flags)
        signbit = np.uint64(1 << (fmt.width - 1))
        if expr.op is UnOp.NEG:
            return operand ^ signbit
        if expr.op is UnOp.ABS:
            return operand & ~signbit
        if expr.op is UnOp.SQRT:
            return _run_op("sqrt", config, backend, flags, operand)
        raise AssertionError(f"unhandled unary op {expr.op}")  # pragma: no cover
    if isinstance(expr, Binary):
        left = _eval_lanes(expr.left, var_source, n, config, backend, flags)
        right = _eval_lanes(expr.right, var_source, n, config, backend,
                            flags)
        if expr.op in _BACKEND_BINOPS:
            return _run_op(
                _BACKEND_BINOPS[expr.op], config, backend, flags, left, right
            )
        if expr.op in _SCALAR_BINOPS:
            return _scalar_sweep(
                _SCALAR_BINOPS[expr.op], config, flags, left, right
            )
        raise AssertionError(f"unhandled binary op {expr.op}")  # pragma: no cover
    if isinstance(expr, FMA):
        a = _eval_lanes(expr.a, var_source, n, config, backend, flags)
        b = _eval_lanes(expr.b, var_source, n, config, backend, flags)
        c = _eval_lanes(expr.c, var_source, n, config, backend, flags)
        return _run_op("fma", config, backend, flags, a, b, c)
    raise OptimizationError(f"cannot evaluate node {type(expr).__name__}")
