"""The native third opinion, one array call per window.

Each lane of :func:`native_result_bits` and :func:`native_agrees` is
checked against a per-lane rule built here from ``struct`` and Python
floats: binary64 arithmetic is the host's, and binary32 is computed in
binary64 and rounded once (exact for + - * / and sqrt, since 53 >= 2*24
+ 2).  The columns hold the operands where host behaviour is least
uniform: quiet and signaling NaNs with payloads, infinities, signed
zeros, subnormals and negative square-root operands.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from repro.fpenv.rounding import RoundingMode
from repro.oracle import run_conformance
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.oracle.native import (
    native_agrees,
    native_result_bits,
    native_supported,
)
from repro.oracle.runner import _EVAL_WINDOW, _eval_windows
from repro.softfloat.formats import BINARY16, BINARY32, BINARY64

RNE = RoundingMode.NEAREST_EVEN
OPS = ("add", "sub", "mul", "div", "sqrt")
_CODES = {BINARY32.name: ("<I", "<f"), BINARY64.name: ("<Q", "<d")}


def _specials(fmt):
    """NaNs with payloads, infinities, zeros, subnormals, normals."""
    values = []
    for sign in (0, 1):
        values += [
            fmt.quiet_nan_bits(sign), fmt.quiet_nan_bits(sign, 5),
            fmt.signaling_nan_bits(sign, 1), fmt.signaling_nan_bits(sign, 9),
            fmt.inf_bits(sign), fmt.zero_bits(sign),
            fmt.min_subnormal_bits(sign), fmt.pack(sign, 0, fmt.sig_mask),
            fmt.min_normal_bits(sign), fmt.one_bits(sign),
            fmt.max_finite_bits(sign), fmt.pack(sign, fmt.bias + 3, 12345),
        ]
    return values


def _to_float(fmt, bits: int) -> float:
    uint_code, float_code = _CODES[fmt.name]
    return struct.unpack(float_code, struct.pack(uint_code, bits))[0]


def _to_bits(fmt, value: float) -> int:
    uint_code, float_code = _CODES[fmt.name]
    try:
        packed = struct.pack(float_code, value)
    except OverflowError:  # rounds past the largest binary32
        packed = struct.pack(float_code, math.copysign(math.inf, value))
    return struct.unpack(uint_code, packed)[0]


def _host(op: str, a: float, b: float) -> float:
    try:
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            return a / b
        return math.sqrt(a)
    except ZeroDivisionError:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    except ValueError:  # sqrt of a negative
        return math.nan


def _is_nan(fmt, bits: int) -> bool:
    return (bits & fmt.abs_mask) > fmt.inf_mag


def _agree(fmt, x: int, y: int) -> bool:
    return x == y or (_is_nan(fmt, x) and _is_nan(fmt, y))


def _struct_bits(fmt, op: str, operands) -> int:
    floats = [_to_float(fmt, bits) for bits in operands] + [0.0]
    return _to_bits(fmt, _host(op, floats[0], floats[1]))


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
@pytest.mark.parametrize("op", OPS)
def test_result_column_matches_per_lane_rule(fmt, op):
    specials = _specials(fmt)
    arity = 1 if op == "sqrt" else 2
    cases = list(itertools.product(specials, repeat=arity))
    columns = [np.array(column, dtype=np.uint64) for column in zip(*cases)]
    got = native_result_bits(op, fmt, columns)
    assert got.shape == (len(cases),)
    for case, bits in zip(cases, got.tolist()):
        assert _agree(fmt, bits, _struct_bits(fmt, op, case)), (op, case)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
def test_agreement_column_treats_every_nan_as_one_value(fmt):
    specials = _specials(fmt)
    pairs = list(itertools.product(specials, repeat=2))
    native, engine = (np.array(column, dtype=np.uint64)
                      for column in zip(*pairs))
    got = native_agrees(fmt, native, engine).tolist()
    assert got == [_agree(fmt, x, y) for x, y in pairs]
    assert any(got) and not all(got)


def test_unsupported_op_or_format_is_refused():
    assert not native_supported("fma", BINARY64)
    assert not native_supported("add", BINARY16)
    with pytest.raises(ValueError):
        native_result_bits("add", BINARY16, [np.zeros(1, np.uint64)] * 2)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
@pytest.mark.parametrize("op", OPS)
def test_sweep_native_tallies_follow_the_per_lane_rule(fmt, op):
    """A one-cell RNE sweep's native tallies, recounted lane by lane
    against the exact oracle (the engine's twin in a clean sweep)."""
    matrix = ((RNE, (False, False)),)
    budget, seed = 400, 9
    report = run_conformance(fmt, [op], budget=budget, seed=seed,
                             modes=[RNE], env_combos=((False, False),))
    assert report.clean
    cfg = OracleConfig(rounding=RNE)
    agree = 0
    for _, slots, _ in _eval_windows(op, fmt, budget, seed, matrix, 0,
                                     None, _EVAL_WINDOW):
        for operands in zip(*slots):
            oracle_bits = oracle_operation(op, fmt, cfg, *operands).bits
            agree += _agree(fmt, _struct_bits(fmt, op, operands),
                            oracle_bits)
    stats = report.op_stats[op]
    assert stats.native_evals == budget
    assert stats.native_agree == agree
