"""The exact oracle against a second, independent rounding over ``Fraction``.

The oracle rounds exact scaled integers; the engine is tested against
the oracle.  This file keeps the oracle's own arithmetic computed
twice: a short reference written here over :class:`fractions.Fraction`
finds the two representable neighbours of the exact result and picks
one by the rounding direction, then restates the special-operand policy
(NaN propagation, the x86 FMA3 ``0*inf`` rule checked before DAZ, signed
zeros, pass-through of ``x + 0``, FTZ/DAZ) from the module docstring.

The default tier drives seeded boundary and random operands for every
op in tiny8, binary16, binary32, binary64 and binary128, under all five
rounding directions, FTZ/DAZ off and on, and both tininess conventions.
The ``slow`` tier is exhaustive over tiny8.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from fractions import Fraction

import pytest

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.cases import boundary_operands
from repro.oracle.exact import OP_ARITY, OracleConfig, oracle_operation
from repro.softfloat.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    TINY8,
    FloatFormat,
)

FORMATS = (TINY8, BINARY16, BINARY32, BINARY64, BINARY128)
OPS = ("add", "sub", "mul", "div", "sqrt", "fma")
CONFIGS = tuple(
    OracleConfig(rounding=mode, ftz=ftz, daz=daz, tininess=tininess)
    for mode in RoundingMode
    for ftz in (False, True)
    for daz in (False, True)
    for tininess in ("before", "after")
)


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def _pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def _floor_log2(x: Fraction) -> int:
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while _pow2(e) > x:
        e -= 1
    while _pow2(e + 1) <= x:
        e += 1
    return e


def _value(fmt: FloatFormat, bits: int, daz: bool):
    """``(sign, kind, signed exact value)`` of an encoding."""
    sign, biased, frac = fmt.unpack(bits)
    if biased == fmt.max_biased_exp:
        return sign, ("nan" if frac else "inf"), None
    if biased == 0 and (frac == 0 or daz):
        return sign, "zero", Fraction(0)
    if biased == 0:
        magnitude = frac * _pow2(fmt.emin - fmt.precision + 1)
    else:
        magnitude = ((frac + 2 ** (fmt.precision - 1))
                     * _pow2(biased - fmt.bias - fmt.precision + 1))
    return sign, "finite", -magnitude if sign else magnitude


def _encode(fmt: FloatFormat, sign: int, r: Fraction) -> int:
    """Encoding of a representable magnitude ``r > 0``."""
    if r < _pow2(fmt.emin):
        return fmt.pack(sign, 0, int(r / _pow2(
            fmt.emin - fmt.precision + 1)))
    e = _floor_log2(r)
    significand = r / _pow2(e - fmt.precision + 1)
    return fmt.pack(sign, e + fmt.bias,
                    int(significand) - 2 ** (fmt.precision - 1))


def _round(fmt: FloatFormat, cfg: OracleConfig, sign: int, a: Fraction,
           root: bool = False):
    """Round ``a`` (or ``sqrt(a)`` when ``root``), ``a > 0``, to
    ``(bits, flags)``: bracket it between two neighbours on the
    destination grid, then pick one."""
    def square(v):
        return v * v if root else v

    e = _floor_log2(a) // 2 if root else _floor_log2(a)
    ulp = _pow2(max(e, fmt.emin) - fmt.precision + 1)
    k = (math.isqrt(math.floor(a / (ulp * ulp))) if root
         else math.floor(a / ulp))
    low, high = k * ulp, (k + 1) * ulp
    mode = cfg.rounding
    if square(low) == a:
        r = low
    elif mode in (RoundingMode.NEAREST_EVEN, RoundingMode.NEAREST_AWAY):
        mid = square((low + high) / 2)
        if a != mid:
            r = low if a < mid else high
        elif mode is RoundingMode.NEAREST_AWAY:
            r = high
        else:
            r = low if k % 2 == 0 else high
    elif mode is RoundingMode.TOWARD_ZERO:
        r = low
    elif mode is RoundingMode.TOWARD_POSITIVE:
        r = low if sign else high
    else:
        r = high if sign else low
    inexact = square(r) != a

    if r >= _pow2(fmt.emax + 1):
        to_inf = (mode.is_nearest
                  or (mode is RoundingMode.TOWARD_POSITIVE and not sign)
                  or (mode is RoundingMode.TOWARD_NEGATIVE and sign))
        bits = fmt.inf_bits(sign) if to_inf else fmt.max_finite_bits(sign)
        return bits, FPFlag.OVERFLOW | FPFlag.INEXACT
    if r == 0:
        return fmt.zero_bits(sign), FPFlag.INEXACT | FPFlag.UNDERFLOW
    subnormal = r < _pow2(fmt.emin)
    tiny = e < fmt.emin and (cfg.tininess == "before" or subnormal)
    flags = FPFlag.NONE
    if inexact:
        flags |= FPFlag.INEXACT
        if tiny:
            flags |= FPFlag.UNDERFLOW
    if subnormal and cfg.ftz:
        return fmt.zero_bits(sign), flags | FPFlag.UNDERFLOW | FPFlag.INEXACT
    if subnormal:
        flags |= FPFlag.DENORMAL_RESULT
    return _encode(fmt, sign, r), flags


def _round_exact(fmt, cfg, x: Fraction):
    """Round a signed exact result; an exact zero is a cancellation."""
    if x == 0:
        sign = 1 if cfg.rounding is RoundingMode.TOWARD_NEGATIVE else 0
        return fmt.zero_bits(sign), FPFlag.NONE
    return _round(fmt, cfg, int(x < 0), abs(x))


def reference(op: str, fmt: FloatFormat, cfg: OracleConfig,
              operands: tuple[int, ...]):
    """``(bits, flags)`` the oracle must deliver, by the Fraction route."""
    raw = [_value(fmt, bits, False) for bits in operands]
    signaling = any(kind == "nan" and not bits & fmt.quiet_bit
                    for bits, (_, kind, _) in zip(operands, raw))
    default_nan = fmt.quiet_nan_bits(), FPFlag.INVALID
    if op == "fma" and not signaling and {raw[0][1], raw[1][1]} == {
            "zero", "inf"}:
        return default_nan  # 0*inf, on the operands before DAZ
    for bits, (_, kind, _) in zip(operands, raw):
        if kind == "nan":
            return (bits | fmt.quiet_bit,
                    FPFlag.INVALID if signaling else FPFlag.NONE)

    values = [_value(fmt, bits, cfg.daz) for bits in operands]
    if op == "sub":
        op = "add"
        sign_bit = 1 << (fmt.width - 1)
        operands = (operands[0], operands[1] ^ sign_bit)
        s, kind, v = values[1]
        values[1] = (1 - s, kind, None if v is None else -v)
    kinds = [kind for _, kind, _ in values]
    signs = [s for s, _, _ in values]
    x = [v for _, _, v in values]
    cancel = 1 if cfg.rounding is RoundingMode.TOWARD_NEGATIVE else 0

    if op == "add":
        if "inf" in kinds:
            if kinds == ["inf", "inf"] and signs[0] != signs[1]:
                return default_nan
            return fmt.inf_bits(signs[kinds.index("inf")]), FPFlag.NONE
        if kinds == ["zero", "zero"]:
            sign = signs[0] if signs[0] == signs[1] else cancel
            return fmt.zero_bits(sign), FPFlag.NONE
        if "zero" in kinds:  # x + 0 passes x through untouched
            return operands[1 - kinds.index("zero")], FPFlag.NONE
        return _round_exact(fmt, cfg, x[0] + x[1])

    sign = signs[0] ^ signs[1] if op != "sqrt" else signs[0]
    if op == "mul":
        if "inf" in kinds:
            if "zero" in kinds:
                return default_nan
            return fmt.inf_bits(sign), FPFlag.NONE
        if "zero" in kinds:
            return fmt.zero_bits(sign), FPFlag.NONE
        return _round(fmt, cfg, sign, abs(x[0] * x[1]))

    if op == "div":
        if kinds[0] == "inf":
            if kinds[1] == "inf":
                return default_nan
            return fmt.inf_bits(sign), FPFlag.NONE
        if kinds[1] == "inf":
            return fmt.zero_bits(sign), FPFlag.NONE
        if kinds[1] == "zero":
            if kinds[0] == "zero":
                return default_nan
            return fmt.inf_bits(sign), FPFlag.DIV_BY_ZERO
        if kinds[0] == "zero":
            return fmt.zero_bits(sign), FPFlag.NONE
        return _round(fmt, cfg, sign, abs(x[0] / x[1]))

    if op == "sqrt":
        if kinds[0] == "zero":
            return fmt.zero_bits(sign), FPFlag.NONE
        if sign:
            return default_nan
        if kinds[0] == "inf":
            return operands[0], FPFlag.NONE
        return _round(fmt, cfg, 0, x[0], root=True)

    assert op == "fma"
    if "inf" in kinds[:2]:
        if kinds[2] == "inf" and signs[2] != sign:
            return default_nan
        return fmt.inf_bits(sign), FPFlag.NONE
    if kinds[2] == "inf":
        return operands[2], FPFlag.NONE
    if "zero" in kinds[:2]:
        if kinds[2] == "zero":
            zero_sign = sign if sign == signs[2] else cancel
            return fmt.zero_bits(zero_sign), FPFlag.NONE
        return operands[2], FPFlag.NONE
    return _round_exact(fmt, cfg, x[0] * x[1] + x[2])


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------
def _steered(fmt: FloatFormat, rng: random.Random) -> int:
    """A random encoding whose exponent favours the subnormal band, the
    region around 1 and the overflow edge, and whose fraction favours
    all-zeros, all-ones and short trailing runs."""
    top = fmt.max_biased_exp
    biased = rng.choice([
        rng.randrange(0, 3), rng.randrange(top - 3, top + 1),
        rng.randrange(max(fmt.bias - 4, 0), fmt.bias + 4),
        rng.randrange(0, top + 1),
    ])
    frac = rng.choice([
        0, 1, fmt.sig_mask, rng.getrandbits(fmt.frac_bits),
        rng.getrandbits(fmt.frac_bits) << rng.randrange(fmt.frac_bits),
    ]) & fmt.sig_mask
    return fmt.pack(rng.randrange(2), biased, frac)


def _operand_tuples(op: str, fmt: FloatFormat):
    count = 48
    rng = random.Random(zlib.crc32(f"{op}/{fmt.name}".encode()))
    corners = boundary_operands(fmt)
    arity = OP_ARITY[op]
    tuples = [
        tuple(rng.choice(corners) if rng.random() < 0.4
              else _steered(fmt, rng) for _ in range(arity))
        for _ in range(count)
    ]
    sign_bit = 1 << (fmt.width - 1)
    for _ in range(count // 4):
        # Exact and near cancellation: the last operand cancels the
        # rest, give or take its lowest fraction bit.
        a, b = _steered(fmt, rng), _steered(fmt, rng)
        near = rng.choice([0, 1])
        if op == "add":
            tuples.append((a, a ^ sign_bit ^ near))
        elif op == "sub":
            tuples.append((a, a ^ near))
        elif op == "fma":
            product, _ = reference("mul", fmt, CONFIGS[0], (a, b))
            tuples.append((a, b, product ^ sign_bit ^ near))
    return tuples


def _assert_agrees(op, fmt, cfg, operands):
    got = oracle_operation(op, fmt, cfg, *operands)
    want = reference(op, fmt, cfg, operands)
    assert (got.bits, got.flags) == want, (
        op, fmt.name, [hex(x) for x in operands], cfg,
        hex(got.bits), got.flags, hex(want[0]), want[1])


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("op", OPS)
def test_oracle_matches_fraction_reference(op, fmt):
    for operands in _operand_tuples(op, fmt):
        for cfg in CONFIGS:
            _assert_agrees(op, fmt, cfg, operands)


@pytest.mark.slow
@pytest.mark.parametrize("op", OPS)
def test_oracle_matches_fraction_reference_exhaustive_tiny8(op):
    """Every tiny8 operand tuple.  Unary and binary ops run under all
    40 configurations; fma's 2^18 triples cycle through them."""
    domain = range(1 << TINY8.width)
    tuples = itertools.product(domain, repeat=OP_ARITY[op])
    if op == "fma":
        for operands, cfg in zip(tuples, itertools.cycle(CONFIGS)):
            _assert_agrees(op, TINY8, cfg, operands)
        return
    for operands in tuples:
        for cfg in CONFIGS:
            _assert_agrees(op, TINY8, cfg, operands)
