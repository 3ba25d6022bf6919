"""Conversions between SoftFloat formats and host types.

Conversions are IEEE operations and raise flags when given an
environment; the constructor conveniences (``from_float`` and
``to_float``) deliberately use a scratch environment so that *building
test values never pollutes the caller's sticky flags*.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from repro.errors import FormatError
from repro.fpenv.env import FPEnv, get_env
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat._round import round_and_pack
from repro.softfloat.formats import BINARY64, FloatFormat
from repro.softfloat.value import SoftFloat

__all__ = [
    "convert_format",
    "convert_bits",
    "softfloat_from_float",
    "softfloat_to_float",
    "softfloat_from_int",
    "softfloat_to_int",
    "softfloat_from_fraction",
    "round_to_integral",
]


def convert_format(
    x: SoftFloat, fmt: FloatFormat, env: FPEnv | None = None
) -> SoftFloat:
    """Convert ``x`` to ``fmt`` with correct rounding (IEEE
    ``convertFormat``).  NaN payloads are preserved where they fit;
    signaling NaNs raise *invalid* and are quieted."""
    env = env or get_env()
    if x.fmt == fmt:
        if x.is_signaling_nan:
            env.raise_flags(FPFlag.INVALID, "convert")
            return SoftFloat(fmt, x.bits | fmt.quiet_bit)
        return x
    if x.is_nan:
        if x.is_signaling_nan:
            env.raise_flags(FPFlag.INVALID, "convert")
        # Move the payload across, truncating from the low end if needed.
        payload = x.frac & ~x.fmt.quiet_bit
        shift = fmt.frac_bits - x.fmt.frac_bits
        payload = payload << shift if shift >= 0 else payload >> (-shift)
        payload &= fmt.quiet_bit - 1
        return SoftFloat(fmt, fmt.quiet_nan_bits(x.sign, payload))
    if x.is_inf:
        return SoftFloat.inf(fmt, x.sign)
    if x.is_zero:
        return SoftFloat.zero(fmt, x.sign)
    mant, exp2 = x.significand_value()
    bits = round_and_pack(fmt, env, x.sign, mant, exp2, 0, "convert")
    return SoftFloat(fmt, bits)


def convert_bits(
    bits: int, src_fmt: FloatFormat, dst_fmt: FloatFormat, env: FPEnv | None = None
) -> int:
    """Packed-encoding form of :func:`convert_format`, used by the
    backend protocol: ``src_fmt`` bits in, ``dst_fmt`` bits out."""
    return convert_format(SoftFloat(src_fmt, bits), dst_fmt, env).bits


def softfloat_from_float(value: float, fmt: FloatFormat = BINARY64) -> SoftFloat:
    """Build a SoftFloat from a host ``float`` (IEEE binary64).

    Exact for binary64; other destinations are correctly rounded under
    round-to-nearest-even.  Uses a scratch environment — constructing
    values raises no flags.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    x = SoftFloat(BINARY64, bits)
    if fmt == BINARY64:
        return x
    scratch = FPEnv()
    return convert_format(x, fmt, scratch)


def softfloat_to_float(x: SoftFloat) -> float:
    """Convert to a host ``float``, correctly rounded (no flags)."""
    if x.fmt == BINARY64:
        return struct.unpack("<d", struct.pack("<Q", x.bits))[0]
    scratch = FPEnv()
    as64 = convert_format(x, BINARY64, scratch)
    return struct.unpack("<d", struct.pack("<Q", as64.bits))[0]


def softfloat_from_int(
    value: int, fmt: FloatFormat = BINARY64, env: FPEnv | None = None
) -> SoftFloat:
    """Correctly rounded conversion from an arbitrary integer
    (``convertFromInt``).  Raises *inexact*/*overflow* as appropriate."""
    env = env or get_env()
    if value == 0:
        return SoftFloat.zero(fmt, 0)
    sign = 1 if value < 0 else 0
    bits = round_and_pack(fmt, env, sign, abs(value), 0, 0, "fromint")
    return SoftFloat(fmt, bits)


def softfloat_from_fraction(
    value: Fraction, fmt: FloatFormat = BINARY64, env: FPEnv | None = None
) -> SoftFloat:
    """Correctly rounded conversion from an exact rational."""
    env = env or get_env()
    if value == 0:
        return SoftFloat.zero(fmt, 0)
    sign = 1 if value < 0 else 0
    num, den = abs(value.numerator), value.denominator
    # Produce `precision + 3` quotient bits; the remainder is sticky.
    extra = fmt.precision + 3 + (den.bit_length() - num.bit_length())
    if extra < 0:
        extra = 0
    quotient, remainder = divmod(num << extra, den)
    sticky = 1 if remainder else 0
    bits = round_and_pack(fmt, env, sign, quotient, -extra, sticky, "fromfraction")
    return SoftFloat(fmt, bits)


def round_to_integral(
    x: SoftFloat,
    mode: RoundingMode | None = None,
    env: FPEnv | None = None,
    *,
    signal_inexact: bool = False,
) -> SoftFloat:
    """IEEE ``roundToIntegral``: round to an integral value in the same
    format.  By default follows ``roundToIntegralTowardX`` semantics
    (no *inexact*); pass ``signal_inexact=True`` for the *exact* variant.
    """
    env = env or get_env()
    mode = mode or env.rounding
    if x.is_nan:
        from repro.softfloat.arith import propagate_nan

        return propagate_nan(env, "roundToIntegral", x)
    if x.is_inf or x.is_zero:
        return x
    mant, exp2 = x.significand_value()
    if exp2 >= 0:
        return x  # already integral
    shift = -exp2
    kept = mant >> shift
    round_bit = (mant >> (shift - 1)) & 1 if shift >= 1 else 0
    sticky = 1 if (mant & ((1 << max(shift - 1, 0)) - 1)) else 0
    inexact = bool(round_bit or sticky)
    if mode.rounds_away(x.sign, kept & 1, round_bit, sticky):
        kept += 1
    if inexact and signal_inexact:
        env.raise_flags(FPFlag.INEXACT, "roundToIntegral")
    if kept == 0:
        return SoftFloat.zero(x.fmt, x.sign)
    bits = round_and_pack(x.fmt, FPEnv(), x.sign, kept, 0, 0, "roundToIntegral")
    return SoftFloat(x.fmt, bits)


def softfloat_to_int(
    x: SoftFloat,
    mode: RoundingMode | None = None,
    env: FPEnv | None = None,
) -> int:
    """IEEE ``convertToInteger``: NaN and infinities raise *invalid*
    (and a :class:`FormatError`, since Python ints cannot saturate)."""
    env = env or get_env()
    mode = mode or env.rounding
    if x.is_nan or x.is_inf:
        env.raise_flags(FPFlag.INVALID, "toint")
        raise FormatError(f"cannot convert {x!s} to an integer")
    if x.is_zero:
        return 0
    mant, exp2 = x.significand_value()
    if exp2 >= 0:
        magnitude = mant << exp2
    else:
        shift = -exp2
        kept = mant >> shift
        round_bit = (mant >> (shift - 1)) & 1 if shift >= 1 else 0
        sticky = 1 if (mant & ((1 << max(shift - 1, 0)) - 1)) else 0
        if round_bit or sticky:
            env.raise_flags(FPFlag.INEXACT, "toint")
        if mode.rounds_away(x.sign, kept & 1, round_bit, sticky):
            kept += 1
        magnitude = kept
    return -magnitude if x.sign else magnitude
