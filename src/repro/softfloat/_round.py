"""Internal round-and-pack machinery shared by every softfloat operation.

Operations compute an *exact* (or exactly-characterized) intermediate
result in the form ``(-1)**sign * mant * 2**exp2`` with an optional
sticky marker meaning "plus some nonzero amount strictly smaller than
``2**exp2``".  :func:`round_and_pack` turns that into a correctly rounded
encoding of the destination format, raising the appropriate sticky flags
(inexact, overflow, underflow, denormal-result) on the environment.

Tininess is detected **before rounding** (the x86/SSE choice, permitted
by IEEE 754), and underflow is flagged only when the result is both tiny
and inexact (the default non-trapping semantics).
"""

from __future__ import annotations

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.formats import FloatFormat

__all__ = ["round_and_pack", "split_mantissa", "overflow_result_bits"]

#: The flag sets :func:`round_and_pack` raises, built once: the enum
#: ``|`` is a Python-level call, and this runs once per rounded result.
_TINY_INEXACT = FPFlag.UNDERFLOW | FPFlag.INEXACT
_OVERFLOW = FPFlag.OVERFLOW | FPFlag.INEXACT
_DENORMAL_INEXACT = FPFlag.DENORMAL_RESULT | _TINY_INEXACT


def split_mantissa(mant: int, shift: int, sticky: int) -> tuple[int, int, int]:
    """Split ``mant`` into (kept, round_bit, sticky') after shifting right
    by ``shift`` bits.  Negative shifts shift left (exact).

    ``sticky`` is an incoming sticky marker for value already discarded
    below ``mant``'s least significant bit.
    """
    if shift <= 0:
        return mant << (-shift), 0, 1 if sticky else 0
    round_bit = (mant >> (shift - 1)) & 1
    low_mask = (1 << (shift - 1)) - 1
    stk = 1 if (sticky or (mant & low_mask)) else 0
    return mant >> shift, round_bit, stk


def overflow_result_bits(fmt: FloatFormat, mode: RoundingMode, sign: int) -> int:
    """Encoding delivered on overflow under the given rounding direction.

    Round-to-nearest saturates to infinity; directed modes deliver the
    largest finite value when the infinity lies on the far side.
    """
    if mode.is_nearest:
        return fmt.inf_bits(sign)
    if mode is RoundingMode.TOWARD_ZERO:
        return fmt.max_finite_bits(sign)
    if mode is RoundingMode.TOWARD_POSITIVE:
        return fmt.inf_bits(0) if sign == 0 else fmt.max_finite_bits(1)
    if mode is RoundingMode.TOWARD_NEGATIVE:
        return fmt.inf_bits(1) if sign == 1 else fmt.max_finite_bits(0)
    raise AssertionError(f"unhandled rounding mode {mode!r}")


def round_and_pack(
    fmt: FloatFormat,
    env: FPEnv,
    sign: int,
    mant: int,
    exp2: int,
    sticky: int = 0,
    operation: str = "<op>",
) -> int:
    """Round the exact value ``(-1)**sign * (mant * 2**exp2 + tiny)`` to
    ``fmt`` and return its encoding, raising flags on ``env``.

    ``mant`` must be positive (callers special-case exact zeros, whose
    sign rules depend on the operation).  ``sticky`` nonzero marks an
    additional discarded amount in ``(0, 2**exp2)``.
    """
    if mant <= 0:
        raise AssertionError("round_and_pack requires a positive mantissa")

    precision = fmt.precision
    mode = env.rounding
    msb_exp = exp2 + mant.bit_length() - 1  # unbiased exponent of the MSB

    # Tininess before rounding: the exact value lies below the smallest
    # normal magnitude.  (Exactly the smallest normal is not tiny.)
    tiny = msb_exp < fmt.emin

    # Granularity of the destination's least significant kept bit.
    if tiny:
        lsb_exp = fmt.emin - (precision - 1)
    else:
        lsb_exp = msb_exp - (precision - 1)

    kept, round_bit, stk = split_mantissa(mant, lsb_exp - exp2, sticky)
    inexact = round_bit or stk

    if mode.rounds_away(sign, kept & 1, round_bit, stk):
        kept += 1
        if kept.bit_length() > precision:
            # Carry out of the significand: 0b111..1 + 1 -> 0b1000..0.
            kept >>= 1
            lsb_exp += 1

    if not inexact:
        flags = FPFlag.NONE
    elif tiny:
        flags = _TINY_INEXACT
    else:
        flags = FPFlag.INEXACT

    if kept == 0:
        # The tiny value rounded down to zero.
        env.raise_flags(flags, operation)
        return fmt.zero_bits(sign)

    rounded_msb_exp = lsb_exp + kept.bit_length() - 1
    if rounded_msb_exp > fmt.emax:
        # A tiny value rounds to at most 2**emin, so it never gets here:
        # the flags are exactly overflow and inexact.
        env.raise_flags(_OVERFLOW, operation)
        return overflow_result_bits(fmt, mode, sign)

    if kept.bit_length() == precision:
        # Normal result.
        biased = rounded_msb_exp + fmt.bias
        frac = kept & fmt.sig_mask
        env.raise_flags(flags, operation)
        return fmt.pack(sign, biased, frac)

    # Subnormal result (fewer than `precision` significant bits).
    if lsb_exp != fmt.emin - (precision - 1):  # pragma: no cover - invariant
        raise AssertionError("subnormal result at the wrong granularity")
    if env.ftz:
        env.raise_flags(_TINY_INEXACT, operation)
        return fmt.zero_bits(sign)
    # Only a tiny value lands here, so ``flags`` is none or tiny-inexact.
    env.raise_flags(_DENORMAL_INEXACT if inexact else FPFlag.DENORMAL_RESULT,
                    operation)
    return fmt.pack(sign, 0, kept)
