"""Numpy batch backend: vectorized integer bit-twiddling over uint64 lanes.

This backend re-implements the scalar round-and-pack pipeline
(:mod:`repro.softfloat._round`) with numpy array operations so that
thousands of packed encodings are evaluated per Python bytecode
dispatch.  It is **bit-identical** to the scalar ops — same packed
results, same per-lane sticky flags — for every combination it claims
via :meth:`BatchBackend.supports`; the differential suite in
``tests/softfloat/test_backends.py`` pins this against the exact
oracle.

Width bounds (why ``supports`` stops at ``precision <= 53``)
-----------------------------------------------------------
Lane arithmetic runs in ``uint64``/``int64``; a value wider than one
lane travels as two limbs, ``hi * 2**64 + lo``.  Every kernel forms its
exact result (or that result truncated, plus a sticky bit) and narrows
it with :func:`_narrow` to a significand of at most 60 bits, folding
the dropped bits into sticky, before the one rounding path,
:func:`_round_pack`.  Narrowing is sound because a ``p <= 53`` result
needs only its top ``p + 1`` bits plus sticky.

- *mul*: the product of two ``p``-bit significands is formed exactly
  in two limbs from 32-bit halves (:func:`_mul_wide`, at most 106 bits).
- *div*: both significands are normalized to ``p`` bits, then a
  lane-parallel long division yields ``floor(m1 * 2**(p+3) / m2)``
  (``p + 3`` or ``p + 4`` bits) with the remainder's nonzero-ness as
  sticky.  Each ``uint64 //`` step brings down ``64 - p`` quotient bits,
  so the shifted remainder (below the ``p``-bit divisor) fits a lane.
- *sqrt*: the significand is normalized to ``p`` bits and scaled by
  ``2**(p+4)`` or ``2**(p+5)``, whichever leaves an even exponent: a
  radicand ``N`` of ``2p + 4`` or ``2p + 5`` bits.  ``np.sqrt`` of ``N``
  (exactly representable: a ``p``-bit integer times a power of two)
  only *proposes* a root ``r`` within 9 of ``sqrt(N)`` under any host
  rounding mode.  Integers decide: ``N - r*r`` is then below ``2**62``
  in magnitude, so its wrapped ``uint64`` difference read as ``int64``
  is exact even though ``N`` spans two limbs.  One integer Newton step
  ``r + (N - r*r) // (2r)`` lands on ``floor(sqrt(N))`` or one above it
  (Newton never undershoots, and overshoots by ``(r - sqrt N)**2 / 2r <
  1``), and the sign of the new remainder picks which.
- *add/sub/fma*: :func:`_signed_sum` adds a two-limb operand (the
  product for fma, a significand for add/sub) and a one-limb
  significand.  Both are aligned into a shared granularity window
  ``g = max(min(e1, e2), M - 116)``, where ``M`` is the larger
  operand's MSB exponent, so each aligned magnitude lies below
  ``2**117`` and the sum below ``2**118``.  Discarding below the window
  is sound.  The dominant operand spans at most 106 bits, so its floor
  is above ``M - 116`` and it keeps every bit.  The other operand loses
  bits only when its floor is below ``M - 116``; spanning at most 106
  bits, it then lies below ``2**(M-11)``.  The sum keeps its MSB within
  one of ``M``, so the result's round bit sits far above the window
  floor and the discarded amount is pure sticky.  A lost amount on the
  side opposite the result's sign (the dominant operand's) is a borrow:
  ``|L*2^g - (S*2^g + d)| = (L-S-1)*2^g + (2^g - d)``, so the magnitude
  drops by one and sticky is set.  An fma whose addend lies far below
  the product thus rounds as the product plus sticky, and an fma with
  ``c = -a*b`` cancels exactly to zero (nothing is lost).

The vectorized :func:`_round_pack` mirrors ``round_and_pack`` branch for
branch (tininess before rounding, underflow only when tiny *and*
inexact, FTZ flushing, per-mode overflow saturation), with dead lanes
masked via safe substitute values.

The environment reaches four helpers and no other code:
:func:`_rounds_away`, :func:`_round_pack` (overflow saturation and the
FTZ branch), :func:`_daz` and :func:`_exact_zero_bits`.  Each takes the
mode and flush bits either as one value or as lane arrays (see
:mod:`repro.softfloat.backend`); the one-value form keeps its scalar
branches, so a uniform call costs what it did before lanes existed.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.backend import (
    MODE_CODES,
    ORD_EQUAL,
    ORD_GREATER,
    ORD_LESS,
    ORD_UNORDERED,
    BatchResult,
    SoftFloatBackend,
    lane_env,
)
from repro.softfloat.formats import FloatFormat

__all__ = ["BatchBackend"]

U64 = np.uint64
I64 = np.int64

F_INVALID = np.uint8(FPFlag.INVALID.value)
F_DIVZERO = np.uint8(FPFlag.DIV_BY_ZERO.value)
F_OVERFLOW = np.uint8(FPFlag.OVERFLOW.value)
F_UNDERFLOW = np.uint8(FPFlag.UNDERFLOW.value)
F_INEXACT = np.uint8(FPFlag.INEXACT.value)
F_DENORMAL = np.uint8(FPFlag.DENORMAL_RESULT.value)

_LO32 = U64(0xFFFFFFFF)

#: Alignment window of :func:`_signed_sum` (see the module docstring).
_WINDOW = 116

_RNE = MODE_CODES[RoundingMode.NEAREST_EVEN]
_RNA = MODE_CODES[RoundingMode.NEAREST_AWAY]
_RTZ = MODE_CODES[RoundingMode.TOWARD_ZERO]
_RTP = MODE_CODES[RoundingMode.TOWARD_POSITIVE]
_RTN = MODE_CODES[RoundingMode.TOWARD_NEGATIVE]


# ----------------------------------------------------------------------
# Integer lane primitives
# ----------------------------------------------------------------------
def _bit_length(x: np.ndarray) -> np.ndarray:
    """Per-lane ``int.bit_length`` of uint64 lanes.

    Exact by construction: each 32-bit half converts to float64 without
    rounding, and ``frexp``'s exponent *is* the bit length.
    """
    hi = (x >> 32).astype(np.float64)
    lo = (x & _LO32).astype(np.float64)
    _, ehi = np.frexp(hi)
    _, elo = np.frexp(lo)
    return np.where(hi > 0, ehi.astype(I64) + 32, elo.astype(I64))


def _shl(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``x << k`` with ``k`` clamped into [0, 63] (callers bound live
    lanes; dead lanes may wrap harmlessly)."""
    return x << np.minimum(np.maximum(k, 0), 63).astype(U64)


def _mul_wide(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact two-limb product ``(hi, lo)`` of uint64 lanes below ``2**63``.

    Built from 32-bit halves: every partial product fits a lane, and the
    middle column sums below ``3 * 2**32``.
    """
    xh, xl = x >> U64(32), x & _LO32
    yh, yl = y >> U64(32), y & _LO32
    low = xl * yl
    cross1 = xh * yl
    cross2 = xl * yh
    mid = (low >> U64(32)) + (cross1 & _LO32) + (cross2 & _LO32)
    lo = (mid << U64(32)) | (low & _LO32)
    hi = xh * yh + (cross1 >> U64(32)) + (cross2 >> U64(32)) + (mid >> U64(32))
    return hi, lo


def _width2(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Per-lane bit length of a two-limb value."""
    top = hi > 0
    return _bit_length(np.where(top, hi, lo)) + (top.astype(I64) << 6)


def _shl2(
    hi: np.ndarray, lo: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-limb ``(hi, lo) << k`` for ``k`` in [0, 127] (callers keep
    live results below ``2**128``)."""
    k = np.minimum(k, 127).astype(U64)
    ks = k & U64(63)
    up_hi = (hi << ks) | ((lo >> U64(1)) >> (U64(63) - ks))
    up_lo = lo << ks
    wide = k >= U64(64)
    return np.where(wide, up_lo, up_hi), np.where(wide, U64(0), up_lo)


def _shr2_sticky(
    hi: np.ndarray, lo: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-limb ``((hi, lo) >> k, any bits lost)`` for ``k >= 0``; a
    shift of 128 or more keeps nothing."""
    k = np.minimum(k, 128).astype(U64)
    ks = k & U64(63)
    below = (U64(1) << ks) - U64(1)
    dn_hi = hi >> ks
    dn_lo = (lo >> ks) | ((hi << U64(1)) << (U64(63) - ks))
    wide = k >= U64(64)
    gone = k >= U64(128)
    lost = np.where(
        wide, (lo != 0) | ((hi & below) != 0), (lo & below) != 0
    )
    lost = np.where(gone, (hi | lo) != 0, lost)
    new_hi = np.where(wide, U64(0), dn_hi)
    new_lo = np.where(gone, U64(0), np.where(wide, dn_hi, dn_lo))
    return new_hi, new_lo, lost


def _narrow(
    hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Narrow a two-limb magnitude below ``2**123`` to ``(mant, shift,
    sticky)``: ``mant = x >> shift`` has at most 60 bits and ``sticky``
    says whether the shift dropped anything."""
    shift = np.maximum(_width2(hi, lo) - 60, 0)
    k = shift.astype(U64)  # at most 63
    mant = (lo >> k) | ((hi << U64(1)) << (U64(63) - k))
    sticky = (lo & ((U64(1) << k) - U64(1))) != 0
    return mant, shift, sticky


def _normalize(
    fmt: FloatFormat, mant: np.ndarray, exp2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shift nonzero significands so their MSB sits at bit ``p - 1``."""
    up = fmt.precision - _bit_length(mant)
    return _shl(mant, up), exp2 - up


def _rounds_away(
    mode: RoundingMode | np.ndarray,
    sign: np.ndarray,
    lsb: np.ndarray,
    round_bit: np.ndarray,
    sticky: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`RoundingMode.rounds_away` (sign/lsb/round_bit
    are uint64 0-or-more lanes, sticky is boolean; ``mode`` is one mode
    or a lane array of mode codes)."""
    rb = round_bit != 0
    inexact = rb | sticky
    if isinstance(mode, np.ndarray):
        return _select(
            [mode == _RNE, mode == _RNA, mode == _RTP, mode == _RTN],
            [rb & (sticky | (lsb != 0)), rb, inexact & (sign == 0),
             inexact & (sign == 1)],
            default=np.zeros_like(rb),
        )
    if mode is RoundingMode.NEAREST_EVEN:
        return rb & (sticky | (lsb != 0))
    if mode is RoundingMode.NEAREST_AWAY:
        return rb
    if mode is RoundingMode.TOWARD_ZERO:
        return np.zeros_like(rb)
    if mode is RoundingMode.TOWARD_POSITIVE:
        return inexact & (sign == 0)
    if mode is RoundingMode.TOWARD_NEGATIVE:
        return inexact & (sign == 1)
    raise AssertionError(f"unhandled rounding mode {mode!r}")


def _overflow_bits(
    fmt: FloatFormat, mode: RoundingMode | np.ndarray, sign: np.ndarray,
    signbit: np.ndarray,
) -> np.ndarray:
    """Per-mode overflow saturation: infinity, or the largest finite
    value of the result's sign where the mode rounds that sign toward
    zero."""
    if isinstance(mode, np.ndarray):
        to_inf = _select(
            [mode == _RTZ, mode == _RTP, mode == _RTN],
            [False, sign == 0, sign == 1],
            default=np.ones(sign.shape, dtype=bool),
        )
        return signbit | np.where(
            to_inf, U64(fmt.inf_bits(0)), U64(fmt.max_finite_bits(0)))
    if mode.is_nearest:
        return signbit | U64(fmt.inf_bits(0))
    if mode is RoundingMode.TOWARD_ZERO:
        return signbit | U64(fmt.max_finite_bits(0))
    if mode is RoundingMode.TOWARD_POSITIVE:
        return np.where(
            sign == 0, U64(fmt.inf_bits(0)), U64(fmt.max_finite_bits(1)))
    return np.where(sign == 1, U64(fmt.inf_bits(1)), U64(fmt.max_finite_bits(0)))


def _round_pack(
    fmt: FloatFormat,
    mode: RoundingMode | np.ndarray,
    ftz: bool | np.ndarray,
    sign: np.ndarray,
    mant: np.ndarray,
    exp2: np.ndarray,
    sticky_in: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``round_and_pack``: round ``(-1)**sign * mant * 2**exp2
    (+ sticky)`` into ``fmt``, delivering (bits, flag bytes).

    ``mant`` must be positive and below ``2**61`` on live lanes; dead
    lanes produce zeros in both outputs.  ``mode`` and ``ftz`` are one
    value or lane arrays.
    """
    n = mant.shape[0]
    p = fmt.precision
    mant = np.where(live & (mant > 0), mant, U64(1))
    sticky_in = sticky_in & live

    bl = _bit_length(mant)
    msb_exp = exp2 + bl - 1
    tiny = msb_exp < fmt.emin
    lsb_exp = np.where(tiny, I64(fmt.emin - (p - 1)), msb_exp - (p - 1))

    shift = lsb_exp - exp2
    left = shift <= 0
    kept_l = _shl(mant, -shift)
    kept_r, rb_r, stk_r = (
        mant >> np.clip(shift, 1, 62).astype(U64),
        (mant >> np.clip(shift - 1, 0, 61).astype(U64)) & U64(1),
        sticky_in
        | ((mant & ((U64(1) << np.clip(shift - 1, 0, 61).astype(U64)) - U64(1))) != 0),
    )
    kept = np.where(left, kept_l, kept_r)
    round_bit = np.where(left, U64(0), rb_r)
    stk = np.where(left, sticky_in, stk_r)
    inexact = (round_bit != 0) | stk

    away = _rounds_away(mode, sign, kept & U64(1), round_bit, stk)
    kept = kept + away.astype(U64)
    kbl = _bit_length(kept)
    carry = kbl > p
    kept = np.where(carry, kept >> U64(1), kept)
    lsb_exp = lsb_exp + carry.astype(I64)
    kbl = kbl - carry.astype(I64)

    flags = np.zeros(n, dtype=np.uint8)
    flags[inexact] |= F_INEXACT
    flags[inexact & tiny] |= F_UNDERFLOW

    is_zero = kept == 0
    rounded_msb = lsb_exp + kbl - 1
    overflow = (~is_zero) & (rounded_msb > fmt.emax)
    normal = (~is_zero) & (~overflow) & (kbl == p)
    subnormal = (~is_zero) & (~overflow) & (kbl < p)

    signbit = sign << U64(fmt.width - 1)
    ovf_bits = _overflow_bits(fmt, mode, sign, signbit)
    flags[overflow & live] |= F_OVERFLOW | F_INEXACT

    biased = np.clip(rounded_msb + fmt.bias, 0, fmt.max_biased_exp).astype(U64)
    normal_bits = signbit | (biased << U64(fmt.frac_bits)) | (kept & U64(fmt.sig_mask))

    if isinstance(ftz, np.ndarray):
        flags[subnormal & live & ftz] |= F_UNDERFLOW | F_INEXACT
        flags[subnormal & live & ~ftz] |= F_DENORMAL
        sub_bits = np.where(ftz, signbit, signbit | kept)
    elif ftz:
        flags[subnormal & live] |= F_UNDERFLOW | F_INEXACT
        sub_bits = signbit
    else:
        flags[subnormal & live] |= F_DENORMAL
        sub_bits = signbit | kept

    bits = np.where(
        is_zero,
        signbit,
        np.where(overflow, ovf_bits, np.where(normal, normal_bits, sub_bits)),
    )
    bits = np.where(live, bits, U64(0))
    flags = np.where(live, flags, np.uint8(0))
    return bits, flags


def _select(
    condlist: Sequence[np.ndarray], choicelist: Sequence, default: np.ndarray
) -> np.ndarray:
    """``np.select`` as a chain of ``np.where`` (the first true condition
    wins) without ``np.select``'s fixed per-call cost."""
    out = default
    for cond, choice in zip(reversed(condlist), reversed(choicelist)):
        out = np.where(cond, choice, out)
    return out


# ----------------------------------------------------------------------
# Operand decomposition
# ----------------------------------------------------------------------
class _Lanes:
    """Unpacked fields and class masks of one packed-operand array."""

    __slots__ = ("bits", "sign", "bexp", "frac", "nan", "snan", "inf", "zero", "sub")

    def __init__(self, fmt: FloatFormat, bits: np.ndarray) -> None:
        self.bits = bits
        self.sign = (bits >> U64(fmt.width - 1)) & U64(1)
        self.bexp = (bits >> U64(fmt.frac_bits)) & U64(fmt.max_biased_exp)
        self.frac = bits & U64(fmt.sig_mask)
        max_be = self.bexp == fmt.max_biased_exp
        self.nan = max_be & (self.frac != 0)
        self.snan = self.nan & ((self.frac & U64(fmt.quiet_bit)) == 0)
        self.inf = max_be & (self.frac == 0)
        self.zero = (self.bexp == 0) & (self.frac == 0)
        self.sub = (self.bexp == 0) & (self.frac != 0)


def _daz(fmt: FloatFormat, lanes: _Lanes, daz: bool | np.ndarray) -> _Lanes:
    """Denormals-are-zero: flush subnormal lanes to signed zero where
    ``daz`` (one value or a lane array) is set."""
    if isinstance(daz, np.ndarray):
        flush = lanes.sub & daz
    elif daz:
        flush = lanes.sub
    else:
        return lanes
    flushed = copy.copy(lanes)
    flushed.bits = np.where(flush, lanes.sign << U64(fmt.width - 1), lanes.bits)
    flushed.frac = np.where(flush, U64(0), lanes.frac)
    flushed.zero = lanes.zero | flush
    flushed.sub = lanes.sub ^ flush  # flush only ever covers subnormals
    return flushed


def _exact_zero_bits(fmt: FloatFormat, mode: RoundingMode | np.ndarray):
    """The zero an exact cancellation delivers: -0 under roundTowardNegative,
    +0 otherwise (one encoding, or lanes for a lane-array ``mode``)."""
    if isinstance(mode, np.ndarray):
        return (mode == _RTN).astype(U64) << U64(fmt.width - 1)
    return U64(fmt.zero_bits(1 if mode is RoundingMode.TOWARD_NEGATIVE else 0))


def _sig_value(fmt: FloatFormat, lanes: _Lanes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``SoftFloat.significand_value``: (mant, exp2) lanes."""
    is_normal = lanes.bexp > 0
    mant = np.where(is_normal, lanes.frac | U64(fmt.hidden_bit), lanes.frac)
    exp2 = np.where(
        is_normal,
        lanes.bexp.astype(I64) - (fmt.bias + fmt.frac_bits),
        I64(fmt.emin - fmt.frac_bits),
    )
    return mant, exp2


def _nan_propagation(
    fmt: FloatFormat, operands: Sequence[_Lanes]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IEEE NaN propagation lanes: (any-NaN mask, first NaN quieted,
    invalid mask for signaling NaNs)."""
    any_nan = operands[0].nan.copy()
    any_snan = operands[0].snan.copy()
    for ln in operands[1:]:
        any_nan |= ln.nan
        any_snan |= ln.snan
    quiet = U64(fmt.quiet_bit)
    result = np.zeros_like(operands[0].bits)
    remaining = any_nan.copy()
    for ln in operands:
        take = remaining & ln.nan
        result = np.where(take, ln.bits | quiet, result)
        remaining &= ~ln.nan
    return any_nan, result, any_snan


def _signed_sum(
    h1: np.ndarray,
    l1: np.ndarray,
    e1: np.ndarray,
    s1: np.ndarray,
    m2: np.ndarray,
    e2: np.ndarray,
    s2: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Windowed exact signed sum of a two-limb ``(h1, l1) * 2**e1`` and a
    one-limb ``m2 * 2**e2``, each with its sign lane.

    Returns ``(is_zero, sign, mant, exp, sticky)`` with ``mant`` narrowed
    to at most 60 bits.  Operand 1 must be nonzero on live lanes;
    ``m2`` may be zero (the lane then reduces to operand 1).  See the
    module docstring for the window bound.
    """
    h1 = np.where(live, h1, U64(0))
    l1 = np.where(live, l1, U64(1))
    has2 = live & (m2 > 0)
    m2 = np.where(has2, m2, U64(0))
    msb1 = e1 + _width2(h1, l1) - 1
    msb2 = np.where(has2, e2 + _bit_length(m2) - 1, I64(-(1 << 40)))
    e2 = np.where(has2, e2, e1)
    floor_lo = np.minimum(e1, e2)
    g = np.maximum(floor_lo, np.maximum(msb1, msb2) - _WINDOW)

    # The operand with the lower floor shifts right by `g - floor` and
    # may lose bits; the other shifts left by `floor - g`, which is in
    # [0, _WINDOW] because the dominant operand spans at most 106 bits.
    first_lo = e1 <= e2
    zero = np.zeros_like(m2)
    ch, cl, lost = _shr2_sticky(
        np.where(first_lo, h1, zero), np.where(first_lo, l1, m2), g - floor_lo
    )
    uh, ul = _shl2(
        np.where(first_lo, zero, h1),
        np.where(first_lo, m2, l1),
        np.maximum(e1, e2) - g,
    )
    s_cut = np.where(first_lo, s1, s2)
    s_up = np.where(first_lo, s2, s1)

    same = s_cut == s_up
    up_ge = (uh > ch) | ((uh == ch) & (ul >= cl))
    sum_lo = ul + cl
    sum_hi = uh + ch + (sum_lo < ul)
    big_h = np.where(up_ge, uh, ch)
    big_l = np.where(up_ge, ul, cl)
    small_h = np.where(up_ge, ch, uh)
    small_l = np.where(up_ge, cl, ul)
    # Only the shifted-right operand loses bits, and then it is the
    # smaller one; under subtraction its lost fraction is a borrow:
    # |L*2^g - (S*2^g + d)| = (L-S-1)*2^g + (2^g - d), both parts sticky.
    borrow = (~same & lost).astype(U64)
    part = big_l - small_l
    diff_lo = part - borrow
    diff_hi = (
        big_h - small_h - (big_l < small_l).astype(U64)
        - (part < borrow).astype(U64)
    )

    hi = np.where(same, sum_hi, diff_hi)
    lo = np.where(same, sum_lo, diff_lo)
    sign = np.where(same | up_ge, s_up, s_cut)
    is_zero = live & (hi == 0) & (lo == 0)  # only when nothing was lost
    mant, shift, sticky = _narrow(hi, lo)
    return is_zero, sign, mant, g + shift, lost | sticky


# ----------------------------------------------------------------------
# Batched operations
# ----------------------------------------------------------------------
def _batch_addsub(fmt, a, b, mode, ftz, daz, negate_b):
    n = a.shape[0]
    lanes_a = _Lanes(fmt, a)
    lanes_b = _Lanes(fmt, b)
    # NaN propagation sees the *original* operands (fp_sub semantics).
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [lanes_a, lanes_b])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    if negate_b:
        lanes_b = _Lanes(fmt, b ^ (U64(1) << U64(fmt.width - 1)))
    A, B = _daz(fmt, lanes_a, daz), _daz(fmt, lanes_b, daz)
    ezs_bits = _exact_zero_bits(fmt, mode)
    default_nan = U64(fmt.quiet_nan_bits())

    inf_any = A.inf | B.inf
    inf_invalid = A.inf & B.inf & (A.sign != B.sign)
    flags[inf_invalid] |= F_INVALID
    inf_bits = np.where(A.inf, A.bits, B.bits)

    both_zero = A.zero & B.zero
    both_zero_bits = np.where(A.sign == B.sign, A.bits, ezs_bits)
    a_zero_only = A.zero & ~B.zero
    b_zero_only = B.zero & ~A.zero

    generic = ~nan_mask & ~inf_any & ~A.zero & ~B.zero
    m1, e1 = _sig_value(fmt, A)
    m2, e2 = _sig_value(fmt, B)
    is_zero, sign, mant, exp, stk = _signed_sum(
        np.zeros_like(m1), m1, e1, A.sign, m2, e2, B.sign, generic
    )
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, mant, exp, stk, generic & ~is_zero
    )
    flags |= rflags

    bits = _select(
        [nan_mask, inf_invalid, inf_any, both_zero, a_zero_only, b_zero_only, is_zero],
        [nan_bits, default_nan, inf_bits, both_zero_bits, B.bits, A.bits, ezs_bits],
        default=rbits,
    )
    return bits, flags


def _batch_mul(fmt, a, b, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A, B])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    A, B = _daz(fmt, A, daz), _daz(fmt, B, daz)
    sign = A.sign ^ B.sign
    signbit = sign << U64(fmt.width - 1)
    default_nan = U64(fmt.quiet_nan_bits())

    inf_any = A.inf | B.inf
    mul_invalid = inf_any & (A.zero | B.zero)  # 0 * inf
    flags[mul_invalid & ~nan_mask] |= F_INVALID
    zero_res = (A.zero | B.zero) & ~inf_any

    generic = ~nan_mask & ~inf_any & ~A.zero & ~B.zero
    m1, e1 = _sig_value(fmt, A)
    m2, e2 = _sig_value(fmt, B)
    mant, shift, sticky = _narrow(*_mul_wide(m1, m2))
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, mant, e1 + e2 + shift, sticky, generic
    )
    flags |= rflags

    bits = _select(
        [nan_mask, mul_invalid, inf_any, zero_res],
        [nan_bits, default_nan, signbit | U64(fmt.inf_bits(0)), signbit],
        default=rbits,
    )
    return bits, flags


def _batch_div(fmt, a, b, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A, B])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    A, B = _daz(fmt, A, daz), _daz(fmt, B, daz)
    sign = A.sign ^ B.sign
    signbit = sign << U64(fmt.width - 1)
    default_nan = U64(fmt.quiet_nan_bits())

    div_invalid = (A.inf & B.inf) | (A.zero & B.zero)
    div_by_zero = B.zero & ~A.zero & ~A.inf  # finite nonzero / 0
    flags[div_invalid & ~nan_mask] |= F_INVALID
    flags[div_by_zero & ~nan_mask] |= F_DIVZERO
    inf_res = (A.inf & ~B.inf) | div_by_zero
    zero_res = (B.inf & ~A.inf) | (A.zero & ~B.zero & ~B.inf)

    generic = ~nan_mask & ~A.inf & ~B.inf & ~A.zero & ~B.zero
    m1, e1 = _sig_value(fmt, A)
    m2, e2 = _sig_value(fmt, B)
    p = fmt.precision
    n1, x1 = _normalize(fmt, np.where(generic, m1, U64(1)), e1)
    n2, x2 = _normalize(fmt, np.where(generic, m2, U64(1)), e2)
    # Long division to floor(n1 * 2**(p+3) / n2), `64 - p` quotient bits
    # per step: the shifted remainder stays below 2**64.
    quotient, rem = np.divmod(n1, n2)
    todo = p + 3
    while todo:
        step = min(64 - p, todo)
        digit, rem = np.divmod(rem << U64(step), n2)
        quotient = (quotient << U64(step)) | digit
        todo -= step
    sticky = rem != 0
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, quotient, x1 - x2 - (p + 3), sticky, generic
    )
    flags |= rflags

    bits = _select(
        [nan_mask, div_invalid, inf_res, zero_res],
        [nan_bits, default_nan, signbit | U64(fmt.inf_bits(0)), signbit],
        default=rbits,
    )
    return bits, flags


def _batch_fma(fmt, a, b, c, mode, ftz, daz):
    n = a.shape[0]
    A0 = _Lanes(fmt, a)
    B0 = _Lanes(fmt, b)
    C0 = _Lanes(fmt, c)
    flags = np.zeros(n, dtype=np.uint8)
    default_nan = U64(fmt.quiet_nan_bits())

    # x86 FMA3 ordering: a signaling NaN anywhere wins; otherwise an
    # invalid 0*inf product beats even a quiet NaN in c.
    snan_any = A0.snan | B0.snan | C0.snan
    product_invalid = (A0.inf & B0.zero) | (A0.zero & B0.inf)
    nan_any = A0.nan | B0.nan | C0.nan
    _, nan_bits, _ = _nan_propagation(fmt, [A0, B0, C0])
    pinv_path = product_invalid & ~snan_any
    qnan_path = nan_any & ~snan_any & ~pinv_path
    nan_like = snan_any | pinv_path | qnan_path
    flags[snan_any] |= F_INVALID
    flags[pinv_path] |= F_INVALID

    A, B, C = _daz(fmt, A0, daz), _daz(fmt, B0, daz), _daz(fmt, C0, daz)
    psign = A.sign ^ B.sign
    psignbit = psign << U64(fmt.width - 1)
    ezs_bits = _exact_zero_bits(fmt, mode)

    ab_inf = (A.inf | B.inf) & ~nan_like
    inf_c_invalid = ab_inf & C.inf & (C.sign != psign)
    flags[inf_c_invalid] |= F_INVALID
    c_inf = C.inf & ~ab_inf & ~nan_like

    prod_zero = (A.zero | B.zero) & ~ab_inf & ~nan_like
    pz_c_zero = prod_zero & C.zero
    pz_c_zero_bits = np.where(psign == C.sign, psignbit, ezs_bits)
    pz_c = prod_zero & ~C.zero

    generic = ~nan_like & ~ab_inf & ~C.inf & ~prod_zero
    m1, e1 = _sig_value(fmt, A)
    m2, e2 = _sig_value(fmt, B)
    m3, e3 = _sig_value(fmt, C)
    ph, pl = _mul_wide(m1, m2)
    is_zero, sign, mant, exp, stk = _signed_sum(
        ph, pl, e1 + e2, psign, m3, e3, C.sign, generic
    )
    rbits, rflags = _round_pack(
        fmt, mode, ftz, sign, mant, exp, stk, generic & ~is_zero
    )
    flags |= rflags

    bits = _select(
        [
            snan_any,
            pinv_path,
            qnan_path,
            inf_c_invalid,
            ab_inf,
            c_inf,
            pz_c_zero,
            pz_c,
            is_zero,
        ],
        [
            nan_bits,
            default_nan,
            nan_bits,
            default_nan,
            psignbit | U64(fmt.inf_bits(0)),
            C.bits,
            pz_c_zero_bits,
            C.bits,
            ezs_bits,
        ],
        default=rbits,
    )
    return bits, flags


def _batch_sqrt(fmt, a, mode, ftz, daz):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    nan_mask, nan_bits, any_snan = _nan_propagation(fmt, [A])
    flags = np.zeros(n, dtype=np.uint8)
    flags[any_snan] |= F_INVALID
    A = _daz(fmt, A, daz)
    default_nan = U64(fmt.quiet_nan_bits())

    negative = ~nan_mask & ~A.zero & (A.sign == 1)  # includes -inf
    flags[negative] |= F_INVALID
    pos_inf = A.inf & (A.sign == 0)
    generic = ~nan_mask & ~A.zero & ~negative & ~pos_inf

    p = fmt.precision
    mant, exp2 = _sig_value(fmt, A)
    mant, exp2 = _normalize(fmt, np.where(generic, mant, U64(1)), exp2)
    # Radicand N = mant * 2**shift with an even exponent left over; its
    # low limb `rad` is all the integer arithmetic below needs.
    shift = np.where(((exp2 - p) & 1) != 0, p + 5, p + 4)
    rad = mant << shift.astype(U64)
    scale = np.where(shift == p + 5, 2.0 ** (p + 5), 2.0 ** (p + 4))
    root = np.sqrt(mant.astype(np.float64) * scale).astype(U64)
    # N - r*r is small, so the wrapped uint64 difference is exact as
    # int64.  One Newton step gives floor(sqrt(N)) or one above it.
    rem = (rad - root * root).view(I64)
    root = (root.view(I64) + rem // (root.view(I64) << 1)).view(U64)
    rem = (rad - root * root).view(I64)
    over = rem < 0
    root = root - over.astype(U64)
    rem = np.where(over, rem + (root.view(I64) << 1) + 1, rem)
    sticky = rem != 0
    rbits, rflags = _round_pack(
        fmt, mode, ftz, np.zeros(n, dtype=U64), root, (exp2 - shift) >> 1,
        sticky, generic,
    )
    flags |= rflags

    bits = _select(
        [nan_mask, A.zero, negative, pos_inf],
        [nan_bits, A.bits, default_nan, A.bits],
        default=rbits,
    )
    return bits, flags


def _batch_compare(fmt, a, b, signaling):
    n = a.shape[0]
    A = _Lanes(fmt, a)
    B = _Lanes(fmt, b)
    flags = np.zeros(n, dtype=np.uint8)
    any_nan = A.nan | B.nan
    flags[any_nan if signaling else (A.snan | B.snan)] |= F_INVALID

    mag_mask = U64((1 << (fmt.width - 1)) - 1)
    mag_a = a & mag_mask
    mag_b = b & mag_mask
    eq_mag = mag_a == mag_b
    lt_mag = mag_a < mag_b
    pos = np.where(eq_mag, ORD_EQUAL, np.where(lt_mag, ORD_LESS, ORD_GREATER))
    neg = np.where(eq_mag, ORD_EQUAL, np.where(lt_mag, ORD_GREATER, ORD_LESS))
    same_sign = np.where(A.sign == 1, neg, pos)
    diff_sign = np.where(A.sign == 1, ORD_LESS, ORD_GREATER)
    ordered = np.where(
        A.zero & B.zero,
        ORD_EQUAL,
        np.where(A.sign != B.sign, diff_sign, same_sign),
    )
    code = np.where(any_nan, ORD_UNORDERED, ordered).astype(U64)
    return code, flags


def _batch_convert(src, dst, a, mode, ftz):
    n = a.shape[0]
    A = _Lanes(src, a)
    flags = np.zeros(n, dtype=np.uint8)
    flags[A.snan] |= F_INVALID
    if src == dst:
        bits = np.where(A.snan, a | U64(src.quiet_bit), a)
        return bits, flags

    dst_signbit = A.sign << U64(dst.width - 1)
    # NaN payloads move across, truncating from the low end if needed.
    payload = A.frac & ~U64(src.quiet_bit)
    shift = dst.frac_bits - src.frac_bits
    payload = payload << U64(shift) if shift >= 0 else payload >> U64(-shift)
    payload &= U64(dst.quiet_bit - 1)
    nan_bits = dst_signbit | U64(dst.quiet_nan_bits(0, 0)) | payload

    generic = ~A.nan & ~A.inf & ~A.zero
    mant, exp2 = _sig_value(src, A)
    rbits, rflags = _round_pack(
        dst, mode, ftz, A.sign, mant, exp2, np.zeros(n, dtype=bool), generic
    )
    flags |= rflags

    bits = _select(
        [A.nan, A.inf, A.zero],
        [nan_bits, dst_signbit | U64(dst.inf_bits(0)), dst_signbit],
        default=rbits,
    )
    return bits, flags


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class BatchBackend(SoftFloatBackend):
    """Vectorized integer backend over uint64 lanes (see module docs)."""

    name = "batch"

    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        if fmt.width > 64:
            return False
        if op in ("compare_quiet", "compare_signaling"):
            return True
        if op == "convert":
            return (
                dst_fmt is not None
                and dst_fmt.width <= 64
                and fmt.precision <= 53
                and dst_fmt.precision <= 53
            )
        if op in ("add", "sub", "mul", "div", "fma", "sqrt"):
            return fmt.precision <= 53
        return False

    def run_packed(
        self,
        op: str,
        fmt: FloatFormat,
        operands: Sequence[np.ndarray],
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> BatchResult:
        if not self.supports(op, fmt, mode, ftz, daz, dst_fmt):
            raise ValueError(f"batch backend does not support {op} on {fmt.name}")
        mask = U64((1 << fmt.width) - 1) if fmt.width < 64 else U64(2**64 - 1)
        arrays = [np.asarray(o, dtype=U64) & mask for o in operands]
        mode, ftz, daz = lane_env(arrays[0].shape[0], mode, ftz, daz)
        if op in ("add", "sub"):
            bits, flags = _batch_addsub(
                fmt, arrays[0], arrays[1], mode, ftz, daz, op == "sub"
            )
        elif op == "mul":
            bits, flags = _batch_mul(fmt, arrays[0], arrays[1], mode, ftz, daz)
        elif op == "div":
            bits, flags = _batch_div(fmt, arrays[0], arrays[1], mode, ftz, daz)
        elif op == "fma":
            bits, flags = _batch_fma(
                fmt, arrays[0], arrays[1], arrays[2], mode, ftz, daz
            )
        elif op == "sqrt":
            bits, flags = _batch_sqrt(fmt, arrays[0], mode, ftz, daz)
        elif op in ("compare_quiet", "compare_signaling"):
            bits, flags = _batch_compare(
                fmt, arrays[0], arrays[1], op == "compare_signaling"
            )
        else:  # convert
            assert dst_fmt is not None
            bits, flags = _batch_convert(fmt, dst_fmt, arrays[0], mode, ftz)
        return BatchResult(bits.astype(U64), flags)
