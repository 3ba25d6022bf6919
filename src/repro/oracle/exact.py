"""The exact-rounding reference: IEEE 754 computed over scaled integers.

This module is the *oracle* half of the conformance subsystem.  Every
operand is decoded once, straight from its encoding, into ``(sign,
class, m, e)`` with the finite value ``m * 2**e``.  The exact result of
an operation is then an integer computation:

- add, sub, mul and fma results are dyadic (``m * 2**e``), so they are
  rounded by one shift, with the discarded bits compared against half
  a ULP (``1 << (shift - 1)``);
- a quotient ``num/den * 2**e`` is rounded with one ``divmod``, the
  remainder compared against half the divisor;
- square root takes :func:`math.isqrt` of the scaled radicand and
  decides the rounding by exact square comparisons.

The only thing this module shares with the engine is
:class:`~repro.softfloat.formats.FloatFormat` (field geometry and
landmark encodings).  The engine rounds shifted mantissas with
guard/sticky markers; the oracle compares an exact remainder against
the halfway point — so a bug has to appear *twice, independently* to
escape the differential runner.  :class:`SoftFloat` appears only in the
adapters (``oracle_add`` … ``oracle_fma``) and :meth:`OracleResult.value`.

Each evaluation pays only for its own exact arithmetic.  What is
constant per format or per config is computed once: a format's landmark
encodings are a table indexed by sign, and :class:`OracleConfig`
tabulates its rounding decision (from :func:`_rounds_up`), its tininess
convention, its cancellation zero sign and its overflow choice.

The oracle reproduces the engine's *documented* latitude choices so
that agreement can be demanded bit-for-bit:

- NaN propagation returns the first NaN operand, quieted, raising
  *invalid* iff some operand was signaling;
- ``fma(0, inf, c)`` is invalid with the default NaN even for quiet
  NaN ``c`` (the x86 FMA3 rule), and that check sees the operands
  *before* DAZ, so ``fma(subnormal, inf, c)`` is an infinity under DAZ;
- exact zeros from cancellation are ``+0`` except under
  roundTowardNegative;
- tininess is detected before rounding by default (the x86/SSE choice);
  pass ``tininess="after"`` for the other convention (see
  :class:`OracleConfig`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from numbers import Rational
from typing import NamedTuple

from repro.errors import FormatError
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.formats import FloatFormat
from repro.softfloat.value import SoftFloat

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
]

# How the discarded part of an exact value compares to half a ULP.
_EXACT, _BELOW_HALF, _HALF, _ABOVE_HALF = range(4)

# Operand classes of a decoded encoding; NaN classes sort last.
_ZERO, _FINITE, _INF, _QNAN, _SNAN = range(5)

# Flag sets the oracle delivers, built once (``FPFlag.__or__`` is slow).
_NONE = FPFlag.NONE
_INVALID = FPFlag.INVALID
_DIV_BY_ZERO = FPFlag.DIV_BY_ZERO
_INEXACT = FPFlag.INEXACT
_DENORMAL = FPFlag.DENORMAL_RESULT
_TINY_INEXACT = FPFlag.INEXACT | FPFlag.UNDERFLOW
_TINY_INEXACT_DENORMAL = _TINY_INEXACT | FPFlag.DENORMAL_RESULT
_OVERFLOW_INEXACT = FPFlag.OVERFLOW | FPFlag.INEXACT

_RNE = RoundingMode.NEAREST_EVEN
_RNA = RoundingMode.NEAREST_AWAY
_RTZ = RoundingMode.TOWARD_ZERO
_RTP = RoundingMode.TOWARD_POSITIVE
_RTN = RoundingMode.TOWARD_NEGATIVE


def _rounds_up(mode: RoundingMode, sign: int, odd: int, state: int) -> bool:
    """Independent reimplementation of the five rounding decisions."""
    if state == _EXACT:
        return False
    if mode is _RNE:
        return state == _ABOVE_HALF or (state == _HALF and odd)
    if mode is _RNA:
        return state != _BELOW_HALF
    if mode is _RTZ:
        return False
    if mode is _RTP:
        return sign == 0
    if mode is _RTN:
        return sign == 1
    raise AssertionError(f"unhandled rounding mode {mode!r}")


#: Per rounding mode, :func:`_rounds_up` tabulated once: the decision
#: for every ``sign << 3 | odd << 2 | state``, and per result sign
#: whether an overflow delivers infinity (else the largest finite
#: value) -- it does iff the direction carries a magnitude above the
#: largest finite value away from zero.
_MODE_TABLES = {
    mode: (
        tuple(_rounds_up(mode, sign, odd, state)
              for sign in (0, 1) for odd in (0, 1) for state in range(4)),
        tuple(_rounds_up(mode, sign, 0, _ABOVE_HALF) for sign in (0, 1)),
    )
    for mode in RoundingMode
}


def _derived():
    return dataclasses.field(init=False, repr=False, compare=False)


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """Environment parameters the oracle evaluates under.

    ``tininess`` selects the underflow-detection convention: ``"before"``
    (tiny iff the exact value is below the smallest normal; x86/SSE) or
    ``"after"`` (tiny iff, in addition, the delivered result is still
    subnormal: a tiny value that rounds up to the smallest normal is
    not tiny).

    Every decision that depends only on the config is made once, here,
    into private fields the per-value code reads.  They are excluded
    from init, repr, equality and hash, so a config is still identified
    by its four parameters and :func:`dataclasses.replace` rebuilds them.
    """

    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    ftz: bool = False
    daz: bool = False
    tininess: str = "before"

    #: Entry ``sign << 3 | odd << 2 | state``: does a truncated
    #: significand round up (see :data:`_MODE_TABLES`)?
    _round_up: tuple[bool, ...] = _derived()
    #: ``tininess == "before"``.
    _tiny_before: bool = _derived()
    #: Sign of an exact zero from cancellation (``-0`` only under
    #: roundTowardNegative).
    _cancel_sign: int = _derived()
    #: Per result sign: does an overflow deliver infinity (else the
    #: largest finite value)?
    _overflow_to_inf: tuple[bool, bool] = _derived()

    def __post_init__(self) -> None:
        if self.tininess not in ("before", "after"):
            raise ValueError(f"tininess must be 'before' or 'after', got"
                             f" {self.tininess!r}")
        try:
            round_up, overflow_to_inf = _MODE_TABLES[self.rounding]
        except (KeyError, TypeError):
            raise ValueError(f"rounding must be a RoundingMode, got"
                             f" {self.rounding!r}") from None
        derived = {
            "_round_up": round_up,
            "_tiny_before": self.tininess == "before",
            "_cancel_sign": 1 if self.rounding is _RTN else 0,
            "_overflow_to_inf": overflow_to_inf,
        }
        for field_name, value in derived.items():
            object.__setattr__(self, field_name, value)


class OracleResult(NamedTuple):
    """What the oracle says an operation must deliver: the exact result
    encoding and the exact sticky-flag set."""

    bits: int
    flags: FPFlag

    def value(self, fmt: FloatFormat) -> SoftFloat:
        """The result as a SoftFloat in ``fmt``."""
        return SoftFloat(fmt, self.bits)


#: ``_result((bits, flags))`` builds an :class:`OracleResult` without
#: the NamedTuple's Python-level ``__new__``.
_result = functools.partial(tuple.__new__, OracleResult)


class _Landmarks:
    """One format's landmark encodings, each a pair indexed by sign."""

    __slots__ = ("fmt", "inf", "zero", "max_finite", "quiet_nan")

    def __init__(self, fmt: FloatFormat) -> None:
        self.fmt = fmt  # kept alive, so its ``id`` keys only this table
        self.inf = (fmt.inf_bits(0), fmt.inf_bits(1))
        self.zero = (fmt.zero_bits(0), fmt.zero_bits(1))
        self.max_finite = (fmt.max_finite_bits(0), fmt.max_finite_bits(1))
        self.quiet_nan = (fmt.quiet_nan_bits(0), fmt.quiet_nan_bits(1))


_LANDMARKS: dict[int, _Landmarks] = {}


def _landmarks(fmt: FloatFormat) -> _Landmarks:
    """``fmt``'s landmark table, built on first use."""
    try:
        return _LANDMARKS[id(fmt)]
    except KeyError:
        table = _LANDMARKS[id(fmt)] = _Landmarks(fmt)
        return table


# ----------------------------------------------------------------------
# Decoding an encoding into an exact scaled integer
# ----------------------------------------------------------------------
def _decode(fmt: FloatFormat, bits: int, daz: bool) -> tuple:
    """``(sign, class, m, e)`` of an encoding; a ``_FINITE`` value is
    ``m * 2**e`` with ``m > 0``.  Under ``daz`` a subnormal decodes as a
    zero of the same sign."""
    if bits >> fmt.width:  # too wide, or negative (shifts to -1)
        raise FormatError(f"bit pattern 0x{bits:x} out of range for {fmt}")
    frac_bits = fmt.frac_bits
    max_biased = fmt.max_biased_exp
    sign = bits >> fmt.sign_shift
    biased = (bits >> frac_bits) & max_biased
    frac = bits & fmt.sig_mask
    if biased == 0:
        if frac == 0 or daz:
            return sign, _ZERO, 0, 0
        return sign, _FINITE, frac, fmt.emin - frac_bits
    if biased == max_biased:
        if frac == 0:
            return sign, _INF, 0, 0
        return sign, (_QNAN if frac & fmt.quiet_bit else _SNAN), 0, 0
    return sign, _FINITE, frac | fmt.hidden_bit, biased - fmt.bias - frac_bits


# ----------------------------------------------------------------------
# Correct rounding of an exact magnitude
# ----------------------------------------------------------------------
def _ilog2(num: int, den: int) -> int:
    """``floor(log2(num/den))`` for positive integers, exactly."""
    k = num.bit_length() - den.bit_length()
    # 2**k <= num/den  iff  num >= den * 2**k
    if k >= 0:
        return k if num >= (den << k) else k - 1
    return k if (num << -k) >= den else k - 1


def _overflow_bits(fmt: FloatFormat, cfg: OracleConfig, sign: int) -> int:
    """Result encoding on overflow (inf or max-finite per direction)."""
    table = _landmarks(fmt)
    return (table.inf if cfg._overflow_to_inf[sign]
            else table.max_finite)[sign]


def _finish(
    fmt: FloatFormat,
    cfg: OracleConfig,
    sign: int,
    n: int,
    q: int,
    state: int,
    tiny_before: bool,
) -> OracleResult:
    """Deliver the truncated significand ``n`` at granularity ``2**q``
    whose discarded part compares to half a ULP as ``state``."""
    precision = fmt.precision
    if cfg._round_up[sign << 3 | (n & 1) << 2 | state]:
        n += 1
        if n == (1 << precision):  # carry out of the significand
            n >>= 1
            q += 1
    sign_bit = sign << fmt.sign_shift

    if n == 0:
        # A tiny value rounded all the way down to zero.
        return _result((sign_bit, _TINY_INEXACT))

    length = n.bit_length()
    msb_exp = q + length - 1
    if msb_exp > fmt.emax:
        return _result((_overflow_bits(fmt, cfg, sign), _OVERFLOW_INEXACT))

    if length == precision:
        # Normal delivery: tiny only before rounding (it rounded up to
        # the smallest normal), which the "after" convention forgives.
        if state == _EXACT:
            flags = _NONE
        elif tiny_before and cfg._tiny_before:
            flags = _TINY_INEXACT
        else:
            flags = _INEXACT
        return _result((sign_bit | ((msb_exp + fmt.bias) << fmt.frac_bits)
                        | (n & fmt.sig_mask), flags))

    if q != fmt.emin - (precision - 1):  # pragma: no cover - invariant
        raise AssertionError("subnormal delivered at the wrong granularity")
    # A subnormal result was tiny under both conventions.
    if cfg.ftz:
        return _result((sign_bit, _TINY_INEXACT))
    return _result((sign_bit | n,
                    _DENORMAL if state == _EXACT else _TINY_INEXACT_DENORMAL))


def _round_dyadic(
    fmt: FloatFormat, cfg: OracleConfig, sign: int, m: int, e: int
) -> OracleResult:
    """Correctly round the magnitude ``m * 2**e`` (``m > 0``)."""
    top = e + m.bit_length() - 1  # exponent of the leading bit
    tiny_before = top < fmt.emin
    q = (fmt.emin if tiny_before else top) - (fmt.precision - 1)
    shift = q - e
    if shift <= 0:
        return _finish(fmt, cfg, sign, m << -shift, q, _EXACT, tiny_before)
    rem = m & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    state = (_EXACT if rem == 0
             else _BELOW_HALF if rem < half
             else _HALF if rem == half else _ABOVE_HALF)
    return _finish(fmt, cfg, sign, m >> shift, q, state, tiny_before)


def _round_sum(
    fmt: FloatFormat, cfg: OracleConfig,
    sa: int, ma: int, ea: int, sb: int, mb: int, eb: int,
) -> OracleResult:
    """Correctly round ``±ma * 2**ea ± mb * 2**eb`` (signs ``sa``, ``sb``);
    an exact zero is a cancellation."""
    e = min(ea, eb)
    total = ((-ma if sa else ma) << (ea - e)) + ((-mb if sb else mb) << (eb - e))
    if total == 0:
        return _result((_landmarks(fmt).zero[cfg._cancel_sign], _NONE))
    if total < 0:
        return _round_dyadic(fmt, cfg, 1, -total, e)
    return _round_dyadic(fmt, cfg, 0, total, e)


def _round_ratio(
    fmt: FloatFormat, cfg: OracleConfig, sign: int, num: int, den: int,
    e: int,
) -> OracleResult:
    """Correctly round the magnitude ``num/den * 2**e`` (both positive)."""
    top = _ilog2(num, den) + e
    tiny_before = top < fmt.emin
    q = (fmt.emin if tiny_before else top) - (fmt.precision - 1)
    # n = floor(num/den * 2**(e-q)); the remainder against half a ULP.
    shift = q - e
    if shift >= 0:
        den <<= shift
    else:
        num <<= -shift
    n, rem = divmod(num, den)
    if rem == 0:
        state = _EXACT
    else:
        doubled = 2 * rem
        state = (_BELOW_HALF if doubled < den
                 else _HALF if doubled == den else _ABOVE_HALF)
    return _finish(fmt, cfg, sign, n, q, state, tiny_before)


def _round_sqrt(
    fmt: FloatFormat, cfg: OracleConfig, m: int, e: int
) -> OracleResult:
    """Correctly round ``sqrt(m * 2**e)``: integer square root plus
    exact square comparisons against the halfway point."""
    top = (e + m.bit_length() - 1) // 2  # floor exponent of the root
    tiny_before = top < fmt.emin
    q = (fmt.emin if tiny_before else top) - (fmt.precision - 1)
    # sqrt(m * 2**e) / 2**q = sqrt(M), M = m * 2**(e - 2q) = num / 2**k.
    shift = e - 2 * q
    num, k = (m << shift, 0) if shift >= 0 else (m, -shift)
    # floor(sqrt(num / 2**k)) = isqrt(floor(num / 2**k)).
    n = math.isqrt(num >> k)
    if (n * n) << k == num:
        state = _EXACT
    else:
        # Compare M against (n + 1/2)**2 = (2n+1)**2 / 4.
        lhs, rhs = 4 * num, (2 * n + 1) ** 2 << k
        state = (_BELOW_HALF if lhs < rhs
                 else _HALF if lhs == rhs else _ABOVE_HALF)
    return _finish(fmt, cfg, 0, n, q, state, tiny_before)


def round_fraction_exact(
    fmt: FloatFormat, magnitude: Rational, cfg: OracleConfig, sign: int = 0
) -> OracleResult:
    """Correctly round the positive rational ``magnitude`` (e.g. a
    ``Fraction``) into ``fmt`` with the exact flag set."""
    if magnitude <= 0:
        raise ValueError("round_fraction_exact needs a positive magnitude")
    return _round_ratio(fmt, cfg, sign, magnitude.numerator,
                        magnitude.denominator, 0)


# ----------------------------------------------------------------------
# Special-operand policy (independent restatement of the engine's rules)
# ----------------------------------------------------------------------
def _propagated_nan(
    fmt: FloatFormat, operands: tuple, classes: tuple
) -> OracleResult:
    flags = _INVALID if _SNAN in classes else _NONE
    for bits, cls in zip(operands, classes):
        if cls >= _QNAN:
            return _result((bits | fmt.quiet_bit, flags))
    raise AssertionError("no NaN operand to propagate")


def _default_nan(fmt: FloatFormat) -> OracleResult:
    return _result((_landmarks(fmt).quiet_nan[0], _INVALID))


# ----------------------------------------------------------------------
# Operations on encodings
# ----------------------------------------------------------------------
def _add(
    fmt: FloatFormat, cfg: OracleConfig, a: int, b: int, negate_b: int = 0
) -> OracleResult:
    """``a + b`` (or ``a - b`` with ``negate_b``: NaN payloads come from
    the *original* operands, then ``a + (-b)``)."""
    sa, ca, ma, ea = _decode(fmt, a, cfg.daz)
    sb, cb, mb, eb = _decode(fmt, b, cfg.daz)
    if ca >= _QNAN or cb >= _QNAN:
        return _propagated_nan(fmt, (a, b), (ca, cb))
    sb ^= negate_b
    if ca == _INF or cb == _INF:
        if ca == cb and sa != sb:
            return _default_nan(fmt)
        return _result((_landmarks(fmt).inf[sa if ca == _INF else sb], _NONE))
    if cb == _ZERO:
        if ca == _ZERO:
            sign = sa if sa == sb else cfg._cancel_sign
            return _result((_landmarks(fmt).zero[sign], _NONE))
        return _result((a, _NONE))
    if ca == _ZERO:
        return _result((b ^ (negate_b << fmt.sign_shift), _NONE))
    return _round_sum(fmt, cfg, sa, ma, ea, sb, mb, eb)


def _sub(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    return _add(fmt, cfg, a, b, 1)


def _mul(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    sa, ca, ma, ea = _decode(fmt, a, cfg.daz)
    sb, cb, mb, eb = _decode(fmt, b, cfg.daz)
    if ca >= _QNAN or cb >= _QNAN:
        return _propagated_nan(fmt, (a, b), (ca, cb))
    sign = sa ^ sb
    if ca == _INF or cb == _INF:
        if ca == _ZERO or cb == _ZERO:
            return _default_nan(fmt)
        return _result((_landmarks(fmt).inf[sign], _NONE))
    if ca == _ZERO or cb == _ZERO:
        return _result((_landmarks(fmt).zero[sign], _NONE))
    return _round_dyadic(fmt, cfg, sign, ma * mb, ea + eb)


def _div(fmt: FloatFormat, cfg: OracleConfig, a: int, b: int) -> OracleResult:
    sa, ca, ma, ea = _decode(fmt, a, cfg.daz)
    sb, cb, mb, eb = _decode(fmt, b, cfg.daz)
    if ca >= _QNAN or cb >= _QNAN:
        return _propagated_nan(fmt, (a, b), (ca, cb))
    sign = sa ^ sb
    if ca == _INF:
        if cb == _INF:
            return _default_nan(fmt)
        return _result((_landmarks(fmt).inf[sign], _NONE))
    if cb == _INF:
        return _result((_landmarks(fmt).zero[sign], _NONE))
    if cb == _ZERO:
        if ca == _ZERO:
            return _default_nan(fmt)
        return _result((_landmarks(fmt).inf[sign], _DIV_BY_ZERO))
    if ca == _ZERO:
        return _result((_landmarks(fmt).zero[sign], _NONE))
    return _round_ratio(fmt, cfg, sign, ma, mb, ea - eb)


def _sqrt(fmt: FloatFormat, cfg: OracleConfig, a: int) -> OracleResult:
    sa, ca, ma, ea = _decode(fmt, a, cfg.daz)
    if ca >= _QNAN:
        return _propagated_nan(fmt, (a,), (ca,))
    if ca == _ZERO:
        return _result((_landmarks(fmt).zero[sa], _NONE))  # sqrt(±0) = ±0
    if sa:
        return _default_nan(fmt)
    if ca == _INF:
        return _result((a, _NONE))
    return _round_sqrt(fmt, cfg, ma, ea)


def _fma(
    fmt: FloatFormat, cfg: OracleConfig, a: int, b: int, c: int
) -> OracleResult:
    """``a * b + c`` with one rounding."""
    # Decoded without DAZ first: the 0*inf check sees the raw operands.
    sa, ca, ma, ea = _decode(fmt, a, False)
    sb, cb, mb, eb = _decode(fmt, b, False)
    sc, cc, mc, ec = _decode(fmt, c, False)
    classes = (ca, cb, cc)
    if _SNAN in classes:
        return _propagated_nan(fmt, (a, b, c), classes)
    if (ca == _INF and cb == _ZERO) or (ca == _ZERO and cb == _INF):
        return _default_nan(fmt)
    if ca >= _QNAN or cb >= _QNAN or cc >= _QNAN:
        return _propagated_nan(fmt, (a, b, c), classes)
    if cfg.daz:
        hidden = fmt.hidden_bit
        if ca == _FINITE and ma < hidden:
            ca = _ZERO
        if cb == _FINITE and mb < hidden:
            cb = _ZERO
        if cc == _FINITE and mc < hidden:
            cc = _ZERO
    psign = sa ^ sb
    if ca == _INF or cb == _INF:
        if cc == _INF and sc != psign:
            return _default_nan(fmt)
        return _result((_landmarks(fmt).inf[psign], _NONE))
    if cc == _INF:
        return _result((c, _NONE))
    if ca == _ZERO or cb == _ZERO:
        if cc == _ZERO:
            sign = psign if psign == sc else cfg._cancel_sign
            return _result((_landmarks(fmt).zero[sign], _NONE))
        return _result((c, _NONE))
    if cc == _ZERO:
        return _round_dyadic(fmt, cfg, psign, ma * mb, ea + eb)
    return _round_sum(fmt, cfg, psign, ma * mb, ea + eb, sc, mc, ec)


#: The oracle's operations on encodings: ``fn(fmt, cfg, *bits)``.
ORACLE_OPS = {
    "add": _add,
    "sub": _sub,
    "mul": _mul,
    "div": _div,
    "sqrt": _sqrt,
    "fma": _fma,
}

#: Operand count by operation name.
OP_ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqrt": 1, "fma": 3}


def oracle_operation(
    op: str, fmt: FloatFormat, cfg: OracleConfig, *operands: int
) -> OracleResult:
    """Run the named operation through the exact-rounding reference.

    ``operands`` are encodings (bit patterns) in ``fmt``.
    """
    try:
        fn = ORACLE_OPS[op]
    except KeyError:
        raise ValueError(f"oracle has no operation {op!r};"
                         f" knows {sorted(ORACLE_OPS)}") from None
    if len(operands) != OP_ARITY[op]:
        raise ValueError(f"{op} takes {OP_ARITY[op]} operands,"
                         f" got {len(operands)}")
    return fn(fmt, cfg, *operands)


# ----------------------------------------------------------------------
# SoftFloat adapters
# ----------------------------------------------------------------------
def oracle_add(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE addition."""
    return _add(a.fmt, cfg, a.bits, b.bits)


def oracle_sub(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE subtraction."""
    return _sub(a.fmt, cfg, a.bits, b.bits)


def oracle_mul(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE multiplication."""
    return _mul(a.fmt, cfg, a.bits, b.bits)


def oracle_div(cfg: OracleConfig, a: SoftFloat, b: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE division."""
    return _div(a.fmt, cfg, a.bits, b.bits)


def oracle_sqrt(cfg: OracleConfig, a: SoftFloat) -> OracleResult:
    """Exact-rounding reference for IEEE square root."""
    return _sqrt(a.fmt, cfg, a.bits)


def oracle_fma(
    cfg: OracleConfig, a: SoftFloat, b: SoftFloat, c: SoftFloat
) -> OracleResult:
    """Exact-rounding reference for fused multiply-add (one rounding)."""
    return _fma(a.fmt, cfg, a.bits, b.bits, c.bits)
