"""The abstract value domain for static FP analysis.

An :class:`AbstractValue` over-approximates the set of machine values a
(sub)expression can take: a correctly rounded interval of non-NaN
endpoints plus explicit possibility bits for ``+0``, ``-0``, NaN, and
signaling NaN.  Transfer functions compute sound post-states using the
softfloat engine itself under directed rounding
(:mod:`repro.softfloat.directed`): every endpoint is an actual
softfloat probe, never a host-float estimate, so the bounds are valid
for the exact format (binary16, bfloat16, ...) being analyzed.

Soundness contract (checked by the property suite): for any concrete
binding admitted by the operand abstractions, the concrete result is
admitted by the transfer result, the concretely raised flags are a
subset of ``may`` flags, and ``must`` flags are a subset of the
concretely raised flags.

Design notes on the three places naive corner evaluation would be
*unsound*, and what this module does instead:

- NaN production (e.g. ``0 * inf`` hiding in the interior of
  ``[-1,1] * [-inf,inf]``) is decided by set predicates on the
  operands, never by probing corners.
- Interior rounding: a non-point operand may round when its endpoints
  do not, so INEXACT/UNDERFLOW/DENORMAL "may" bits come from range
  predicates (does the result hull intersect the subnormal band?) on
  top of whatever the corner probes raised.
- Division by a zero-containing interval widens (with sign
  refinement) instead of raising, unlike :class:`repro.interval.Interval`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat import fp_le, fp_lt, next_down
from repro.softfloat.directed import down_env, probe_op, up_env
from repro.softfloat.formats import BINARY64, FloatFormat
from repro.softfloat.parse import parse_softfloat
from repro.softfloat.value import SoftFloat

__all__ = [
    "AbstractValue",
    "AnalysisContext",
    "TransferResult",
    "transfer",
    "transfer_literal",
]

_ROUNDING_OPS = frozenset({"add", "sub", "mul", "div", "fma", "sqrt"})


# Ordered comparisons raise a flag (invalid) only on a NaN operand; it
# goes to a throwaway environment, and no environment is built otherwise.
def _lt(a: SoftFloat, b: SoftFloat) -> bool:
    return fp_lt(a, b, FPEnv() if a.is_nan or b.is_nan else None)


def _le(a: SoftFloat, b: SoftFloat) -> bool:
    return fp_le(a, b, FPEnv() if a.is_nan or b.is_nan else None)


def _min_sf(values: list[SoftFloat]) -> SoftFloat:
    """Numeric minimum, preferring ``-0`` over ``+0`` on ties."""
    best = values[0]
    for v in values[1:]:
        if _lt(v, best) or (v.is_zero and best.is_zero and v.is_negative):
            best = v
    return best


def _max_sf(values: list[SoftFloat]) -> SoftFloat:
    """Numeric maximum, preferring ``+0`` over ``-0`` on ties."""
    best = values[0]
    for v in values[1:]:
        if _lt(best, v) or (v.is_zero and best.is_zero and not v.is_negative):
            best = v
    return best


@functools.lru_cache(maxsize=None)
def _subnormal_edges(fmt: FloatFormat) -> tuple[SoftFloat, SoftFloat]:
    """The smallest and the largest positive subnormal of ``fmt``."""
    return (SoftFloat.min_subnormal(fmt),
            next_down(SoftFloat.min_normal(fmt), FPEnv()))


@dataclasses.dataclass(frozen=True)
class AbstractValue:
    """A sound over-approximation of a set of softfloat values.

    ``lo``/``hi`` bound the non-NaN portion (``None`` when the value is
    necessarily NaN); ``pos_zero``/``neg_zero`` say which zero *signs*
    are attainable (the interval alone cannot: ``[-1, 1]`` spans zero
    numerically whether or not an actual ``-0`` can occur); and
    ``maybe_nan``/``maybe_snan`` track quiet/signaling NaN possibility.
    """

    fmt: FloatFormat
    lo: SoftFloat | None
    hi: SoftFloat | None
    maybe_nan: bool = False
    maybe_snan: bool = False
    pos_zero: bool = False
    neg_zero: bool = False

    def __post_init__(self) -> None:
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo/hi must both be set or both be None")
        if self.lo is not None:
            assert self.hi is not None
            if self.lo.fmt != self.fmt or self.hi.fmt != self.fmt:
                raise ValueError("endpoint format mismatch")
            if self.lo.is_nan or self.hi.is_nan:
                raise ValueError("NaN endpoint (use maybe_nan)")
            if not _le(self.lo, self.hi):
                raise ValueError(f"empty range: {self.lo!s} > {self.hi!s}")
        elif not (self.maybe_nan or self.pos_zero or self.neg_zero):
            raise ValueError("abstract value admits nothing")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: SoftFloat) -> "AbstractValue":
        """The singleton abstraction of one concrete value."""
        if value.is_nan:
            return cls.nan_only(value.fmt, snan=value.is_signaling_nan)
        if value.is_zero:
            return cls(
                value.fmt, value, value,
                pos_zero=not value.is_negative,
                neg_zero=bool(value.is_negative),
            )
        return cls(value.fmt, value, value)

    @classmethod
    def from_range(
        cls,
        lo: SoftFloat,
        hi: SoftFloat,
        *,
        maybe_nan: bool = False,
        maybe_snan: bool = False,
    ) -> "AbstractValue":
        """Range abstraction; a zero-spanning range admits both zero
        signs (bind a point for a single-signed zero)."""
        zero = SoftFloat.zero(lo.fmt)
        spans_zero = _le(lo, zero) and _le(zero, hi)
        return cls(
            lo.fmt, lo, hi,
            maybe_nan=maybe_nan or maybe_snan,
            maybe_snan=maybe_snan,
            pos_zero=spans_zero,
            neg_zero=spans_zero,
        )

    @classmethod
    def top(
        cls, fmt: FloatFormat, *, nan: bool = False, snan: bool = False
    ) -> "AbstractValue":
        """Everything (optionally including NaNs)."""
        return cls(
            fmt,
            SoftFloat.inf(fmt, 1),
            SoftFloat.inf(fmt, 0),
            maybe_nan=nan or snan,
            maybe_snan=snan,
            pos_zero=True,
            neg_zero=True,
        )

    @classmethod
    def nan_only(cls, fmt: FloatFormat, *, snan: bool = False) -> "AbstractValue":
        """Necessarily NaN."""
        return cls(fmt, None, None, maybe_nan=True, maybe_snan=snan)

    @classmethod
    def from_literal(
        cls, text: str, fmt: FloatFormat = BINARY64
    ) -> "AbstractValue":
        """Tightest abstraction of a source literal under any rounding
        direction (both directed conversions; a point when they agree)."""
        lo = parse_softfloat(text, fmt, down_env())
        if lo.is_nan:
            return cls.nan_only(fmt, snan=lo.is_signaling_nan)
        hi = parse_softfloat(text, fmt, up_env())
        if lo.same_bits(hi):
            return cls.point(lo)
        return cls.from_range(lo, hi)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_point(self) -> bool:
        """Exactly one concrete value (so a concrete probe is exact)."""
        return (
            self.lo is not None
            and self.lo.same_bits(self.hi)
            and not self.maybe_nan
            and not (self.pos_zero and self.neg_zero)
        )

    @property
    def can_zero(self) -> bool:
        return self.pos_zero or self.neg_zero

    @property
    def can_pinf(self) -> bool:
        return self.hi is not None and self.hi.is_inf and not self.hi.is_negative

    @property
    def can_ninf(self) -> bool:
        return self.lo is not None and self.lo.is_inf and bool(self.lo.is_negative)

    @property
    def can_inf(self) -> bool:
        return self.can_pinf or self.can_ninf

    @property
    def can_pos(self) -> bool:
        """A strictly positive (nonzero) member exists."""
        if self.hi is None:
            return False
        return _lt(SoftFloat.zero(self.fmt), self.hi)

    @property
    def can_neg(self) -> bool:
        """A strictly negative (nonzero) member exists."""
        if self.lo is None:
            return False
        return _lt(self.lo, SoftFloat.zero(self.fmt))

    @property
    def can_pos_finite(self) -> bool:
        if self.lo is None:
            return False
        return (
            _le(self.lo, SoftFloat.max_finite(self.fmt))
            and _le(SoftFloat.min_subnormal(self.fmt), self.hi)
        )

    @property
    def can_neg_finite(self) -> bool:
        if self.lo is None:
            return False
        return (
            _le(SoftFloat.max_finite(self.fmt, 1), self.hi)
            and _le(self.lo, SoftFloat.min_subnormal(self.fmt, 1))
        )

    @property
    def can_nonzero_finite(self) -> bool:
        return self.can_pos_finite or self.can_neg_finite

    @property
    def sign_pos_possible(self) -> bool:
        """A value with a clear sign bit (incl. ``+0``, ``+inf``)."""
        return self.can_pos or self.pos_zero

    @property
    def sign_neg_possible(self) -> bool:
        """A value with a set sign bit (incl. ``-0``, ``-inf``)."""
        return self.can_neg or self.neg_zero

    @property
    def can_subnormal(self) -> bool:
        """The range reaches into the subnormal band (either sign)."""
        if self.lo is None:
            return False
        min_sub, max_sub = _subnormal_edges(self.fmt)
        pos = _le(self.lo, max_sub) and _le(min_sub, self.hi)
        neg = _le(-max_sub, self.hi) and _le(self.lo, -min_sub)
        return pos or neg

    def admits(self, value: SoftFloat) -> bool:
        """Is the concrete value inside this abstraction?"""
        if value.is_nan:
            return self.maybe_snan if value.is_signaling_nan else self.maybe_nan
        if value.is_zero:
            return self.neg_zero if value.is_negative else self.pos_zero
        return (
            self.lo is not None
            and _le(self.lo, value)
            and _le(value, self.hi)
        )

    # ------------------------------------------------------------------
    # Lattice / helpers
    # ------------------------------------------------------------------
    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Least upper bound (range hull, possibility-bit union)."""
        if self.lo is None:
            lo, hi = other.lo, other.hi
        elif other.lo is None:
            lo, hi = self.lo, self.hi
        else:
            lo = _min_sf([self.lo, other.lo])
            hi = _max_sf([self.hi, other.hi])
        return AbstractValue(
            self.fmt, lo, hi,
            maybe_nan=self.maybe_nan or other.maybe_nan,
            maybe_snan=self.maybe_snan or other.maybe_snan,
            pos_zero=self.pos_zero or other.pos_zero,
            neg_zero=self.neg_zero or other.neg_zero,
        )

    def corner_points(self) -> list[SoftFloat]:
        """Representative concrete members probed by transfer
        functions: the endpoints plus any attainable signed zeros."""
        points: list[SoftFloat] = []
        if self.lo is not None:
            points.append(self.lo)
            if not self.lo.same_bits(self.hi):
                points.append(self.hi)
        if self.pos_zero:
            points.append(SoftFloat.zero(self.fmt, 0))
        if self.neg_zero:
            points.append(SoftFloat.zero(self.fmt, 1))
        seen: set[int] = set()
        unique = []
        for p in points:
            if p.bits not in seen:
                seen.add(p.bits)
                unique.append(p)
        return unique

    def probe_points(self) -> list[SoftFloat]:
        """Corner points plus admitted *interior witnesses* flanking
        the discontinuity sources.

        A corner combo like ``0 x inf`` probes to NaN and is dropped,
        which can hide the finite interior entirely (``+0 x [-inf,
        inf]`` has only NaN corners, yet every finite interior operand
        yields a signed zero).  Probing the same-signed max-finite next
        to each infinite endpoint and the same-signed min-subnormal
        next to each attainable zero restores those witnesses; each is
        added only when the range actually admits it, so a genuine
        point at the discontinuity (e.g. an exactly-infinite operand)
        is not diluted."""
        points = self.corner_points()
        extras: list[SoftFloat] = []
        if self.lo is not None:
            if self.lo.is_inf:
                extras.append(SoftFloat.max_finite(self.fmt, 1))
            if self.hi.is_inf:
                extras.append(SoftFloat.max_finite(self.fmt, 0))
        if self.pos_zero:
            extras.append(SoftFloat.min_subnormal(self.fmt, 0))
        if self.neg_zero:
            extras.append(SoftFloat.min_subnormal(self.fmt, 1))
        seen = {p.bits for p in points}
        for p in extras:
            if p.bits not in seen and self.admits(p):
                seen.add(p.bits)
                points.append(p)
        return points

    def max_magnitude(self) -> SoftFloat:
        """Largest absolute member (``+0`` for a zero-only value)."""
        if self.lo is None:
            return SoftFloat.zero(self.fmt)
        return _max_sf([abs(self.lo), abs(self.hi)])

    def min_magnitude(self) -> SoftFloat:
        """Smallest absolute member (``+0`` when zero is spanned)."""
        zero = SoftFloat.zero(self.fmt)
        if self.can_zero:
            return zero
        if self.lo is None:
            return zero
        if _le(self.lo, zero) and _le(zero, self.hi):
            return zero
        return _min_sf([abs(self.lo), abs(self.hi)])

    def min_nonzero_magnitude(self) -> SoftFloat:
        """Smallest *nonzero* absolute member (min subnormal when the
        range spans zero; meaningless for a zero-only value)."""
        small = self.min_magnitude()
        if small.is_zero:
            return SoftFloat.min_subnormal(self.fmt)
        return small

    def describe(self) -> str:
        """Compact human-readable rendering."""
        parts = []
        if self.lo is not None:
            parts.append(f"[{self.lo!s}, {self.hi!s}]")
        zeros = []
        if self.pos_zero:
            zeros.append("+0")
        if self.neg_zero:
            zeros.append("-0")
        if zeros:
            parts.append("zeros:{" + ",".join(zeros) + "}")
        if self.maybe_nan:
            parts.append("NaN?" if not self.maybe_snan else "sNaN?")
        return " ".join(parts) if parts else "(empty)"

    def __str__(self) -> str:
        return self.describe()


@dataclasses.dataclass(frozen=True)
class AnalysisContext:
    """The machine-relevant slice of a configuration: format, rounding
    direction, and the abrupt-underflow controls."""

    fmt: FloatFormat = BINARY64
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    ftz: bool = False
    daz: bool = False

    @classmethod
    def from_config(cls, config) -> "AnalysisContext":
        """Build from an :class:`repro.optsim.machine.MachineConfig`."""
        return cls(
            fmt=config.fmt, rounding=config.rounding,
            ftz=config.ftz, daz=config.daz,
        )

    def concrete_env(self) -> FPEnv:
        """A fresh environment for exact (point) evaluation."""
        return FPEnv(rounding=self.rounding, ftz=self.ftz, daz=self.daz)

    def probe_envs(self) -> tuple[FPEnv, FPEnv]:
        """Directed (down, up) environments carrying this context's
        FTZ/DAZ, for outward-rounded corner probes."""
        return (
            down_env(ftz=self.ftz, daz=self.daz),
            up_env(ftz=self.ftz, daz=self.daz),
        )


class TransferResult(NamedTuple):
    """One node's abstract outcome: value set, flags that *may* be
    raised by this node's operation, flags that *must* be."""

    value: AbstractValue
    may: FPFlag
    must: FPFlag


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------
def transfer_literal(text: str, fmt: FloatFormat) -> TransferResult:
    """Constants are stated, not computed: no flags, and always
    round-to-nearest (the evaluator converts literals quietly at
    compile time, ignoring the machine's rounding mode), so the
    abstraction is the exact point the evaluator will use."""
    return TransferResult(
        AbstractValue.point(parse_softfloat(text, fmt)),
        FPFlag.NONE,
        FPFlag.NONE,
    )


def transfer(
    op: str, operands: tuple[AbstractValue, ...], ctx: AnalysisContext
) -> TransferResult:
    """Sound abstract execution of one operation.

    ``op`` is a :data:`repro.softfloat.directed.PROBE_OPS` name plus
    ``"neg"``/``"abs"`` for the quiet sign-bit operations.
    """
    if ctx.daz:
        operands = tuple(_daz_widen(v) for v in operands)
    operands = tuple(_materialize_zeros(v) for v in operands)
    if op == "neg":
        return _transfer_neg(operands[0])
    if op == "abs":
        return _transfer_abs(operands[0])
    if all(v.is_point for v in operands):
        return _transfer_point(op, operands, ctx)
    if op == "sqrt":
        return _transfer_sqrt(operands[0], ctx)
    if op in ("min", "max"):
        return _transfer_minmax(op, operands[0], operands[1], ctx)
    if op == "rem":
        return _transfer_rem(operands[0], operands[1], ctx)
    if op == "div":
        return _transfer_div(operands[0], operands[1], ctx)
    if op in ("add", "sub"):
        return _transfer_addsub(op, operands[0], operands[1], ctx)
    if op == "mul":
        return _transfer_mul(operands[0], operands[1], ctx)
    if op == "fma":
        return _transfer_fma(operands[0], operands[1], operands[2], ctx)
    raise ValueError(f"unknown operation {op!r}")


def _materialize_zeros(v: AbstractValue) -> AbstractValue:
    """Re-express a zero-or-NaN operand (``lo is None`` but a zero bit
    set, e.g. the result of ``sqrt`` on a negative-or-``-0`` range) with
    its attainable zeros as the hull, so every ``lo is None`` test below
    means *necessarily NaN* — the binary transfers would otherwise drop
    the zero members and return an unsound NaN-only result."""
    if v.lo is not None or not v.can_zero:
        return v
    lo = SoftFloat.zero(v.fmt, 1 if v.neg_zero else 0)
    hi = SoftFloat.zero(v.fmt, 0 if v.pos_zero else 1)
    return dataclasses.replace(v, lo=lo, hi=hi)


def _daz_widen(v: AbstractValue) -> AbstractValue:
    """Under DAZ an operand's subnormal members are read as zeros; the
    operand set grows by the corresponding signed zeros (keeping the
    subnormals too is a sound over-approximation)."""
    if v.lo is None or not v.can_subnormal:
        return v
    min_sub, max_sub = _subnormal_edges(v.fmt)
    pos = v.pos_zero or (_le(v.lo, max_sub) and _le(min_sub, v.hi))
    neg = v.neg_zero or (_le(-max_sub, v.hi) and _le(v.lo, -min_sub))
    return dataclasses.replace(v, pos_zero=pos, neg_zero=neg)


def _transfer_neg(v: AbstractValue) -> TransferResult:
    value = AbstractValue(
        v.fmt,
        None if v.hi is None else -v.hi,
        None if v.lo is None else -v.lo,
        maybe_nan=v.maybe_nan,
        maybe_snan=v.maybe_snan,
        pos_zero=v.neg_zero,
        neg_zero=v.pos_zero,
    )
    return TransferResult(value, FPFlag.NONE, FPFlag.NONE)


def _transfer_abs(v: AbstractValue) -> TransferResult:
    if v.lo is None:
        lo = hi = None
    elif not v.lo.is_negative or v.lo.is_zero:
        lo, hi = abs(v.lo), abs(v.hi)
    elif v.hi.is_negative and not v.hi.is_zero:
        lo, hi = abs(v.hi), abs(v.lo)
    else:
        lo = SoftFloat.zero(v.fmt)
        hi = _max_sf([abs(v.lo), abs(v.hi)])
    value = AbstractValue(
        v.fmt, lo, hi,
        maybe_nan=v.maybe_nan, maybe_snan=v.maybe_snan,
        pos_zero=v.can_zero, neg_zero=False,
    )
    return TransferResult(value, FPFlag.NONE, FPFlag.NONE)


def _transfer_point(
    op: str, operands: tuple[AbstractValue, ...], ctx: AnalysisContext
) -> TransferResult:
    """All operands are single concrete values: run the engine once
    under the real environment; may = must = the exact flags."""
    args = []
    for v in operands:
        assert v.lo is not None
        if v.lo.is_zero:
            args.append(SoftFloat.zero(v.fmt, 1 if v.neg_zero else 0))
        else:
            args.append(v.lo)
    env = ctx.concrete_env()
    result = probe_op(op, *args, env=env)[0]
    flags = env.flags
    return TransferResult(AbstractValue.point(result), flags, flags)


def _probe_corners(
    op: str,
    corner_sets: list[list[SoftFloat]],
    ctx: AnalysisContext,
) -> tuple[list[SoftFloat], FPFlag, FPFlag]:
    """Probe every corner combination under both directed roundings.

    Returns all non-NaN results (the hull candidates — sound extremes
    for argumentwise-monotone operations), the union of raised flags,
    and the flags every probe raised.  NaN corners are dropped; NaN
    possibility is decided by the callers' set predicates, never here.
    """
    down, up = ctx.probe_envs()
    combos: list[tuple[SoftFloat, ...]] = [()]
    for pts in corner_sets:
        combos = [c + (p,) for c in combos for p in pts]
    results: list[SoftFloat] = []
    # flag sets as their integer values: no enum operator call per probe
    flags = 0
    every = FPFlag.ALL._value_
    for combo in combos:
        for env in (down, up):
            r, f = probe_op(op, *combo, env=env)
            flags |= f._value_
            every &= f._value_
            if not r.is_nan:
                results.append(r)
    return results, FLAGS_BY_VALUE[flags], FLAGS_BY_VALUE[every]


def _assemble(
    fmt: FloatFormat,
    candidates: list[SoftFloat],
    corner_flags: FPFlag,
    *,
    ctx: AnalysisContext,
    maybe_nan: bool,
    maybe_snan: bool,
    rounding_op: bool,
    extra_may: FPFlag = FPFlag.NONE,
    extra_pos_zero: bool = False,
    extra_neg_zero: bool = False,
    every_flags: FPFlag = FPFlag.NONE,
) -> TransferResult:
    """Build the final transfer result from hull candidates + rules.

    Applies the interior-soundness rules corner probing alone would
    miss: blanket INEXACT for rounding operations on non-point
    operands, and the tiny-result rule (UNDERFLOW/INEXACT/DENORMAL and
    attainable zeros whenever the hull reaches into ``(0, min_normal)``
    of either sign — under flush-to-zero or directed/odd rounding those
    interior results can land on zero even when no corner does).

    ``every_flags`` are the flags every corner probe raised.  When
    OVERFLOW is among them, the probe rounding toward zero overflowed
    too, so each corner's exact result is at least ``2^(emax+1)`` in
    magnitude; when those results also share one sign and no operand
    or corner is NaN, every admitted result overflows in every rounding
    direction (the probed operations are monotone or multilinear on
    the box, so the corners bound the interior), and OVERFLOW|INEXACT
    become must-flags.
    """
    may = corner_flags | extra_may
    if maybe_snan:
        may |= FPFlag.INVALID
    pos_zero = extra_pos_zero
    neg_zero = extra_neg_zero
    if not candidates:
        value = AbstractValue.nan_only(fmt, snan=maybe_snan)
        if pos_zero or neg_zero:
            value = dataclasses.replace(
                value, pos_zero=pos_zero, neg_zero=neg_zero
            )
        return TransferResult(value, may, FPFlag.NONE)
    lo = _min_sf(candidates)
    hi = _max_sf(candidates)
    for c in candidates:
        if c.is_zero:
            if c.is_negative:
                neg_zero = True
            else:
                pos_zero = True
    if rounding_op:
        may |= FPFlag.INEXACT
    zero = SoftFloat.zero(fmt)
    min_normal = SoftFloat.min_normal(fmt)
    tiny_pos = _lt(zero, hi) and _lt(lo, min_normal)
    tiny_neg = _lt(lo, zero) and _lt(-min_normal, hi)
    if tiny_pos or tiny_neg:
        may |= FPFlag.UNDERFLOW | FPFlag.INEXACT | FPFlag.DENORMAL_RESULT
        pos_zero = pos_zero or tiny_pos
        neg_zero = neg_zero or tiny_neg
    value = AbstractValue(
        fmt, lo, hi,
        maybe_nan=maybe_nan or maybe_snan,
        maybe_snan=maybe_snan,
        pos_zero=pos_zero,
        neg_zero=neg_zero,
    )
    must = FPFlag.NONE
    if every_flags & FPFlag.OVERFLOW and not (maybe_nan or maybe_snan) \
            and (not lo.is_negative or hi.is_negative):
        must = FPFlag.OVERFLOW | FPFlag.INEXACT
    return TransferResult(value, may, must)


def _negate_abstract(v: AbstractValue) -> AbstractValue:
    return _transfer_neg(v).value


def _cancellation_possible(a: AbstractValue, b: AbstractValue) -> bool:
    """Can ``a + b`` cancel exactly to zero from *nonzero finite*
    operands — i.e. do ``a`` and ``-b`` share a nonzero finite value?"""
    nb = _negate_abstract(b)
    if a.lo is None or nb.lo is None:
        return False
    lo = _max_sf([a.lo, nb.lo])
    hi = _min_sf([a.hi, nb.hi])
    if _lt(hi, lo):
        return False
    overlap = AbstractValue(a.fmt, lo, hi)
    return overlap.can_nonzero_finite


def _transfer_addsub(
    op: str, a: AbstractValue, b: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    """Addition/subtraction (``a - b`` is bit-identical to
    ``a + (-b)``, so one rule set serves both)."""
    b_eff = _negate_abstract(b) if op == "sub" else b
    maybe_nan = a.maybe_nan or b.maybe_nan
    extra_may = FPFlag.NONE
    if (a.can_pinf and b_eff.can_ninf) or (a.can_ninf and b_eff.can_pinf):
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if a.lo is None or b.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=a.maybe_snan or b.maybe_snan),
            extra_may | (FPFlag.INVALID if (a.maybe_snan or b.maybe_snan)
                         else FPFlag.NONE),
            FPFlag.NONE,
        )
    candidates, corner_flags, every = _probe_corners(
        op, [a.probe_points(), b.probe_points()], ctx
    )
    pos_zero = neg_zero = False
    if _cancellation_possible(a, b_eff):
        if ctx.rounding is RoundingMode.TOWARD_NEGATIVE:
            neg_zero = True
        else:
            pos_zero = True
    return _assemble(
        ctx.fmt, candidates, corner_flags,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=a.maybe_snan or b.maybe_snan,
        rounding_op=True,
        extra_may=extra_may,
        extra_pos_zero=pos_zero,
        extra_neg_zero=neg_zero,
    )


def _transfer_mul(
    a: AbstractValue, b: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    maybe_nan = a.maybe_nan or b.maybe_nan
    extra_may = FPFlag.NONE
    if (a.can_zero and b.can_inf) or (a.can_inf and b.can_zero):
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if a.lo is None or b.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=a.maybe_snan or b.maybe_snan),
            extra_may | (FPFlag.INVALID if (a.maybe_snan or b.maybe_snan)
                         else FPFlag.NONE),
            FPFlag.NONE,
        )
    candidates, corner_flags, every = _probe_corners(
        "mul", [a.probe_points(), b.probe_points()], ctx
    )
    return _assemble(
        ctx.fmt, candidates, corner_flags,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=a.maybe_snan or b.maybe_snan,
        rounding_op=True,
        extra_may=extra_may,
    )


def _transfer_div(
    a: AbstractValue, b: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    maybe_snan = a.maybe_snan or b.maybe_snan
    maybe_nan = a.maybe_nan or b.maybe_nan
    extra_may = FPFlag.NONE
    if a.can_zero and b.can_zero:
        maybe_nan = True
        extra_may |= FPFlag.INVALID  # 0/0
    if a.can_inf and b.can_inf:
        maybe_nan = True
        extra_may |= FPFlag.INVALID  # inf/inf
    if a.lo is None or b.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=maybe_snan),
            extra_may | (FPFlag.INVALID if maybe_snan else FPFlag.NONE),
            FPFlag.NONE,
        )
    if b.can_zero or (_le(b.lo, SoftFloat.zero(ctx.fmt))
                      and _le(SoftFloat.zero(ctx.fmt), b.hi)):
        return _transfer_div_by_zero_span(
            a, b, ctx, maybe_nan, maybe_snan, extra_may
        )
    candidates, corner_flags, every = _probe_corners(
        "div", [a.probe_points(), b.probe_points()], ctx
    )
    return _assemble(
        ctx.fmt, candidates, corner_flags,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=maybe_snan,
        rounding_op=True,
        extra_may=extra_may,
    )


def _transfer_div_by_zero_span(
    a: AbstractValue,
    b: AbstractValue,
    ctx: AnalysisContext,
    maybe_nan: bool,
    maybe_snan: bool,
    extra_may: FPFlag,
) -> TransferResult:
    """Division where the divisor's range spans (or touches) zero: the
    quotient magnitude is unbounded, so widen to the sign-refined
    half-lines instead of probing corners."""
    may = extra_may
    if b.can_zero and a.can_nonzero_finite:
        may |= FPFlag.DIV_BY_ZERO
    q_pos = (a.sign_pos_possible and b.sign_pos_possible) or (
        a.sign_neg_possible and b.sign_neg_possible
    )
    q_neg = (a.sign_pos_possible and b.sign_neg_possible) or (
        a.sign_neg_possible and b.sign_pos_possible
    )
    fmt = ctx.fmt
    lo = SoftFloat.inf(fmt, 1) if q_neg else SoftFloat.zero(fmt, 1)
    hi = SoftFloat.inf(fmt, 0) if q_pos else SoftFloat.zero(fmt, 0)
    # Can the quotient be (rounded/flushed to) zero?  Magnitude-minimal
    # quotient: smallest |a| over largest |b|.
    down = ctx.probe_envs()[0]
    q_minmag, _ = probe_op("div", a.min_magnitude(), b.max_magnitude(),
                           env=down)
    zero_possible = (
        q_minmag.is_nan  # 0/0 or inf/inf corner: zero still reachable nearby
        or q_minmag.is_zero
        or q_minmag.is_subnormal
        or a.can_zero
        or b.can_inf
    )
    may |= FPFlag.OVERFLOW | FPFlag.INEXACT
    if zero_possible:
        may |= FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
    must = FPFlag.NONE
    if (
        b.lo is not None
        and b.lo.is_zero and b.hi.is_zero
        and not b.maybe_nan
        and not a.maybe_nan
        and not a.can_zero
        and not a.can_inf
    ):
        must |= FPFlag.DIV_BY_ZERO
    value = AbstractValue(
        fmt, lo, hi,
        maybe_nan=maybe_nan or maybe_snan,
        maybe_snan=maybe_snan,
        pos_zero=q_pos and zero_possible,
        neg_zero=q_neg and zero_possible,
    )
    if maybe_snan:
        may |= FPFlag.INVALID
    return TransferResult(value, may, must)


def _transfer_fma(
    a: AbstractValue, b: AbstractValue, c: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    maybe_snan = a.maybe_snan or b.maybe_snan or c.maybe_snan
    maybe_nan = a.maybe_nan or b.maybe_nan or c.maybe_nan
    extra_may = FPFlag.NONE
    if (a.can_zero and b.can_inf) or (a.can_inf and b.can_zero):
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if (a.can_inf or b.can_inf) and c.can_inf:
        # The product can be an infinity of either sign when an operand
        # range admits both signs; keep the coarse (sound) condition.
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if a.lo is None or b.lo is None or c.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=maybe_snan),
            extra_may | (FPFlag.INVALID if maybe_snan else FPFlag.NONE),
            FPFlag.NONE,
        )
    candidates, corner_flags, every = _probe_corners(
        "fma",
        [a.probe_points(), b.probe_points(), c.probe_points()],
        ctx,
    )
    # Exact cancellation a*b == -c: approximate the product set with its
    # own (sound) mul hull, then reuse the additive overlap rule.
    product = _transfer_mul(a, b, ctx).value
    pos_zero = neg_zero = False
    if _cancellation_possible(product, c):
        if ctx.rounding is RoundingMode.TOWARD_NEGATIVE:
            neg_zero = True
        else:
            pos_zero = True
    return _assemble(
        ctx.fmt, candidates, corner_flags,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=maybe_snan,
        rounding_op=True,
        extra_may=extra_may,
        extra_pos_zero=pos_zero,
        extra_neg_zero=neg_zero,
    )


def _transfer_sqrt(v: AbstractValue, ctx: AnalysisContext) -> TransferResult:
    maybe_nan = v.maybe_nan
    extra_may = FPFlag.NONE
    must = FPFlag.NONE
    if v.can_neg:
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if (
        v.hi is not None
        and v.hi.is_negative and not v.hi.is_zero
        and not v.maybe_nan
        and not v.can_zero
    ):
        must |= FPFlag.INVALID  # every member is strictly negative
    if v.lo is None or (v.hi.is_negative and not v.hi.is_zero):
        value = AbstractValue.nan_only(ctx.fmt, snan=v.maybe_snan)
        if v.lo is not None and v.neg_zero:
            value = dataclasses.replace(value, neg_zero=True)
        may = extra_may | (FPFlag.INVALID if v.maybe_snan else FPFlag.NONE)
        return TransferResult(value, may, must)
    lo_clamped = v.lo
    if lo_clamped.is_negative and not lo_clamped.is_zero:
        lo_clamped = SoftFloat.zero(ctx.fmt, 1 if v.neg_zero else 0)
    points = [lo_clamped, v.hi]
    if v.pos_zero:
        points.append(SoftFloat.zero(ctx.fmt, 0))
    if v.neg_zero:
        points.append(SoftFloat.zero(ctx.fmt, 1))
    candidates, corner_flags, every = _probe_corners("sqrt", [points], ctx)
    result = _assemble(
        ctx.fmt, candidates, corner_flags,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=v.maybe_snan,
        rounding_op=True,
        extra_may=extra_may,
    )
    return TransferResult(result.value, result.may, must)


def _transfer_minmax(
    op: str, a: AbstractValue, b: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    """754-2008 minNum/maxNum: a single quiet NaN operand yields the
    *other* operand, so a NaN-possible side forces a hull with the
    other side's whole range."""
    maybe_snan = a.maybe_snan or b.maybe_snan
    may = FPFlag.INVALID if maybe_snan else FPFlag.NONE
    maybe_nan = (a.maybe_nan and b.maybe_nan) or maybe_snan
    if a.lo is None and b.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=maybe_snan), may, FPFlag.NONE
        )
    if a.lo is None or b.lo is None or a.maybe_nan or b.maybe_nan:
        ranged = [v for v in (a, b) if v.lo is not None]
        hull = ranged[0] if len(ranged) == 1 else ranged[0].join(ranged[1])
        value = AbstractValue(
            ctx.fmt, hull.lo, hull.hi,
            maybe_nan=maybe_nan, maybe_snan=maybe_snan,
            pos_zero=a.pos_zero or b.pos_zero,
            neg_zero=a.neg_zero or b.neg_zero,
        )
        return TransferResult(value, may, FPFlag.NONE)
    candidates, corner_flags, every = _probe_corners(
        op, [a.probe_points(), b.probe_points()], ctx
    )
    return _assemble(
        ctx.fmt, candidates, corner_flags | may,
        ctx=ctx,
        every_flags=every,
        maybe_nan=maybe_nan,
        maybe_snan=maybe_snan,
        rounding_op=False,
    )


def _transfer_rem(
    a: AbstractValue, b: AbstractValue, ctx: AnalysisContext
) -> TransferResult:
    """IEEE remainder is always exact; ``|rem(x, y)| <= |y|/2`` (nearest
    integer quotient) and ``|rem(x, y)| <= |x|`` bound the range."""
    maybe_snan = a.maybe_snan or b.maybe_snan
    maybe_nan = a.maybe_nan or b.maybe_nan
    extra_may = FPFlag.NONE
    if a.can_inf or b.can_zero:
        maybe_nan = True
        extra_may |= FPFlag.INVALID
    if a.lo is None or b.lo is None:
        return TransferResult(
            AbstractValue.nan_only(ctx.fmt, snan=maybe_snan),
            extra_may | (FPFlag.INVALID if maybe_snan else FPFlag.NONE),
            FPFlag.NONE,
        )
    fmt = ctx.fmt
    max_finite = SoftFloat.max_finite(fmt)
    _, up = ctx.probe_envs()
    if b.can_inf:
        m = _min_sf([a.max_magnitude(), max_finite])
    else:
        half_b, _ = probe_op(
            "mul", b.max_magnitude(), parse_softfloat("0.5", fmt), env=up
        )
        m = _min_sf([half_b, a.max_magnitude(), max_finite])
    candidates = [-m, m]
    result = _assemble(
        fmt, candidates, FPFlag.NONE,
        ctx=ctx,
        maybe_nan=maybe_nan,
        maybe_snan=maybe_snan,
        rounding_op=False,
        extra_may=extra_may,
        extra_pos_zero=a.sign_pos_possible,
        extra_neg_zero=a.sign_neg_possible,
    )
    return result
