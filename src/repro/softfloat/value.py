"""The :class:`SoftFloat` value type.

A ``SoftFloat`` is an immutable bit pattern in a given
:class:`~repro.softfloat.formats.FloatFormat`.  All arithmetic is
performed by pure-Python integer algorithms with correct rounding and
full IEEE exception semantics (see :mod:`repro.softfloat.arith` and
friends); the operators on this class simply dispatch there using the
thread's active :class:`~repro.fpenv.FPEnv`.

Comparison semantics follow IEEE 754, not Python conventions: ``==`` is
the quiet equality predicate, so a NaN compares unequal to itself — the
subject of the paper's *Identity* question — and ``-0.0 == 0.0`` is true
(*Negative Zero*).  Use :meth:`same_bits` for representation identity.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from repro.errors import FormatError
from repro.softfloat.formats import BINARY64, FloatFormat

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpenv.env import FPEnv

__all__ = ["SoftFloat", "FPClass"]


class FPClass(enum.Enum):
    """IEEE 754 ``class()`` operation result."""

    SIGNALING_NAN = "signalingNaN"
    QUIET_NAN = "quietNaN"
    NEGATIVE_INFINITY = "negativeInfinity"
    NEGATIVE_NORMAL = "negativeNormal"
    NEGATIVE_SUBNORMAL = "negativeSubnormal"
    NEGATIVE_ZERO = "negativeZero"
    POSITIVE_ZERO = "positiveZero"
    POSITIVE_SUBNORMAL = "positiveSubnormal"
    POSITIVE_NORMAL = "positiveNormal"
    POSITIVE_INFINITY = "positiveInfinity"


Operand = Union["SoftFloat", int, float]


class SoftFloat:
    """An immutable IEEE-754 binary floating point value.

    Construct via the classmethods (:meth:`from_bits`, :meth:`from_float`,
    :meth:`from_int`, :meth:`from_fraction`, :meth:`from_str`) or the
    convenience wrappers in :mod:`repro.softfloat`.
    """

    __slots__ = ("_fmt", "_bits")

    def __init__(self, fmt: FloatFormat, bits: int) -> None:
        if not 0 <= bits < (1 << fmt.width):
            raise FormatError(f"bit pattern 0x{bits:x} out of range for {fmt}")
        object.__setattr__(self, "_fmt", fmt)
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("SoftFloat is immutable")

    # ------------------------------------------------------------------
    # Raw accessors
    # ------------------------------------------------------------------
    @property
    def fmt(self) -> FloatFormat:
        """The value's format."""
        return self._fmt

    @property
    def bits(self) -> int:
        """The raw encoding as an unsigned integer."""
        return self._bits

    @property
    def sign(self) -> int:
        """Sign bit: 0 positive, 1 negative (NaNs carry a sign too)."""
        return self._bits >> self._fmt.sign_shift

    @property
    def biased_exp(self) -> int:
        """Raw biased exponent field."""
        return (self._bits >> self._fmt.frac_bits) & self._fmt.max_biased_exp

    @property
    def frac(self) -> int:
        """Raw trailing significand field."""
        return self._bits & self._fmt.sig_mask

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    # Each class is a range of the magnitude ``bits & abs_mask``:
    # 0 is zero, below ``hidden_bit`` subnormal, below ``inf_mag``
    # normal, ``inf_mag`` itself infinity, and above it NaN.  Every
    # property reads the magnitude once and calls no other property.
    @property
    def is_nan(self) -> bool:
        """True for quiet and signaling NaNs."""
        fmt = self._fmt
        return self._bits & fmt.abs_mask > fmt.inf_mag

    @property
    def is_quiet_nan(self) -> bool:
        """True for quiet NaNs (quiet bit set)."""
        fmt = self._fmt
        mag = self._bits & fmt.abs_mask
        return mag > fmt.inf_mag and bool(mag & fmt.quiet_bit)

    @property
    def is_signaling_nan(self) -> bool:
        """True for signaling NaNs (quiet bit clear, payload nonzero)."""
        fmt = self._fmt
        mag = self._bits & fmt.abs_mask
        return mag > fmt.inf_mag and not mag & fmt.quiet_bit

    @property
    def is_inf(self) -> bool:
        """True for ±infinity."""
        fmt = self._fmt
        return self._bits & fmt.abs_mask == fmt.inf_mag

    @property
    def is_zero(self) -> bool:
        """True for ±0."""
        return not self._bits & self._fmt.abs_mask

    @property
    def is_subnormal(self) -> bool:
        """True for nonzero subnormals (the 'denormalized numbers')."""
        fmt = self._fmt
        return 0 < self._bits & fmt.abs_mask < fmt.hidden_bit

    @property
    def is_normal(self) -> bool:
        """True for normal finite nonzero values."""
        fmt = self._fmt
        return fmt.hidden_bit <= self._bits & fmt.abs_mask < fmt.inf_mag

    @property
    def is_finite(self) -> bool:
        """True for zeros, subnormals, and normals."""
        fmt = self._fmt
        return self._bits & fmt.abs_mask < fmt.inf_mag

    @property
    def is_negative(self) -> bool:
        """True when the sign bit is set (including -0 and -NaN)."""
        return self._bits >> self._fmt.sign_shift == 1

    def classify(self) -> FPClass:
        """IEEE 754 ``class()``: the ten-way classification."""
        if self.is_signaling_nan:
            return FPClass.SIGNALING_NAN
        if self.is_nan:
            return FPClass.QUIET_NAN
        if self.is_inf:
            return (
                FPClass.NEGATIVE_INFINITY if self.sign else FPClass.POSITIVE_INFINITY
            )
        if self.is_zero:
            return FPClass.NEGATIVE_ZERO if self.sign else FPClass.POSITIVE_ZERO
        if self.is_subnormal:
            return (
                FPClass.NEGATIVE_SUBNORMAL if self.sign else FPClass.POSITIVE_SUBNORMAL
            )
        return FPClass.NEGATIVE_NORMAL if self.sign else FPClass.POSITIVE_NORMAL

    # ------------------------------------------------------------------
    # Exact value access
    # ------------------------------------------------------------------
    def significand_value(self) -> tuple[int, int]:
        """Finite value as ``(mantissa, exp2)``: magnitude = mant * 2**exp2.

        Zeros return ``(0, emin - frac_bits)``, the subnormal scale.
        Raises :class:`FormatError` for non-finite values.
        """
        fmt = self._fmt
        mag = self._bits & fmt.abs_mask
        if mag >= fmt.inf_mag:
            raise FormatError(f"{self!r} has no finite value")
        if mag < fmt.hidden_bit:
            return mag, fmt.emin - fmt.frac_bits
        exp2 = (mag >> fmt.frac_bits) - fmt.bias - fmt.frac_bits
        return (mag & fmt.sig_mask) | fmt.hidden_bit, exp2

    def to_fraction(self) -> Fraction:
        """Exact rational value of a finite SoftFloat."""
        mant, exp2 = self.significand_value()
        if self.sign:
            mant = -mant
        if exp2 >= 0:
            return Fraction(mant * (1 << exp2))
        return Fraction(mant, 1 << (-exp2))

    def to_float(self) -> float:
        """Convert to the host's binary64 ``float``.

        Exact for binary64 and narrower standard formats; wider formats
        are correctly rounded (flags are *not* raised — this is an
        observation, not an operation).
        """
        from repro.softfloat.convert import softfloat_to_float

        return softfloat_to_float(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, fmt: FloatFormat, bits: int) -> "SoftFloat":
        """Reinterpret a raw encoding."""
        return cls(fmt, bits)

    @classmethod
    def from_float(cls, value: float, fmt: FloatFormat = BINARY64) -> "SoftFloat":
        """Correctly rounded conversion from a host ``float``."""
        from repro.softfloat.convert import softfloat_from_float

        return softfloat_from_float(value, fmt)

    @classmethod
    def from_int(
        cls, value: int, fmt: FloatFormat = BINARY64, env: "FPEnv | None" = None
    ) -> "SoftFloat":
        """Correctly rounded conversion from an integer."""
        from repro.softfloat.convert import softfloat_from_int

        return softfloat_from_int(value, fmt, env=env)

    @classmethod
    def from_fraction(
        cls,
        value: Fraction,
        fmt: FloatFormat = BINARY64,
        env: "FPEnv | None" = None,
    ) -> "SoftFloat":
        """Correctly rounded conversion from an exact rational."""
        from repro.softfloat.convert import softfloat_from_fraction

        return softfloat_from_fraction(value, fmt, env=env)

    @classmethod
    def from_str(
        cls, text: str, fmt: FloatFormat = BINARY64, env: "FPEnv | None" = None
    ) -> "SoftFloat":
        """Correctly rounded conversion from a decimal or hex literal."""
        from repro.softfloat.parse import parse_softfloat

        return parse_softfloat(text, fmt, env=env)

    @classmethod
    def zero(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """±0 in the given format."""
        return cls(fmt, fmt.zero_bits(sign))

    @classmethod
    def one(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """±1 in the given format."""
        return cls(fmt, fmt.one_bits(sign))

    @classmethod
    def inf(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """±infinity in the given format."""
        return cls(fmt, fmt.inf_bits(sign))

    @classmethod
    def nan(
        cls, fmt: FloatFormat = BINARY64, sign: int = 0, payload: int = 0
    ) -> "SoftFloat":
        """A quiet NaN."""
        return cls(fmt, fmt.quiet_nan_bits(sign, payload))

    @classmethod
    def signaling_nan(
        cls, fmt: FloatFormat = BINARY64, sign: int = 0, payload: int = 1
    ) -> "SoftFloat":
        """A signaling NaN (payload must be nonzero)."""
        return cls(fmt, fmt.signaling_nan_bits(sign, payload))

    @classmethod
    def max_finite(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """Largest finite magnitude."""
        return cls(fmt, fmt.max_finite_bits(sign))

    @classmethod
    def min_normal(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """Smallest positive normal magnitude."""
        return cls(fmt, fmt.min_normal_bits(sign))

    @classmethod
    def min_subnormal(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "SoftFloat":
        """Smallest positive subnormal magnitude."""
        return cls(fmt, fmt.min_subnormal_bits(sign))

    # ------------------------------------------------------------------
    # Sign-bit operations (quiet: never raise flags, per IEEE 5.5.1)
    # ------------------------------------------------------------------
    def __neg__(self) -> "SoftFloat":
        return SoftFloat(self._fmt, self._bits ^ (1 << self._fmt.sign_shift))

    def __abs__(self) -> "SoftFloat":
        return SoftFloat(self._fmt, self._bits & self._fmt.abs_mask)

    def __pos__(self) -> "SoftFloat":
        return self

    def copysign(self, other: "SoftFloat") -> "SoftFloat":
        """This magnitude with ``other``'s sign (quiet)."""
        fmt = self._fmt
        mag = self._bits & fmt.abs_mask
        return SoftFloat(fmt, mag | (other.sign << fmt.sign_shift))

    # ------------------------------------------------------------------
    # Arithmetic operators (dispatch through the active environment)
    # ------------------------------------------------------------------
    def _coerce(self, other: Operand) -> "SoftFloat":
        if isinstance(other, SoftFloat):
            if other._fmt != self._fmt:
                raise FormatError(
                    f"mixed formats {self._fmt} and {other._fmt}; convert explicitly"
                )
            return other
        if isinstance(other, bool):
            raise TypeError("refusing to coerce bool to SoftFloat")
        if isinstance(other, int):
            return SoftFloat.from_int(other, self._fmt)
        if isinstance(other, float):
            return SoftFloat.from_float(other, self._fmt)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Operand) -> "SoftFloat":
        from repro.softfloat import arith

        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return arith.fp_add(self, rhs)

    def __radd__(self, other: Operand) -> "SoftFloat":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs + self

    def __sub__(self, other: Operand) -> "SoftFloat":
        from repro.softfloat import arith

        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return arith.fp_sub(self, rhs)

    def __rsub__(self, other: Operand) -> "SoftFloat":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: Operand) -> "SoftFloat":
        from repro.softfloat import arith

        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return arith.fp_mul(self, rhs)

    def __rmul__(self, other: Operand) -> "SoftFloat":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs * self

    def __truediv__(self, other: Operand) -> "SoftFloat":
        from repro.softfloat import arith

        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return arith.fp_div(self, rhs)

    def __rtruediv__(self, other: Operand) -> "SoftFloat":
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs / self

    # ------------------------------------------------------------------
    # Comparisons (IEEE semantics, not Python identity semantics)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:  # type: ignore[override]
        from repro.softfloat import compare

        if not isinstance(other, (SoftFloat, int, float)):
            return NotImplemented
        rhs = self._coerce(other)
        return compare.fp_eq(self, rhs)

    def __ne__(self, other: object) -> bool:  # type: ignore[override]
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other: Operand) -> bool:
        from repro.softfloat import compare

        return compare.fp_lt(self, self._coerce(other))

    def __le__(self, other: Operand) -> bool:
        from repro.softfloat import compare

        return compare.fp_le(self, self._coerce(other))

    def __gt__(self, other: Operand) -> bool:
        from repro.softfloat import compare

        return compare.fp_gt(self, self._coerce(other))

    def __ge__(self, other: Operand) -> bool:
        from repro.softfloat import compare

        return compare.fp_ge(self, self._coerce(other))

    def __hash__(self) -> int:
        # Hash by representation; fine even though == is IEEE equality
        # (equal values ±0 hash differently is *not* allowed, so fold -0).
        if self.is_zero:
            return hash((self._fmt.name, "zero"))
        return hash((self._fmt.name, self._bits))

    def same_bits(self, other: "SoftFloat") -> bool:
        """Representation identity: same format and same bit pattern.

        Unlike ``==`` this distinguishes +0 from -0 and holds for NaNs.
        """
        return self._fmt == other._fmt and self._bits == other._bits

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        from repro.softfloat.printing import format_softfloat

        return f"SoftFloat({self._fmt.name}, {format_softfloat(self)})"

    def __str__(self) -> str:
        from repro.softfloat.printing import format_softfloat

        return format_softfloat(self)

    def hex(self) -> str:
        """C99 ``%a``-style hexadecimal-significand form."""
        from repro.softfloat.printing import format_hex

        return format_hex(self)
