"""Closed-interval arithmetic with outward (directed) rounding.

Endpoints are SoftFloats in a common format.  Every operation computes
the mathematically correct endpoint candidates, rounding the lower one
under roundTowardNegative and the upper under roundTowardPositive, so
the fundamental containment theorem holds::

    x in X and y in Y  =>  x op y in (X op Y)

``*`` and ``/`` take their candidates from the corner probe of the
static analyzer's domain (:mod:`repro.staticfp.domain`), and ``abs``,
``hull``, ``intersect`` and ``from_decimal`` are its transfer, join,
meet and literal abstraction; the monotone ``+``, ``-`` and ``sqrt``
round just the two endpoints that bound them.  That domain models
machine values; intervals model reals, hence two conventions:

- ``0 * inf`` is ``0`` inside a product (the zero endpoint dominates;
  IEEE 754 would say NaN), and an ``inf / inf`` quotient corner is
  dropped, since the other corners bound the reals it stands for.
- NaN endpoints are rejected, so division by an interval containing
  zero and the square root of a sign-crossing interval raise
  :class:`IntervalError` rather than widening to the whole line.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from repro.errors import ReproError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.softfloat import (
    BINARY64,
    SoftFloat,
    fp_add,
    fp_le,
    fp_mul,
    fp_sqrt,
    fp_sub,
    sf,
)
from repro.softfloat.directed import down_env, up_env
from repro.softfloat.formats import FloatFormat
from repro.staticfp.domain import (
    AbstractValue,
    AnalysisContext,
    _max_sf,
    _min_sf,
    _probe_corners,
    _transfer_abs,
)

__all__ = ["Interval", "IntervalError"]


class IntervalError(ReproError, ValueError):
    """Ill-formed interval or undefined interval operation."""


@dataclasses.dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` of softfloat endpoints."""

    lo: SoftFloat
    hi: SoftFloat

    def __post_init__(self) -> None:
        if self.lo.fmt != self.hi.fmt:
            raise IntervalError("endpoints must share a format")
        if self.lo.is_nan or self.hi.is_nan:
            raise IntervalError("NaN endpoint")
        if not fp_le(self.lo, self.hi, FPEnv()):
            raise IntervalError(
                f"empty interval: lo={self.lo!s} > hi={self.hi!s}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_value(
        cls, value: object, fmt: FloatFormat = BINARY64
    ) -> "Interval":
        """Degenerate interval from an exactly-representable value."""
        point = sf(value, fmt)
        return cls(point, point)

    @classmethod
    def from_decimal(
        cls, text: str, fmt: FloatFormat = BINARY64
    ) -> "Interval":
        """Tightest interval enclosing a decimal literal (the two
        correctly rounded directed conversions)."""
        value = AbstractValue.from_literal(text, fmt)
        if value.lo is None:
            raise IntervalError(f"NaN endpoint: {text!r}")
        return cls(value.lo, value.hi)

    @classmethod
    def from_bounds(
        cls, lo: object, hi: object, fmt: FloatFormat = BINARY64
    ) -> "Interval":
        """Interval from two endpoint values."""
        return cls(sf(lo, fmt), sf(hi, fmt))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fmt(self) -> FloatFormat:
        """Endpoint format."""
        return self.lo.fmt

    @property
    def is_point(self) -> bool:
        """True for a degenerate (zero-width) interval."""
        return self.lo.same_bits(self.hi) or (
            self.lo.is_zero and self.hi.is_zero
        )

    def contains(self, value: SoftFloat) -> bool:
        """Is the (non-NaN) value inside the interval?"""
        if value.is_nan:
            return False
        env = FPEnv()
        return fp_le(self.lo, value, env) and fp_le(value, self.hi, env)

    def contains_value(self, value: object) -> bool:
        """Convenience: membership of a plain number."""
        return self.contains(sf(value, self.fmt))

    def contains_fraction(self, value: Fraction) -> bool:
        """Exact membership of a rational (endpoints compared exactly)."""
        if self.lo.is_inf and self.lo.sign:
            lo_ok = True
        else:
            lo_ok = self.lo.to_fraction() <= value
        if self.hi.is_inf and not self.hi.sign:
            hi_ok = True
        else:
            hi_ok = value <= self.hi.to_fraction()
        return lo_ok and hi_ok

    def width(self) -> SoftFloat:
        """Upper-rounded endpoint difference."""
        return fp_sub(self.hi, self.lo, up_env())

    def width_ulps(self) -> float:
        """Width in units of the last place at the interval's magnitude
        (inf for unbounded intervals)."""
        if self.lo.is_inf or self.hi.is_inf:
            return float("inf")
        from repro.softfloat.functions import ulp

        bigger = self.hi if fp_le(abs(self.lo), abs(self.hi), FPEnv()) \
            else self.lo
        gap = ulp(bigger).to_fraction()
        span = self.hi.to_fraction() - self.lo.to_fraction()
        try:
            return float(span / gap)
        except OverflowError:
            return float("inf")

    def midpoint(self) -> SoftFloat:
        """A representative value inside the interval."""
        half = fp_mul(
            fp_add(self.lo, self.hi, FPEnv()), sf(0.5, self.fmt), FPEnv()
        )
        if self.contains(half):
            return half
        return self.lo  # inf-endpoint corner: fall back to an endpoint

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        other = self._coerce(other)
        return Interval(
            fp_add(self.lo, other.lo, down_env()),
            fp_add(self.hi, other.hi, up_env()),
        )

    def __sub__(self, other: "Interval") -> "Interval":
        other = self._coerce(other)
        return Interval(
            fp_sub(self.lo, other.hi, down_env()),
            fp_sub(self.hi, other.lo, up_env()),
        )

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        other = self._coerce(other)
        candidates, flags = self._corners("mul", other)
        if flags & FPFlag.INVALID:  # a 0 * inf corner: 0 by convention
            candidates.append(SoftFloat.zero(self.fmt))
        return Interval(_min_sf(candidates), _max_sf(candidates))

    def __truediv__(self, other: "Interval") -> "Interval":
        other = self._coerce(other)
        if other.contains(SoftFloat.zero(self.fmt)):
            raise IntervalError(
                f"division by an interval containing zero: {other}"
            )
        candidates, _ = self._corners("div", other)  # inf/inf dropped
        if not candidates:
            raise IntervalError(f"no defined quotient: {self} / {other}")
        return Interval(_min_sf(candidates), _max_sf(candidates))

    def sqrt(self) -> "Interval":
        """Interval square root (requires a non-negative interval)."""
        if self.lo.is_negative and not self.lo.is_zero:
            raise IntervalError(f"sqrt of sign-crossing interval {self}")
        return Interval(
            fp_sqrt(self.lo, down_env()),
            fp_sqrt(self.hi, up_env()),
        )

    def abs(self) -> "Interval":
        """Interval absolute value."""
        return self._interval(_transfer_abs(self._abstract()).value)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        other = self._coerce(other)
        return self._interval(self._abstract().join(other._abstract()))

    def intersect(self, other: "Interval") -> "Interval":
        """Intersection; raises IntervalError when disjoint."""
        other = self._coerce(other)
        met = self._abstract().meet(other._abstract())
        if met is None:
            raise IntervalError(f"disjoint intervals {self} and {other}")
        return self._interval(met)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _coerce(self, other: object) -> "Interval":
        if isinstance(other, Interval):
            if other.fmt != self.fmt:
                raise IntervalError("mixed-format interval arithmetic")
            return other
        return Interval.from_value(other, self.fmt)  # type: ignore[arg-type]

    def _corners(
        self, op: str, other: "Interval"
    ) -> tuple[list[SoftFloat], FPFlag]:
        """Non-NaN results of ``op`` on every endpoint pair under both
        directed roundings, and the flags the probes raised."""
        return _probe_corners(
            op, [[self.lo, self.hi], [other.lo, other.hi]],
            AnalysisContext(self.fmt),
        )[:2]

    def _abstract(self) -> AbstractValue:
        return AbstractValue.from_range(self.lo, self.hi)

    @staticmethod
    def _interval(value: AbstractValue) -> "Interval":
        return Interval(value.lo, value.hi)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: object) -> "Interval":
        return self._coerce(other) - self

    def __rtruediv__(self, other: object) -> "Interval":
        return self._coerce(other) / self

    def __str__(self) -> str:
        return f"[{self.lo!s}, {self.hi!s}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.lo!s}, {self.hi!s})"
