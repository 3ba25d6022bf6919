"""IEEE 754 comparison predicates.

Two families, per the standard (§5.6.1 / §5.11):

- *quiet* predicates (``fp_eq``, ``fp_ne``, :func:`fp_compare_quiet`)
  raise *invalid* only for signaling NaN operands;
- *signaling* predicates (``fp_lt``, ``fp_le``, ``fp_gt``, ``fp_ge``)
  raise *invalid* for **any** NaN operand, because an ordered comparison
  of unordered values is meaningless.

Both families return ``False`` from every ordered predicate when a NaN
is involved — which is exactly why ``a == a`` can be false (*Identity*)
— and treat ``-0`` and ``+0`` as equal (*Negative Zero*).
"""

from __future__ import annotations

import enum

from repro.fpenv.env import FPEnv, get_env
from repro.fpenv.flags import FPFlag
from repro.softfloat.value import SoftFloat

__all__ = [
    "Ordering",
    "ORDERING_CODES",
    "compare_code",
    "fp_compare_quiet",
    "fp_compare_signaling",
    "fp_eq",
    "fp_ne",
    "fp_lt",
    "fp_le",
    "fp_gt",
    "fp_ge",
    "fp_unordered",
    "total_order_key",
    "fp_total_order",
]


class Ordering(enum.Enum):
    """Four-way comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNORDERED = None


def _ordered_compare(a: SoftFloat, b: SoftFloat) -> Ordering:
    """Compare two non-NaN values of one format.

    Within a sign the encodings are ordered as unsigned integers, so
    the magnitudes ``bits & abs_mask`` compare directly.
    """
    abs_mask = a.fmt.abs_mask
    mag_a, mag_b = a.bits & abs_mask, b.bits & abs_mask
    if not (mag_a or mag_b):
        return Ordering.EQUAL  # +0 == -0
    sign_a, sign_b = a.sign, b.sign
    if sign_a != sign_b:
        return Ordering.LESS if sign_a else Ordering.GREATER
    if mag_a == mag_b:
        return Ordering.EQUAL
    if sign_a:  # both negative: larger magnitude is smaller
        return Ordering.GREATER if mag_a < mag_b else Ordering.LESS
    return Ordering.LESS if mag_a < mag_b else Ordering.GREATER


def fp_compare_quiet(
    a: SoftFloat, b: SoftFloat, env: FPEnv | None = None
) -> Ordering:
    """Quiet four-way comparison; NaNs yield ``UNORDERED`` and raise
    *invalid* only when signaling."""
    if a.is_signaling_nan or b.is_signaling_nan:
        (env or get_env()).raise_flags(FPFlag.INVALID, "compare")
        return Ordering.UNORDERED
    if a.is_nan or b.is_nan:
        return Ordering.UNORDERED
    return _ordered_compare(a, b)


def fp_compare_signaling(
    a: SoftFloat, b: SoftFloat, env: FPEnv | None = None
) -> Ordering:
    """Signaling four-way comparison; any NaN raises *invalid*."""
    if a.is_nan or b.is_nan:
        (env or get_env()).raise_flags(FPFlag.INVALID, "compare")
        return Ordering.UNORDERED
    return _ordered_compare(a, b)


#: Dense unsigned lane codes for the four-way comparison result, shared
#: with the batched backends (``Ordering.UNORDERED`` is ``None`` and so
#: cannot ride in an integer lane).
ORDERING_CODES: dict[Ordering, int] = {
    Ordering.LESS: 0,
    Ordering.EQUAL: 1,
    Ordering.GREATER: 2,
    Ordering.UNORDERED: 3,
}


def compare_code(
    a: SoftFloat,
    b: SoftFloat,
    env: FPEnv | None = None,
    *,
    signaling: bool = False,
) -> int:
    """Four-way comparison delivered as a dense integer code (see
    :data:`ORDERING_CODES`); the backend-protocol form of the compare
    predicates."""
    if signaling:
        return ORDERING_CODES[fp_compare_signaling(a, b, env)]
    return ORDERING_CODES[fp_compare_quiet(a, b, env)]


def fp_eq(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Quiet equality: ``compareQuietEqual``.  NaN != anything."""
    return fp_compare_quiet(a, b, env) is Ordering.EQUAL


def fp_ne(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Quiet inequality (true when unordered)."""
    return fp_compare_quiet(a, b, env) is not Ordering.EQUAL


def fp_lt(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Signaling less-than."""
    return fp_compare_signaling(a, b, env) is Ordering.LESS


def fp_le(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Signaling less-or-equal."""
    return fp_compare_signaling(a, b, env) in (Ordering.LESS, Ordering.EQUAL)


def fp_gt(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Signaling greater-than."""
    return fp_compare_signaling(a, b, env) is Ordering.GREATER


def fp_ge(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """Signaling greater-or-equal."""
    return fp_compare_signaling(a, b, env) in (Ordering.GREATER, Ordering.EQUAL)


def fp_unordered(a: SoftFloat, b: SoftFloat, env: FPEnv | None = None) -> bool:
    """True when the operands do not compare (at least one NaN)."""
    return fp_compare_quiet(a, b, env) is Ordering.UNORDERED


def total_order_key(x: SoftFloat) -> int:
    """Monotone integer key realizing IEEE 754 ``totalOrder``.

    Orders ``-NaN < -inf < ... < -0 < +0 < ... < +inf < +NaN`` with NaNs
    ordered by payload.  Never raises flags.
    """
    if x.sign:
        return -x.bits
    return x.bits + 1  # keep +0 strictly above -0


def fp_total_order(a: SoftFloat, b: SoftFloat) -> bool:
    """IEEE 754 ``totalOrder(a, b)``: true iff ``a`` precedes-or-equals
    ``b`` in the total ordering."""
    return total_order_key(a) <= total_order_key(b)
