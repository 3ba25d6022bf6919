"""Sticky floating point exception flags.

IEEE 754 defines five exceptions.  We additionally track
``DENORMAL_RESULT`` — the "result of an operation was a denormalized
number" condition from the paper's suspicion quiz (Section II-D), which
real hardware exposes via the denormal/underflow status distinction.
"""

from __future__ import annotations

import enum

from repro.telemetry.events import flag_labels

__all__ = ["FPFlag", "FLAG_ORDER", "FLAGS_BY_VALUE", "flag_names", "flags_from_names"]


class FPFlag(enum.Flag):
    """Sticky exception flags, combinable with ``|``.

    The five IEEE 754 exceptions plus the denormal-result condition:

    - ``INVALID``: the operation had no usefully defined result and
      produced a (quiet) NaN — e.g. ``0.0/0.0``, ``inf - inf``,
      ``sqrt(-1.0)``, or an ordered comparison involving a NaN.
    - ``DIV_BY_ZERO``: an exact infinite result from finite operands,
      canonically ``1.0/0.0``.  Note the result is an infinity, *not* a
      NaN — the crux of the paper's *Divide By Zero* question.
    - ``OVERFLOW``: the rounded result exceeded the largest finite value
      and saturated to an infinity (or to the largest finite value,
      depending on rounding direction).
    - ``UNDERFLOW``: the result was tiny (subnormal range) *and* inexact.
    - ``INEXACT``: the result required rounding.
    - ``DENORMAL_RESULT``: the delivered result was a nonzero subnormal.
    """

    NONE = 0
    INVALID = enum.auto()
    DIV_BY_ZERO = enum.auto()
    OVERFLOW = enum.auto()
    UNDERFLOW = enum.auto()
    INEXACT = enum.auto()
    DENORMAL_RESULT = enum.auto()

    ALL = INVALID | DIV_BY_ZERO | OVERFLOW | UNDERFLOW | INEXACT | DENORMAL_RESULT
    #: The five exceptions defined by IEEE 754 itself.
    IEEE = INVALID | DIV_BY_ZERO | OVERFLOW | UNDERFLOW | INEXACT


#: Every flag set, indexed by its value: ``FLAGS_BY_VALUE[a.value | b.value]``
#: is ``a | b`` without the Python-level ``enum.Flag`` operator call, and
#: a backend's per-lane flag byte maps to its set by one index.  Entries
#: are the canonical members, so ``is FPFlag.NONE`` tests still hold.
FLAGS_BY_VALUE: tuple[FPFlag, ...] = tuple(
    FPFlag(value) for value in range(FPFlag.ALL.value + 1)
)


#: Canonical display order for reports (matches the suspicion quiz order:
#: overflow, underflow, precision/inexact, invalid, denorm).
FLAG_ORDER: tuple[FPFlag, ...] = (
    FPFlag.OVERFLOW,
    FPFlag.UNDERFLOW,
    FPFlag.INEXACT,
    FPFlag.INVALID,
    FPFlag.DENORMAL_RESULT,
    FPFlag.DIV_BY_ZERO,
)


def flag_names(flags: FPFlag) -> list[str]:
    """Decompose a flag set into a sorted list of lowercase names.

    >>> flag_names(FPFlag.INVALID | FPFlag.INEXACT)
    ['inexact', 'invalid']
    """
    return list(flag_labels(flags))


def flags_from_names(names: list[str] | tuple[str, ...]) -> FPFlag:
    """Rebuild a flag set from :func:`flag_names` output (its inverse).

    >>> flags_from_names(['inexact', 'invalid']) == (
    ...     FPFlag.INVALID | FPFlag.INEXACT)
    True
    """
    flags = FPFlag.NONE
    for name in names:
        flags |= FPFlag[name.upper()]
    return flags
