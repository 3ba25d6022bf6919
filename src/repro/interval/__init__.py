"""Interval arithmetic over the softfloat engine.

An extension in the spirit of the paper's conclusions: a developer who
distrusts rounding can run a computation on *intervals* — every
operation rounds the lower endpoint toward −inf and the upper endpoint
toward +inf, so the true real-arithmetic result is always enclosed.
Wide output intervals are the rounding-sensitivity signal the suspicion
quiz asks about, delivered per-value instead of per-run.

This is also the natural consumer of the directed rounding modes the
softfloat engine implements (most developers never touch them — one
more thing the survey suggests they couldn't describe).  ``Interval``
is a thin layer over the static analyzer's interval domain
(:mod:`repro.staticfp.domain`) with two conventions of its own:
``0 * inf`` is ``0`` inside a product, and division by a
zero-containing interval or the square root of a sign-crossing one
raises :class:`IntervalError` instead of widening.

>>> from repro.interval import Interval
>>> x = Interval.from_value(0.1)      # the double nearest 0.1, exactly
>>> total = x + x + x
>>> total.contains_value(0.30000000000000004)
True
>>> total.width_ulps() <= 4
True
"""

from repro.interval.interval import Interval, IntervalError
from repro.interval.evaluate import interval_evaluate

__all__ = ["Interval", "IntervalError", "interval_evaluate"]
