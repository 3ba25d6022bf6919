"""Directed-rounding entry points for sound outward bounds.

The primitive behind every outward-rounded bound in the package: "run
one softfloat operation under roundTowardNegative /
roundTowardPositive and tell me what happened".  Because every rounded
result lies between the round-down and round-up values of the exact
result, endpoint pairs computed here bracket the concrete result under
*any* rounding direction — which is what makes the static interval
domain sound for all five modes at once.  The domain's corner probe
(:func:`repro.staticfp.domain._probe_corners`) is the one place that
runs an operation over every corner under both directions;
:class:`repro.interval.Interval` takes ``*`` and ``/`` from it and
rounds its monotone ``+``, ``-`` and ``sqrt`` endpoints here directly.

The probe environments are plain :class:`~repro.fpenv.FPEnv` instances
(optionally carrying FTZ/DAZ so abrupt-underflow configurations are
bracketed with their own flush semantics) whose sticky flags callers
may inspect after the probe.
"""

from __future__ import annotations

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.arith import fp_add, fp_div, fp_mul, fp_remainder, fp_sub
from repro.softfloat.fma import fp_fma
from repro.softfloat.functions import fp_max, fp_min
from repro.softfloat.sqrt import fp_sqrt
from repro.softfloat.value import SoftFloat

__all__ = ["PROBE_OPS", "down_env", "up_env", "probe_op"]

#: Operation table used by probes (name -> callable taking operands+env).
PROBE_OPS = {
    "add": fp_add,
    "sub": fp_sub,
    "mul": fp_mul,
    "div": fp_div,
    "rem": fp_remainder,
    "min": fp_min,
    "max": fp_max,
    "sqrt": fp_sqrt,
    "fma": fp_fma,
}


def down_env(*, ftz: bool = False, daz: bool = False) -> FPEnv:
    """A fresh roundTowardNegative environment (lower endpoints)."""
    return FPEnv(rounding=RoundingMode.TOWARD_NEGATIVE, ftz=ftz, daz=daz)


def up_env(*, ftz: bool = False, daz: bool = False) -> FPEnv:
    """A fresh roundTowardPositive environment (upper endpoints)."""
    return FPEnv(rounding=RoundingMode.TOWARD_POSITIVE, ftz=ftz, daz=daz)


def probe_op(
    name: str, *operands: SoftFloat, env: FPEnv
) -> tuple[SoftFloat, FPFlag]:
    """Run one named operation in ``env`` and return ``(result, flags)``.

    Flags are the sticky bits the single operation raised (the
    environment's flags are cleared first, so probes compose).
    """
    env.clear_flags()
    result = PROBE_OPS[name](*operands, env)
    return result, env.flags
