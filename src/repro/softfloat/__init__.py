"""A from-scratch, bit-exact IEEE 754 binary floating point engine.

This package is the substrate that makes every assertion in the paper's
quiz *executable*: arithmetic (§5.4 formatOf operations: add, subtract,
multiply, divide, fused multiply-add, square root, remainder),
comparisons with full NaN/signed-zero semantics, conversions, correctly
rounded decimal parsing/printing, and the recommended auxiliary
operations — all parameterized over arbitrary binary formats and a
thread-local :class:`~repro.fpenv.FPEnv` carrying rounding direction,
sticky exception flags, and the non-standard FTZ/DAZ controls.

Quick use::

    from repro.softfloat import BINARY64, sf

    a = sf(0.1) + sf(0.2)
    assert a != sf(0.3)          # the classic
    assert sf("nan") != sf("nan")  # Identity question

Host ``float`` is IEEE binary64, which the test suite exploits as a
differential oracle for the binary64 instantiation of this engine.
"""

from repro.softfloat.formats import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    E4M3,
    E5M2,
    STANDARD_FORMATS,
    TINY8,
    FloatFormat,
)
from repro.softfloat.value import FPClass, SoftFloat
from repro.softfloat.arith import fp_add, fp_div, fp_mul, fp_remainder, fp_sub
from repro.softfloat.fma import fp_fma
from repro.softfloat.sqrt import fp_sqrt
from repro.softfloat.compare import (
    Ordering,
    fp_compare_quiet,
    fp_compare_signaling,
    fp_eq,
    fp_ge,
    fp_gt,
    fp_le,
    fp_lt,
    fp_ne,
    fp_total_order,
    fp_unordered,
    total_order_key,
)
from repro.softfloat.convert import (
    convert_format,
    round_to_integral,
    softfloat_from_float,
    softfloat_from_fraction,
    softfloat_from_int,
    softfloat_to_float,
    softfloat_to_int,
)
from repro.softfloat.directed import down_env, probe_op, up_env
from repro.softfloat.backend import (
    BACKEND_OP_ARITY,
    BACKEND_OPS,
    AutoBackend,
    BatchResult,
    ScalarBackend,
    SoftFloatBackend,
    available_backends,
    get_backend,
)
from repro.softfloat.landmarks import special_bits, special_pairs, special_values
from repro.softfloat.parse import parse_softfloat
from repro.softfloat.printing import format_hex, format_softfloat
from repro.softfloat.augmented import (
    augmented_addition,
    augmented_multiplication,
)
from repro.softfloat.elementary import fp_hypot, fp_powi
from repro.softfloat.functions import (
    fp_ilogb,
    fp_max,
    fp_max_magnitude,
    fp_maximum,
    fp_min,
    fp_min_magnitude,
    fp_minimum,
    fp_scalb,
    next_after,
    next_down,
    next_up,
    significant_bits,
    ulp,
)

__all__ = [
    # formats
    "FloatFormat",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "BINARY128",
    "BFLOAT16",
    "E4M3",
    "E5M2",
    "TINY8",
    "STANDARD_FORMATS",
    # value
    "SoftFloat",
    "FPClass",
    "sf",
    # arithmetic
    "fp_add",
    "fp_sub",
    "fp_mul",
    "fp_div",
    "fp_remainder",
    "fp_fma",
    "fp_sqrt",
    "fp_hypot",
    "fp_powi",
    "augmented_addition",
    "augmented_multiplication",
    # comparison
    "Ordering",
    "fp_compare_quiet",
    "fp_compare_signaling",
    "fp_eq",
    "fp_ne",
    "fp_lt",
    "fp_le",
    "fp_gt",
    "fp_ge",
    "fp_unordered",
    "fp_total_order",
    "total_order_key",
    # conversion
    "convert_format",
    "softfloat_from_float",
    "softfloat_to_float",
    "softfloat_from_int",
    "softfloat_to_int",
    "softfloat_from_fraction",
    "round_to_integral",
    "parse_softfloat",
    "format_softfloat",
    "format_hex",
    "special_bits",
    "special_pairs",
    "special_values",
    # auxiliaries
    "next_up",
    "next_down",
    "next_after",
    "fp_min",
    "fp_max",
    "fp_minimum",
    "fp_maximum",
    "fp_min_magnitude",
    "fp_max_magnitude",
    "fp_scalb",
    "fp_ilogb",
    "ulp",
    "significant_bits",
    # backends
    "BACKEND_OPS",
    "BACKEND_OP_ARITY",
    "SoftFloatBackend",
    "BatchResult",
    "ScalarBackend",
    "AutoBackend",
    "available_backends",
    "get_backend",
    # directed rounding
    "down_env",
    "up_env",
    "probe_op",
]


def sf(value: object, fmt: FloatFormat = BINARY64) -> SoftFloat:
    """Convenience constructor: build a SoftFloat from a ``float``,
    ``int``, ``str`` literal, ``Fraction``, or another SoftFloat.

    Construction is quiet (no sticky flags) — it is how you *state*
    values, not an arithmetic operation.

    >>> sf(1.5) * sf(2)
    SoftFloat(binary64, 3.0)
    """
    from fractions import Fraction

    from repro.fpenv.env import FPEnv

    if isinstance(value, SoftFloat):
        if value.fmt == fmt:
            return value
        return convert_format(value, fmt, FPEnv())
    if isinstance(value, bool):
        raise TypeError("refusing to interpret bool as a float")
    if isinstance(value, float):
        return softfloat_from_float(value, fmt)
    if isinstance(value, int):
        return softfloat_from_int(value, fmt, FPEnv())
    if isinstance(value, Fraction):
        return softfloat_from_fraction(value, fmt, FPEnv())
    if isinstance(value, str):
        return parse_softfloat(value, fmt)
    raise TypeError(f"cannot build a SoftFloat from {type(value).__name__}")
