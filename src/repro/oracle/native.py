"""Third opinion: the host hardware's IEEE implementation via numpy.

Where the format is one the host natively implements (binary32 and
binary64) and the environment is the hardware default (round to nearest
even, no FTZ/DAZ), the runner also computes those evaluations on native
floats and compares result *bits*.  The check is columnar: one
:func:`native_result_bits` call takes a window's operand columns and
returns its result column, and :func:`native_agrees` compares two
columns lane by lane.  Exception flags are not observable from Python,
and NaN payload propagation is hardware-specific, so the native check
compares values only and treats all NaNs as one value — it is a sanity
cross-check on both the engine and the oracle, not a full conformance
judge.

``fma`` has no native implementation available here (``math.fma``
arrived in Python 3.13 and numpy exposes none), so it is skipped.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.softfloat.formats import BINARY32, BINARY64, FloatFormat

__all__ = ["native_supported", "native_result_bits", "native_agrees"]

_DTYPES = {
    BINARY32.name: (np.float32, np.uint32),
    BINARY64.name: (np.float64, np.uint64),
}

_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "sqrt": np.sqrt,
}


def native_supported(op: str, fmt: FloatFormat) -> bool:
    """True when the host can render a verdict for this op/format."""
    return fmt.name in _DTYPES and op in _OPS


def native_result_bits(op: str, fmt: FloatFormat,
                       columns: Sequence[np.ndarray]) -> np.ndarray:
    """Compute a column of cases on host hardware.

    ``columns`` holds one array of encodings per operand; the result is
    the column of result encodings as ``uint64``.  Only for an op and
    format :func:`native_supported` accepts.
    """
    if not native_supported(op, fmt):
        raise ValueError(f"no native {op} for {fmt.name}")
    float_t, uint_t = _DTYPES[fmt.name]
    values = [column.astype(uint_t).view(float_t) for column in columns]
    with np.errstate(all="ignore"):
        result = _OPS[op](*values)
    return result.view(uint_t).astype(np.uint64)


def native_agrees(fmt: FloatFormat, native_bits: np.ndarray,
                  engine_bits: np.ndarray) -> np.ndarray:
    """Value agreement per lane: bit identity, with every NaN one
    value."""
    exp_mask = np.uint64(fmt.max_biased_exp << fmt.frac_bits)
    sig_mask = np.uint64(fmt.sig_mask)

    def _is_nan(bits: np.ndarray) -> np.ndarray:
        return ((bits & exp_mask) == exp_mask) & ((bits & sig_mask) != 0)

    return (native_bits == engine_bits) | (_is_nan(native_bits)
                                           & _is_nan(engine_bits))
