"""Native fast path: host hardware floats where provably scalar-identical.

Monniaux's catalog of verification pitfalls (double rounding, x87
extended intermediates, FTZ/DAZ mode leakage) is exactly the list of
ways "just use the hardware" silently diverges from IEEE semantics, so
this backend is deliberately narrow:

- **binary32** add/sub/mul/div/sqrt, computed in ``float64`` and rounded
  once to ``float32``.  This is sound because ``53 >= 2*24 + 2``: by the
  classic double-rounding bound (Figueroa), rounding the correctly
  rounded binary64 result to binary32 equals rounding the exact result
  directly.  Sticky flags are reconstructed from *exact* float64
  identities (the 48-bit significand product, ``q*b == a``,
  ``r*r == a``), never from the hardware status word.
- **binary64** add/sub, with exactness detected by a branch-free Knuth
  TwoSum (no spurious overflow when the sum itself does not overflow).

Everything else — other formats, directed rounding, FTZ/DAZ, and lane
environments — is declined.  Any lane holding a NaN, infinity, or zero
(or a negative radicand) never reaches the hardware, so NaN payload
propagation never depends on host NaN semantics: such *special* lanes
go to the batch kernels when there are more than
:data:`BATCH_SPECIALS_ABOVE` of them, else to the scalar reference.
With telemetry enabled, the lanes handed to scalar are counted under
``softfloat.scalar_fallback_lanes_total{op,format}``.

The backend refuses to run at all unless :func:`host_fastpath_report`
proves the host: no x87-style double rounding on a discriminating
witness, FTZ and DAZ both off, and round-to-nearest-even in effect.
See GOTCHAS.md ("Double rounding and the x87") for the failure modes
each probe detects.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.backend import (
    BatchResult,
    ScalarBackend,
    SoftFloatBackend,
    get_backend,
    is_lane_env,
)
from repro.softfloat.formats import BINARY32, BINARY64, FloatFormat
from repro.telemetry.runtime import get_telemetry

__all__ = ["NativeBackend", "host_fastpath_report", "host_fastpath_ok"]

F_OVERFLOW = np.uint8(FPFlag.OVERFLOW.value)
F_UNDERFLOW = np.uint8(FPFlag.UNDERFLOW.value)
F_INEXACT = np.uint8(FPFlag.INEXACT.value)
F_DENORMAL = np.uint8(FPFlag.DENORMAL_RESULT.value)

#: Special lanes go to the batch kernels when a call has more than this
#: many, else to the scalar reference.  Measured on a 2-vCPU x86-64 host
#: (RNE, best of 30): scalar costs 4–6 µs per special lane, a batch call
#: a near-flat 210–400 µs, so the two tie at ~42 lanes (binary32 mul,
#: div), ~55 (binary32 sqrt) and ~62 (binary32 and binary64 add).
BATCH_SPECIALS_ABOVE = 40


@functools.lru_cache(maxsize=1)
def host_fastpath_report() -> dict[str, bool]:
    """Probe the host float pipeline for the hazards that would make the
    native fast path diverge from correctly rounded IEEE semantics.

    - ``double_rounding_free``: ``1 + (2^-53 + 2^-77)`` must round up to
      ``1 + 2^-52``.  An x87-style pipeline that first rounds to 64-bit
      extended precision lands on a tie and breaks it to even — ``1.0``
      — so this single witness discriminates extended intermediates.
    - ``ftz_off`` / ``daz_off``: subnormal results and operands must
      survive arithmetic (MXCSR FTZ/DAZ bits would flush them).
    - ``rne_default``: three directed-mode witnesses that only
      round-to-nearest-even satisfies simultaneously.
    """
    with np.errstate(all="ignore"):
        dr_free = bool(
            np.float64(1.0) + np.float64(2.0**-53 + 2.0**-77)
            == np.float64(1.0 + 2.0**-52)
        )
        ftz_result = np.float32(2.0**-126) * np.float32(0.5)
        ftz_off = float(ftz_result) == 2.0**-127
        tiny32 = np.float32(1.0e-45)  # smallest positive binary32 subnormal
        daz_off = bool(tiny32 * np.float32(1.0) == tiny32) and float(tiny32) != 0.0
        rne = (
            bool(np.float64(1.0) + np.float64(2.0**-53) == np.float64(1.0))
            and bool(np.float64(-1.0) - np.float64(2.0**-60) == np.float64(-1.0))
            and bool(
                np.float64(1.0 + 2.0**-52) + np.float64(2.0**-53)
                == np.float64(1.0 + 2.0**-51)
            )
        )
    report = {
        "double_rounding_free": dr_free,
        "ftz_off": ftz_off,
        "daz_off": daz_off,
        "rne_default": rne,
    }
    report["ok"] = all(report.values())
    return report


def host_fastpath_ok() -> bool:
    """True when every host probe passed (cached)."""
    return host_fastpath_report()["ok"]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch-free Knuth TwoSum: ``s + err == a + b`` exactly (for lanes
    whose sum does not overflow)."""
    s = a + b
    bp = s - a
    ap = s - bp
    eb = b - bp
    ea = a - ap
    return s, ea + eb


def _subnormal32(r: np.ndarray) -> np.ndarray:
    bits = r.view(np.uint32)
    return (((bits >> 23) & np.uint32(0xFF)) == 0) & ((bits & np.uint32(0x7FFFFF)) != 0)


def _subnormal64(r: np.ndarray) -> np.ndarray:
    bits = r.view(np.uint64)
    return (((bits >> np.uint64(52)) & np.uint64(0x7FF)) == 0) & (
        (bits & np.uint64((1 << 52) - 1)) != 0
    )


class NativeBackend(SoftFloatBackend):
    """Hardware floats on provably safe lanes, scalar everywhere else."""

    name = "native"

    def __init__(self) -> None:
        self._scalar = ScalarBackend()
        self._batch = get_backend("batch")

    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        if is_lane_env(mode, ftz, daz):
            return False
        if mode is not RoundingMode.NEAREST_EVEN or ftz or daz:
            return False
        if not host_fastpath_ok():
            return False
        if fmt == BINARY32:
            return op in ("add", "sub", "mul", "div", "sqrt")
        if fmt == BINARY64:
            return op in ("add", "sub")
        return False

    def run_packed(
        self,
        op: str,
        fmt: FloatFormat,
        operands: Sequence[np.ndarray],
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> BatchResult:
        if not self.supports(op, fmt, mode, ftz, daz, dst_fmt):
            raise ValueError(f"native backend does not support {op} on {fmt.name}")
        arrays = [np.asarray(o, dtype=np.uint64) for o in operands]
        n = int(arrays[0].shape[0])
        bits_out = np.zeros(n, dtype=np.uint64)
        flags_out = np.zeros(n, dtype=np.uint8)

        # Hardware only touches "generic" lanes: every operand finite and
        # nonzero (and strictly positive for sqrt).  NaN payloads, signed
        # zeros, infinities, and the invalid/div-by-zero special cases
        # all take the scalar reference path.
        if fmt == BINARY32:
            vals = [a.astype(np.uint32).view(np.float32) for a in arrays]
            finite_nonzero = np.ones(n, dtype=bool)
            for v in vals:
                finite_nonzero &= np.isfinite(v) & (v != 0)
            if op == "sqrt":
                finite_nonzero &= vals[0] > 0
            generic = finite_nonzero
            if generic.any():
                g_bits, g_flags = self._run32(op, [v[generic] for v in vals])
                bits_out[generic] = g_bits
                flags_out[generic] = g_flags
        else:  # BINARY64 add/sub
            vals = [a.view(np.float64) for a in arrays]
            generic = (
                np.isfinite(vals[0])
                & (vals[0] != 0)
                & np.isfinite(vals[1])
                & (vals[1] != 0)
            )
            if generic.any():
                g_bits, g_flags = self._run64(op, [v[generic] for v in vals])
                bits_out[generic] = g_bits
                flags_out[generic] = g_flags

        special = ~generic
        n_special = int(special.sum())
        if n_special > BATCH_SPECIALS_ABOVE and self._batch.supports(
                op, fmt, mode, ftz, daz, dst_fmt):
            fallback = self._batch
        else:
            fallback = self._scalar
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "softfloat.scalar_fallback_lanes_total", op=op,
                    format=fmt.name,
                ).inc(n_special)
        if n_special:
            sub = fallback.run_packed(
                op, fmt, [a[special] for a in arrays], mode, ftz, daz, dst_fmt
            )
            bits_out[special] = sub.bits
            flags_out[special] = sub.flags
        return BatchResult(bits_out, flags_out)

    # ------------------------------------------------------------------
    def _run32(self, op: str, vals: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            wide = [v.astype(np.float64) for v in vals]
            m = vals[0].shape[0]
            flags = np.zeros(m, dtype=np.uint8)
            if op in ("add", "sub"):
                a64, b64 = wide[0], (wide[1] if op == "add" else -wide[1])
                s, err = _two_sum(a64, b64)
                r32 = s.astype(np.float32)
                inexact = np.isinf(r32) | (r32.astype(np.float64) != s) | (err != 0)
                overflow = np.isinf(r32)
                # Hauser: a float addition that underflows is exact, so
                # tiny results never raise inexact/underflow here.
            elif op == "mul":
                p64 = wide[0] * wide[1]  # exact: 24+24 significand bits
                r32 = p64.astype(np.float32)
                inexact = r32.astype(np.float64) != p64
                overflow = np.isinf(r32)
                tiny = np.abs(p64) < 2.0**-126
                flags[tiny & inexact] |= F_UNDERFLOW
            elif op == "div":
                q64 = wide[0] / wide[1]
                r32 = q64.astype(np.float32)
                # Exact iff the widened quotient reconstructs the
                # dividend; r*b is a 48-bit product, exact in float64.
                inexact = r32.astype(np.float64) * wide[1] != wide[0]
                overflow = np.isinf(r32)
                tiny = np.abs(wide[0]) < np.abs(wide[1]) * 2.0**-126
                flags[tiny & inexact] |= F_UNDERFLOW
            else:  # sqrt
                r64 = np.sqrt(wide[0])
                r32 = r64.astype(np.float32)
                w = r32.astype(np.float64)
                inexact = w * w != wide[0]  # 48-bit square, exact in float64
                overflow = np.zeros(m, dtype=bool)
            flags[inexact] |= F_INEXACT
            flags[overflow] |= F_OVERFLOW | F_INEXACT
            flags[_subnormal32(r32)] |= F_DENORMAL
            return r32.view(np.uint32).astype(np.uint64), flags

    def _run64(self, op: str, vals: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            a, b = vals[0], (vals[1] if op == "add" else -vals[1])
            m = a.shape[0]
            flags = np.zeros(m, dtype=np.uint8)
            s, err = _two_sum(a, b)
            overflow = np.isinf(s)
            inexact = overflow | (err != 0)
            flags[inexact] |= F_INEXACT
            flags[overflow] |= F_OVERFLOW | F_INEXACT
            flags[_subnormal64(s)] |= F_DENORMAL
            return s.view(np.uint64).copy(), flags
