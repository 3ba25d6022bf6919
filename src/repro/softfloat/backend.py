"""Softfloat evaluation backends: one protocol, interchangeable engines.

Every hot consumer in the repo (the oracle runner, divergence search,
the quiz demonstration sweeps) bottoms out in the scalar shifted-mantissa
ops in this package.  A *backend* packages those semantics behind a batch
interface — arrays of packed encodings in, arrays of packed encodings
plus per-lane sticky flags out — so consumers can amortize Python
interpreter overhead across thousands of lanes without changing what a
single lane means.

Three implementations ship:

- :class:`ScalarBackend` — drives the existing per-value ops in a loop.
  Supports everything; the semantic reference.
- ``"batch"`` (:mod:`repro.softfloat.batch`) — numpy integer
  bit-twiddling over ``uint64`` lanes, vectorizing the round-and-pack
  pipeline for every rounding mode and FTZ/DAZ combination.
- ``"native"`` (:mod:`repro.softfloat.nativefast`) — host hardware
  floats, used only where a machine probe proves the host semantics
  match (see GOTCHAS.md on double rounding); falls back lane-wise to
  scalar for special values.

Backends are **contractually bit-identical**: for every supported
``(op, fmt, mode, ftz, daz)`` the packed result bits *and* the raised
flag byte must match :class:`ScalarBackend` lane for lane.  The
differential harness in ``tests/softfloat/test_backends.py`` enforces
this against the exact-rational oracle; a backend that cannot guarantee
identity for a combination must return ``False`` from
:meth:`SoftFloatBackend.supports` for it.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.fpenv.env import FPEnv
from repro.fpenv.rounding import RoundingMode
from repro.softfloat.arith import SCALAR_KERNELS as _ARITH_KERNELS
from repro.softfloat.compare import compare_code
from repro.softfloat.convert import convert_bits
from repro.softfloat.fma import SCALAR_KERNELS as _FMA_KERNELS
from repro.softfloat.formats import FloatFormat
from repro.softfloat.sqrt import SCALAR_KERNELS as _SQRT_KERNELS
from repro.softfloat.value import SoftFloat

__all__ = [
    "BACKEND_OPS",
    "BACKEND_OP_ARITY",
    "ORD_LESS",
    "ORD_EQUAL",
    "ORD_GREATER",
    "ORD_UNORDERED",
    "BatchResult",
    "SoftFloatBackend",
    "ScalarBackend",
    "AutoBackend",
    "lane_dtype",
    "available_backends",
    "get_backend",
]

#: Operations every backend may be asked about.  ``compare_*`` return
#: ordering codes (below) instead of encodings; ``convert`` takes a
#: destination format.
BACKEND_OPS: tuple[str, ...] = (
    "add",
    "sub",
    "mul",
    "div",
    "fma",
    "sqrt",
    "compare_quiet",
    "compare_signaling",
    "convert",
)

BACKEND_OP_ARITY: dict[str, int] = {
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "fma": 3,
    "sqrt": 1,
    "compare_quiet": 2,
    "compare_signaling": 2,
    "convert": 1,
}

#: Lane codes delivered by the ``compare_*`` operations (dense unsigned
#: values, unlike :class:`repro.softfloat.compare.Ordering` whose
#: ``UNORDERED`` is ``None``).
ORD_LESS, ORD_EQUAL, ORD_GREATER, ORD_UNORDERED = 0, 1, 2, 3

_SCALAR_KERNELS = {**_ARITH_KERNELS, **_FMA_KERNELS, **_SQRT_KERNELS}


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """One batched evaluation: per-lane packed bits and flag bytes.

    ``bits[i]`` is the packed encoding of lane ``i``'s result (or an
    ordering code for the compare operations); ``flags[i]`` is the
    ``FPFlag`` value the lane raised on a fresh environment.
    """

    bits: np.ndarray
    flags: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.shape != self.flags.shape:
            raise ValueError("bits and flags must have identical shapes")

    def __len__(self) -> int:
        return int(self.bits.shape[0])


class SoftFloatBackend(abc.ABC):
    """Batched evaluation engine for the softfloat operations.

    Implementations must be *bit-identical* to :class:`ScalarBackend`
    for every combination they claim to support, both in packed result
    bits and in the per-lane flag byte.
    """

    #: Registry / display name.
    name: str = "<abstract>"

    @abc.abstractmethod
    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        """True when :meth:`run_packed` can evaluate this combination
        with guaranteed scalar-identical semantics."""

    @abc.abstractmethod
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
        """Evaluate ``op`` lane-wise over arrays of packed encodings.

        ``operands`` holds one ``uint64`` array per operand (lengths
        equal); each lane is evaluated as if on a fresh environment with
        the given mode and FTZ/DAZ bits, and its sticky flags are
        delivered as a ``uint8`` lane in the result.
        """

    # Convenience shared by implementations and tests -----------------
    @staticmethod
    def as_lanes(values: Sequence[int]) -> np.ndarray:
        """Pack a sequence of Python ints into a ``uint64`` lane array."""
        return np.asarray(list(values), dtype=np.uint64)


def lane_dtype(*fmts: FloatFormat | None):
    """The array dtype that holds packed encodings of ``fmts``:
    ``uint64`` up to 64 bits, Python ints (``object``) beyond."""
    widest = max(f.width for f in fmts if f is not None)
    return np.uint64 if widest <= 64 else object


class ScalarBackend(SoftFloatBackend):
    """Reference backend: the existing per-value ops, looped.

    Supports every operation and format; other backends are tested (and
    defined) against it.  Formats wider than 64 bits (binary128) travel
    as ``object`` lanes (see :func:`lane_dtype`).
    """

    name = "scalar"

    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        if op == "convert":
            return dst_fmt is not None
        return op in BACKEND_OPS

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
        lane_type = lane_dtype(fmt, dst_fmt)
        arrays = [np.asarray(o, dtype=lane_type) for o in operands]
        if len(arrays) != BACKEND_OP_ARITY.get(op, -1):
            raise ValueError(f"{op} expects {BACKEND_OP_ARITY.get(op)} operands")
        n = int(arrays[0].shape[0])
        bits_out = np.zeros(n, dtype=lane_type)
        flags_out = np.zeros(n, dtype=np.uint8)

        if op in ("compare_quiet", "compare_signaling"):
            signaling = op == "compare_signaling"
            for i in range(n):
                env = FPEnv(rounding=mode, ftz=ftz, daz=daz)
                a = SoftFloat(fmt, int(arrays[0][i]))
                b = SoftFloat(fmt, int(arrays[1][i]))
                bits_out[i] = compare_code(a, b, env, signaling=signaling)
                flags_out[i] = env.flags.value
            return BatchResult(bits_out, flags_out)

        if op == "convert":
            if dst_fmt is None:
                raise ValueError("convert requires dst_fmt")
            for i in range(n):
                env = FPEnv(rounding=mode, ftz=ftz, daz=daz)
                bits_out[i] = convert_bits(int(arrays[0][i]), fmt, dst_fmt, env)
                flags_out[i] = env.flags.value
            return BatchResult(bits_out, flags_out)

        kernel = _SCALAR_KERNELS[op]
        for i in range(n):
            env = FPEnv(rounding=mode, ftz=ftz, daz=daz)
            args = [SoftFloat(fmt, int(a[i])) for a in arrays]
            bits_out[i] = kernel(*args, env).bits
            flags_out[i] = env.flags.value
        return BatchResult(bits_out, flags_out)


class AutoBackend(SoftFloatBackend):
    """Per-call dispatch: native where provably safe, else batch, else
    the scalar reference.  Always supports everything the scalar does."""

    name = "auto"

    def __init__(self) -> None:
        self._chain: list[SoftFloatBackend] = [
            get_backend("native"),
            get_backend("batch"),
            get_backend("scalar"),
        ]

    def select(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> SoftFloatBackend:
        """The backend this combination will actually run on."""
        for backend in self._chain:
            if backend.supports(op, fmt, mode, ftz, daz, dst_fmt):
                return backend
        return self._chain[-1]

    def supports(
        self,
        op: str,
        fmt: FloatFormat,
        mode: RoundingMode,
        ftz: bool,
        daz: bool,
        dst_fmt: FloatFormat | None = None,
    ) -> bool:
        return self._chain[-1].supports(op, fmt, mode, ftz, daz, dst_fmt)

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
        backend = self.select(op, fmt, mode, ftz, daz, dst_fmt)
        return backend.run_packed(op, fmt, operands, mode, ftz, daz, dst_fmt)


_INSTANCES: dict[str, SoftFloatBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return ("scalar", "batch", "native", "auto")


def get_backend(spec: str | SoftFloatBackend) -> SoftFloatBackend:
    """Resolve a backend by name (``scalar``, ``batch``, ``native``,
    ``auto``) or pass an instance through.  Instances are cached — the
    backends are stateless."""
    if isinstance(spec, SoftFloatBackend):
        return spec
    if spec in _INSTANCES:
        return _INSTANCES[spec]
    if spec == "scalar":
        backend: SoftFloatBackend = ScalarBackend()
    elif spec == "batch":
        from repro.softfloat.batch import BatchBackend

        backend = BatchBackend()
    elif spec == "native":
        from repro.softfloat.nativefast import NativeBackend

        backend = NativeBackend()
    elif spec == "auto":
        backend = AutoBackend()
    else:
        raise ValueError(
            f"unknown backend {spec!r}; expected one of {available_backends()}"
        )
    _INSTANCES[spec] = backend
    return backend
