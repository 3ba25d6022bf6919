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

The environment may travel as lanes
-----------------------------------
``mode``, ``ftz`` and ``daz`` are each either one value for the whole
call (a :class:`RoundingMode`, a ``bool``) or an array with one entry
per lane: ``mode`` as a ``uint8`` array of :data:`MODE_CODES`, ``ftz``
and ``daz`` as ``bool`` arrays.  Either way each lane is evaluated as if
on a fresh environment with its own mode and FTZ/DAZ bits, so one call
can serve a whole rounding × FTZ × DAZ matrix.  Lane arrays are plain
data: ``if ftz:`` raises on one and ``mode is X`` is always False, so
code that branches on the environment tests :func:`is_lane_env` (or
``isinstance(..., np.ndarray)``) first.  ``supports`` answers for a lane
environment as a whole; the native tier declines every one.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
from collections.abc import Iterator, Sequence

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
from repro.telemetry.runtime import get_telemetry

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
    "MODE_CODES",
    "MODES_BY_CODE",
    "is_lane_env",
    "lane_dtype",
    "lane_env",
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

#: Rounding mode by lane code, and the code of each mode: the ``uint8``
#: values a lane-array ``mode`` argument carries.
MODES_BY_CODE: tuple[RoundingMode, ...] = tuple(RoundingMode)
MODE_CODES: dict[RoundingMode, int] = {
    mode: code for code, mode in enumerate(MODES_BY_CODE)
}

_SCALAR_KERNELS = {**_ARITH_KERNELS, **_FMA_KERNELS, **_SQRT_KERNELS}


def is_lane_env(mode, ftz, daz) -> bool:
    """True when any environment argument is a lane array rather than
    one value for the whole call."""
    return (isinstance(mode, np.ndarray) or isinstance(ftz, np.ndarray)
            or isinstance(daz, np.ndarray))


def lane_env(n: int, mode, ftz, daz) -> tuple:
    """Check an environment for an ``n``-lane call and return it with
    its lane arrays coerced (``mode`` to ``uint8`` codes, ``ftz`` and
    ``daz`` to ``bool``); single values pass through unchanged."""
    if not is_lane_env(mode, ftz, daz):
        return mode, ftz, daz
    out = []
    for name, value, dtype in (("mode", mode, np.uint8), ("ftz", ftz, bool),
                               ("daz", daz, bool)):
        if isinstance(value, np.ndarray):
            if value.shape != (n,):
                raise ValueError(
                    f"{name} lanes have shape {value.shape}, operands have {n}")
            value = value.astype(dtype, copy=False)
        out.append(value)
    return tuple(out)


def _fresh_envs(n: int, mode, ftz, daz) -> Iterator[FPEnv]:
    """One fresh :class:`FPEnv` per lane, from one value or a lane
    array per environment argument."""
    mode, ftz, daz = lane_env(n, mode, ftz, daz)
    modes = ([MODES_BY_CODE[code] for code in mode.tolist()]
             if isinstance(mode, np.ndarray) else itertools.repeat(mode, n))
    ftzs = ftz.tolist() if isinstance(ftz, np.ndarray) else itertools.repeat(ftz, n)
    dazs = daz.tolist() if isinstance(daz, np.ndarray) else itertools.repeat(daz, n)
    return (FPEnv(rounding=lane_mode, ftz=lane_ftz, daz=lane_daz)
            for lane_mode, lane_ftz, lane_daz in zip(modes, ftzs, dazs))


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
        delivered as a ``uint8`` lane in the result.  ``mode``, ``ftz``
        and ``daz`` are each one value for every lane or a lane array
        of the operands' length (:data:`MODE_CODES` for ``mode``,
        ``bool`` for the flush bits); see the module docstring.
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
        if len(operands) != BACKEND_OP_ARITY.get(op, -1):
            raise ValueError(f"{op} expects {BACKEND_OP_ARITY.get(op)} operands")
        # One list per operand in, one array per output out: per-lane
        # numpy indexing and stores cost more than the op itself.
        columns = [np.asarray(o, dtype=lane_type).tolist() for o in operands]
        envs = _fresh_envs(len(columns[0]), mode, ftz, daz)
        bits_out: list[int] = []
        flags_out: list[int] = []

        if op in ("compare_quiet", "compare_signaling"):
            signaling = op == "compare_signaling"
            for env, a, b in zip(envs, *columns, strict=True):
                bits_out.append(compare_code(SoftFloat(fmt, a), SoftFloat(fmt, b),
                                             env, signaling=signaling))
                flags_out.append(env.flags.value)
        elif op == "convert":
            if dst_fmt is None:
                raise ValueError("convert requires dst_fmt")
            for env, a in zip(envs, columns[0], strict=True):
                bits_out.append(convert_bits(a, fmt, dst_fmt, env))
                flags_out.append(env.flags.value)
        else:
            kernel = _SCALAR_KERNELS[op]
            for env, *lane in zip(envs, *columns, strict=True):
                bits_out.append(kernel(*[SoftFloat(fmt, x) for x in lane], env).bits)
                flags_out.append(env.flags.value)
        return BatchResult(np.array(bits_out, dtype=lane_type),
                           np.array(flags_out, dtype=np.uint8))


class AutoBackend(SoftFloatBackend):
    """Per-call dispatch: native where provably safe, else batch, else
    the scalar reference.  Always supports everything the scalar does.

    With telemetry enabled, each call counts its lanes under
    ``softfloat.lanes_total{op,format,backend}`` and itself under
    ``softfloat.calls_total{op,format,backend}`` (the tier that served
    it), so lanes per call read straight off a metrics snapshot.
    """

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
        """The backend this combination will actually run on.  A lane
        environment is one combination: native declines it, so it runs
        on batch where batch covers the op and format, else scalar."""
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
        telemetry = get_telemetry()
        if telemetry.enabled:
            labels = {"op": op, "format": fmt.name, "backend": backend.name}
            telemetry.metrics.counter(
                "softfloat.lanes_total", **labels).inc(len(operands[0]))
            telemetry.metrics.counter("softfloat.calls_total", **labels).inc()
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
