"""The floating point environment: mode bits plus sticky status flags.

An :class:`FPEnv` bundles everything that parameterizes softfloat
operations besides their operands:

- the rounding direction,
- FTZ (flush results that would be subnormal to zero) and DAZ (treat
  subnormal inputs as zero) — the non-standard Intel control bits the
  paper's *Flush to Zero* optimization question asks about,
- sticky exception flags, and
- trap enable masks: a trapped flag raises a Python exception instead of
  (in addition to) setting the sticky bit, modelling precise traps.

The active environment is thread-local; softfloat operations call
:func:`get_env` unless given an explicit ``env=``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from collections.abc import Iterator

from repro.errors import (
    DivisionByZeroTrap,
    FloatingPointTrap,
    InexactTrap,
    InvalidOperationTrap,
    OverflowTrap,
    UnderflowTrap,
)
from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.telemetry.runtime import active_recorder

__all__ = [
    "FPEnv",
    "get_env",
    "set_env",
    "env_context",
    "rounding_context",
    "flush_to_zero_context",
]

_TRAP_CLASSES: dict[FPFlag, type[FloatingPointTrap]] = {
    FPFlag.INVALID: InvalidOperationTrap,
    FPFlag.DIV_BY_ZERO: DivisionByZeroTrap,
    FPFlag.OVERFLOW: OverflowTrap,
    FPFlag.UNDERFLOW: UnderflowTrap,
    FPFlag.INEXACT: InexactTrap,
    FPFlag.DENORMAL_RESULT: FloatingPointTrap,
}


@dataclasses.dataclass
class FPEnv:
    """Mutable floating point environment.

    Attributes
    ----------
    rounding:
        Active rounding direction (default round-to-nearest-even).
    ftz:
        Flush-to-zero: results that would be subnormal are replaced by a
        correctly signed zero.  Non-standard; defaults off.
    daz:
        Denormals-are-zero: subnormal *inputs* are treated as signed
        zeros.  Non-standard; defaults off.
    flags:
        Sticky exception flags accumulated since the last clear.
    traps:
        Flags whose occurrence raises a :class:`FloatingPointTrap`.
    recorder:
        Telemetry hook (see :mod:`repro.telemetry.recorder`).  Defaults
        to the active telemetry session's recorder — ``None`` when
        telemetry is off, so every instrumented site reduces to one
        attribute test.  Metrics hooks live *here*, on the environment,
        rather than inside the softfloat operations: the env already
        flows through every operation, so instrumentation follows it
        for free (including into scoped/copied environments) without
        per-operation branching.
    """

    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    ftz: bool = False
    daz: bool = False
    flags: FPFlag = FPFlag.NONE
    traps: FPFlag = FPFlag.NONE
    recorder: object | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.recorder is None:
            self.recorder = active_recorder()

    def raise_flags(self, flags: FPFlag, operation: str = "<op>") -> None:
        """Set sticky ``flags``; raise if any of them is trap-enabled.

        The sticky bits are set *before* any trap fires, matching
        hardware where the status word records the exception even when a
        trap handler runs (and the telemetry event is emitted before
        the trap for the same reason — a trapped exception must still
        be observable).
        """
        if flags is FPFlag.NONE:
            return
        # Flag sets combine by table lookup on their values: the enum
        # operators are Python-level calls, and this runs once per
        # inexact operation.
        self.flags = FLAGS_BY_VALUE[self.flags._value_ | flags._value_]
        recorder = self.recorder
        if recorder is not None:
            recorder.record_flags(operation, flags)
        if flags._value_ & self.traps._value_:
            trapped = flags & self.traps
            for member, exc in _TRAP_CLASSES.items():
                if member in trapped:
                    raise exc(member, operation)

    def test_flag(self, flag: FPFlag) -> bool:
        """True if every bit of ``flag`` is set in the sticky flags."""
        return (self.flags & flag) == flag

    def any_flag(self, flags: FPFlag = FPFlag.ALL) -> bool:
        """True if any bit of ``flags`` is set."""
        return bool(self.flags & flags)

    def clear_flags(self, flags: FPFlag = FPFlag.ALL) -> None:
        """Clear the given sticky flags (all of them by default)."""
        self.flags = FLAGS_BY_VALUE[self.flags._value_ & ~flags._value_]

    def copy(self, *, clear: bool = False) -> "FPEnv":
        """Return an independent copy, optionally with flags cleared."""
        out = FPEnv(
            rounding=self.rounding,
            ftz=self.ftz,
            daz=self.daz,
            flags=FPFlag.NONE if clear else self.flags,
            traps=self.traps,
            recorder=self.recorder,
        )
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        from repro.fpenv.flags import flag_names

        bits = ",".join(flag_names(self.flags)) or "none"
        mode = self.rounding.value
        extras = "".join(
            f" {name}" for name, on in (("ftz", self.ftz), ("daz", self.daz)) if on
        )
        return f"FPEnv(rounding={mode}{extras}, flags=[{bits}])"


class _EnvState(threading.local):
    def __init__(self) -> None:
        self.stack: list[FPEnv] = [FPEnv()]


_STATE = _EnvState()


def get_env() -> FPEnv:
    """Return the thread's active floating point environment."""
    return _STATE.stack[-1]


def set_env(env: FPEnv) -> FPEnv:
    """Replace the thread's active environment; returns the previous one."""
    previous = _STATE.stack[-1]
    _STATE.stack[-1] = env
    return previous


@contextlib.contextmanager
def env_context(
    env: FPEnv | None = None, *, install: bool = False, **overrides: object
) -> Iterator[FPEnv]:
    """Install ``env`` (or a fresh default) as the active environment.

    Keyword overrides are applied on top, e.g.
    ``env_context(rounding=RoundingMode.TOWARD_ZERO, ftz=True)``.
    The previous environment — including its sticky flags — is restored
    on exit, so monitored code cannot leak state into the caller.

    By default the given env is *copied*; pass ``install=True`` to make
    the block use the exact object (required for FPEnv subclasses such
    as :class:`repro.fpenv.trace.TracingEnv`, whose extra state a copy
    would lose).
    """
    if install and env is not None:
        new_env = env
    else:
        new_env = (env.copy() if env is not None else FPEnv())
    for key, value in overrides.items():
        if not hasattr(new_env, key):
            raise TypeError(f"FPEnv has no attribute {key!r}")
        setattr(new_env, key, value)
    _STATE.stack.append(new_env)
    try:
        yield new_env
    finally:
        _STATE.stack.pop()


@contextlib.contextmanager
def rounding_context(mode: RoundingMode) -> Iterator[FPEnv]:
    """Run a block under a different rounding direction.

    Flags raised inside the block *do* propagate to the enclosing
    environment (only the rounding attribute is scoped), matching
    ``fesetround``-style usage.
    """
    env = get_env()
    previous = env.rounding
    env.rounding = mode
    try:
        yield env
    finally:
        env.rounding = previous


@contextlib.contextmanager
def flush_to_zero_context(*, ftz: bool = True, daz: bool = True) -> Iterator[FPEnv]:
    """Temporarily set the non-standard FTZ/DAZ control bits."""
    env = get_env()
    prev = (env.ftz, env.daz)
    env.ftz, env.daz = ftz, daz
    try:
        yield env
    finally:
        env.ftz, env.daz = prev
