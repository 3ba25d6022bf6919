"""The FP-exception event stream.

Every flag-raise the environment layer observes becomes an
:class:`FPExceptionEvent` — a FlowFPX-style *exception coordinate*
carrying the operation, the raised flags, a monotonically increasing
sequence number, and (when tracing is active) the span path at which
it occurred.  An :class:`ExceptionStream` fans events out to any
number of subscriber *sinks* (plain callables), so one run can feed a
bounded in-memory log, a JSONL file, and a live counter at once.

:class:`BoundedEventLog` is the standard retention sink: a
``collections.deque(maxlen=capacity)`` ring (O(1) eviction — the
original ``TracingEnv`` used ``list.pop(0)``, quadratic at capacity)
plus guaranteed retention of the *first* occurrence of each distinct
flag, the piece of evidence a debugger wants most.

This module deliberately does not import :mod:`repro.fpenv`: flags are
handled as generic :class:`enum.Flag` values (single-bit members are
decomposed structurally), which keeps the dependency arrow pointing
from the environment layer into telemetry and never back.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Any, Callable, Iterable

__all__ = [
    "FPExceptionEvent",
    "ExceptionStream",
    "BoundedEventLog",
    "flag_labels",
    "single_flags",
]


#: Memoized single-bit decompositions, keyed by the flag value itself
#: (``enum.Flag`` composites are canonicalized singletons, so instance
#: identity is a safe key and avoids any per-call allocation).  Flag
#: raises are the hottest telemetry path — a conformance sweep emits
#: one per raising operation — and the set of distinct flag
#: combinations per run is tiny, so iterating the enum once per
#: combination (instead of once per raise) is nearly free.
_DECOMPOSED: dict[enum.Flag, tuple[enum.Flag, ...]] = {}


def _decompose(flags: enum.Flag) -> tuple[enum.Flag, ...]:
    members = _DECOMPOSED.get(flags)
    if members is None:
        members = _DECOMPOSED[flags] = tuple(
            member for member in type(flags)
            if member.value and not (member.value & (member.value - 1))
            and member in flags
        )
    return members


def single_flags(flags: enum.Flag) -> Iterable[enum.Flag]:
    """The single-bit members set in ``flags`` (composites skipped)."""
    return iter(_decompose(flags))


#: Memoized name tuples (see ``_DECOMPOSED`` for why caching per flag
#: combination pays: every event export and per-flag counter reads one).
_FLAG_LABELS: dict[enum.Flag, tuple[str, ...]] = {}


def flag_labels(flags: enum.Flag) -> tuple[str, ...]:
    """The sorted lowercase names of the single-bit members set in
    ``flags`` — the exported vocabulary of events, per-flag counters
    and service responses.  Generic over any :class:`enum.Flag` (the
    stream also carries engine fault flags) and memoized, so repeated
    calls with one value return the same tuple.

    >>> import enum
    >>> class F(enum.Flag):
    ...     A = 1
    ...     B = 2
    >>> flag_labels(F.B | F.A)
    ('a', 'b')
    """
    labels = _FLAG_LABELS.get(flags)
    if labels is None:
        labels = _FLAG_LABELS[flags] = tuple(sorted(
            member.name.lower() for member in _decompose(flags)
        ))
    return labels


@dataclasses.dataclass(slots=True)
class FPExceptionEvent:
    """One flag-raise, as an attributable coordinate.

    The first three fields match the legacy ``TraceEvent`` layout so
    existing positional constructions keep working.  Treat instances
    as immutable: they are constructed on the hottest instrumented
    path (one per raising operation), where a ``frozen`` dataclass's
    ``object.__setattr__``-per-field construction cost is measurable.
    """

    sequence: int
    operation: str
    flags: enum.Flag
    fmt: str | None = None
    span_path: str | None = None

    def render(self) -> str:
        names = ",".join(flag_labels(self.flags))
        return f"#{self.sequence} {self.operation}: {names}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "fp_event",
            "sequence": self.sequence,
            "operation": self.operation,
            "flags": list(flag_labels(self.flags)),
            "fmt": self.fmt,
            "span": self.span_path,
        }


class ExceptionStream:
    """Assigns sequence numbers and fans events out to subscribers."""

    def __init__(self) -> None:
        self._sequence = 0
        self._sinks: list[Callable[[FPExceptionEvent], None]] = []

    def subscribe(self, sink: Callable[[FPExceptionEvent], None]) -> None:
        """Register ``sink`` (called with every future event)."""
        self._sinks.append(sink)

    def unsubscribe(self, sink: Callable[[FPExceptionEvent], None]) -> None:
        self._sinks.remove(sink)

    @property
    def subscriber_count(self) -> int:
        return len(self._sinks)

    @property
    def emitted(self) -> int:
        """Total events emitted (independent of any sink's retention)."""
        return self._sequence

    def record(
        self,
        operation: str,
        flags: enum.Flag,
        *,
        fmt: str | None = None,
        span_path: str | None = None,
    ) -> FPExceptionEvent:
        """Build the next event and deliver it to every subscriber."""
        self._sequence += 1
        event = FPExceptionEvent(
            self._sequence, operation, flags, fmt=fmt, span_path=span_path
        )
        for sink in self._sinks:
            sink(event)
        return event


class BoundedEventLog:
    """Ring-buffer sink with first-occurrence-per-flag retention."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: collections.deque[FPExceptionEvent] = collections.deque(
            maxlen=capacity
        )
        self._first_by_flag: dict[enum.Flag, FPExceptionEvent] = {}

    def __call__(self, event: FPExceptionEvent) -> None:
        self._events.append(event)
        first = self._first_by_flag
        for member in _decompose(event.flags):
            if member not in first:
                first[member] = event

    @property
    def events(self) -> tuple[FPExceptionEvent, ...]:
        """Retained events, oldest first (bounded by capacity)."""
        return tuple(self._events)

    def first_occurrence(self, flag: enum.Flag) -> FPExceptionEvent | None:
        """The first event that raised ``flag`` (never evicted)."""
        return self._first_by_flag.get(flag)

    def count(self, flag: enum.Flag) -> int:
        """Number of retained events that raised ``flag``."""
        return sum(1 for event in self._events if flag & event.flags)

    def render(self, limit: int = 20) -> str:
        """The first occurrences plus the most recent events."""
        lines = ["first occurrences:"]
        for flag, event in sorted(
            self._first_by_flag.items(), key=lambda kv: kv[1].sequence
        ):
            name = (flag.name or "?").lower()
            lines.append(f"  {name:<16} {event.render()}")
        if not self._first_by_flag:
            lines.append("  (none)")
        recent = list(self._events)[-limit:]
        lines.append(f"most recent {len(recent)} event(s):")
        lines.extend(f"  {event.render()}" for event in recent)
        return "\n".join(lines)
