"""Spans around each layer's public entry points, recorded in memory.

The benchmark does not rely on spans inside the program: it wraps the
entry points it names (a function, or a method of a class) from the
outside, for the duration of a traced pass only.  Each wrapped call
records one span (start, end, parent, thread) and adds to per-probe
totals; a probe's *self* time is its duration minus the time of the
wrapped calls it made.  Coroutine entry points record an interval
only: they interleave on one thread, so they take no part in self time
but do count towards the wall time a layer covered.

Spans stay in memory (up to a cap; later ones still count towards the
totals but are not kept) and are written out once, when the benchmark
ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable


#: Modules whose by-name imports of a wrapped function are redirected.
_PATCHED_PACKAGES = ("repro", "perfbench")


class ProbeError(Exception):
    """A probe target is missing, or a required probe saw no call."""


@dataclasses.dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``hook(counters, arguments, result)`` may add to the probe's named
    counters after each call; ``arguments`` maps parameter names to the
    call's values.
    """

    name: str
    target: str
    hook: Callable[[dict, dict, Any], None] | None = None


class _ThreadState:
    __slots__ = ("thread", "stack", "calls", "total", "self_", "counters",
                 "spans", "top")

    def __init__(self, n: int) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_ = [0.0] * n
        self.counters: list[dict] = [{} for _ in range(n)]
        self.spans: list[tuple] = []
        #: intervals of outermost spans (and of every coroutine span)
        self.top: list[tuple[float, float]] = []


class Recorder:
    """Collects spans from every thread; read with :meth:`summary`."""

    def __init__(self, probes: list[Probe], max_spans: int = 200_000) -> None:
        self.probes = list(probes)
        self.max_spans = max_spans
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._installed: list[tuple[Callable, Callable, Any, str]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self.probes))
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _sync_wrapper(self, index: int, fn: Callable) -> Callable:
        hook = self.probes[index].hook
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter
        seq = self._seq
        cap = self.max_spans
        recorder = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or recorder._state()
            stack = state.stack
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(seq)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                state.calls[index] += 1
                state.total[index] += duration
                state.self_[index] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    state.top.append((start, end))
                if len(state.spans) < cap:
                    state.spans.append((frame[1], parent, index, start, end))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(state.counters[index], bound.arguments, result)
            return result

        return wrapper

    def _async_wrapper(self, index: int, fn: Callable) -> Callable:
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                state = recorder._state()
                state.calls[index] += 1
                state.total[index] += end - start
                state.top.append((start, end))
                if len(state.spans) < recorder.max_spans:
                    state.spans.append(
                        (next(recorder._seq), 0, index, start, end))

        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        """Wrap every probe target; raise :class:`ProbeError` if one is
        missing (a renamed or moved entry point must fail loudly)."""
        if self._installed:
            raise RuntimeError("probes already installed")
        try:
            for index, probe in enumerate(self.probes):
                self._install_one(index, probe)
        except Exception:
            self.uninstall()
            raise

    def _install_one(self, index: int, probe: Probe) -> None:
        module_name, _, path = probe.target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError) as exc:
            raise ProbeError(
                f"probe {probe.name}: cannot find {probe.target} ({exc!r})"
            ) from exc
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(index, original)
        else:
            wrapper = self._sync_wrapper(index, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._installed.append((original, wrapper, owner, attr))
            return
        # A function is also reachable through every module that
        # imported it by name: replace each such binding.
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(_PATCHED_PACKAGES):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((original, wrapper, mod, key))

    def uninstall(self) -> None:
        """Put every original back, including bindings made by modules
        imported while the probes were installed."""
        for original, wrapper, owner, attr in self._installed:
            if isinstance(owner, type):
                setattr(owner, attr, original)
        wrappers = {id(w): o for o, w, owner, _ in self._installed
                    if not isinstance(owner, type)}
        if wrappers:
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(_PATCHED_PACKAGES):
                    continue
                for key, value in list(vars(mod).items()):
                    original = wrappers.get(id(value))
                    if original is not None:
                        setattr(mod, key, original)
        self._installed = []

    # -- reading ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-probe calls, inclusive and self seconds, counters, and the
        outermost intervals, merged over all threads."""
        with self._lock:
            states = list(self._states)
        out: dict[str, dict] = {}
        for index, probe in enumerate(self.probes):
            counters: dict[str, float] = {}
            for state in states:
                for key, value in state.counters[index].items():
                    counters[key] = counters.get(key, 0) + value
            out[probe.name] = {
                "calls": sum(s.calls[index] for s in states),
                "total_s": sum(s.total[index] for s in states),
                "self_s": sum(s.self_[index] for s in states),
                "counters": counters,
            }
        intervals = sorted(iv for s in states for iv in s.top)
        spans = sum(len(s.spans) for s in states)
        return {
            "probes": out,
            "intervals": intervals,
            "spans": spans,
        }

    def write_spans(self, handle) -> int:
        """Write every kept span to ``handle`` as one JSON line each;
        returns the count."""
        with self._lock:
            states = list(self._states)
        names = [p.name for p in self.probes]
        count = 0
        for state in states:
            for seq, parent, index, start, end in state.spans:
                handle.write(json.dumps({
                    "id": seq, "parent": parent, "name": names[index],
                    "start": start, "end": end, "thread": state.thread,
                }) + "\n")
                count += 1
        return count


def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def check_required(summary: dict, required: tuple[str, ...]) -> None:
    """Fail the traced run if a layer it must exercise recorded no call."""
    silent = [name for name in required
              if summary["probes"][name]["calls"] == 0]
    if silent:
        raise ProbeError(
            "probes recorded zero calls on a workload that must exercise"
            f" them: {', '.join(silent)}"
        )
