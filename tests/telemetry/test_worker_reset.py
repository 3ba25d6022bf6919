"""Per-process telemetry isolation (the fork-safety regression).

A forked worker inherits the parent's ambient telemetry session (the
context variable's entry) by value; recording into those copied sinks
is silent data loss.  These tests pin the PID guard in
:mod:`repro.telemetry.runtime`: an inherited session must read as NULL
in the child, and ``reset_for_process`` must give workers an explicit
clean slate.
"""

import multiprocessing
import os

from repro.telemetry import (
    NULL_TELEMETRY,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry import runtime
from repro.telemetry.runtime import active_recorder, reset_for_process


def _pretend_forked() -> None:
    """Make the installed session look like it came from another PID."""
    runtime._AMBIENT.get().pid = os.getpid() + 1


class TestPidGuard:
    def test_stale_pid_drops_inherited_session(self):
        with telemetry_session() as session:
            assert get_telemetry() is session
            _pretend_forked()
            assert get_telemetry() is NULL_TELEMETRY
            # and the drop is sticky, not re-evaluated every call
            assert runtime._AMBIENT.get().current is NULL_TELEMETRY

    def test_stale_pid_drops_active_recorder(self):
        with telemetry_session() as session:
            assert active_recorder() is session.recorder
            _pretend_forked()
            assert active_recorder() is None

    def test_disabled_session_skips_pid_check(self):
        # NULL_TELEMETRY stays active regardless of the recorded pid:
        # the disabled hot path must not pay (or be confused by) the
        # fork guard.
        previous = set_telemetry(NULL_TELEMETRY)
        try:
            _pretend_forked()
            assert get_telemetry() is NULL_TELEMETRY
            assert active_recorder() is None
        finally:
            set_telemetry(previous)


class TestResetForProcess:
    def test_installs_null_session_and_current_pid(self):
        with telemetry_session():
            reset_for_process()
            assert get_telemetry() is NULL_TELEMETRY
            assert runtime._AMBIENT.get() is None

    def test_idempotent(self):
        reset_for_process()
        reset_for_process()
        assert get_telemetry() is NULL_TELEMETRY


def _child_probe(queue):
    """Runs in a fork()-ed child of a live telemetry session."""
    queue.put(get_telemetry() is NULL_TELEMETRY)


class TestRealFork:
    def test_forked_child_sees_null_telemetry(self):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with telemetry_session() as session:
            assert get_telemetry() is session
            child = ctx.Process(target=_child_probe, args=(queue,))
            child.start()
            child.join(timeout=30)
            # the parent's session is untouched by the child's reset
            assert get_telemetry() is session
        assert child.exitcode == 0
        assert queue.get(timeout=5) is True
