"""Graceful shutdown: Engine.close, drain-first signals, no orphans.

The regression these tests pin: interrupting a parallel run used to
unwind the pump at an arbitrary point, which could leave worker
processes orphaned.  Graceful stop drains in-flight shards, reaps
every worker, and surfaces as :class:`~repro.errors.EngineInterrupted`
from a known point.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Engine, EngineConfig, graceful_shutdown, make_job
from repro.engine.pool import active_pools, request_stop_all
from repro.errors import EngineError, EngineInterrupted


def _sleep_job(n_shards: int, seconds: float):
    return make_job(
        "shutdown-probe", "engine.test.sleep",
        [{"seconds": seconds} for _ in range(n_shards)],
        cacheable=False,
    )


def _wait_no_children(timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestEngineClose:
    def test_close_mid_run_drains_and_reaps(self):
        engine = Engine(EngineConfig(workers=2, cache_enabled=False))
        outcome: dict = {}

        def run():
            try:
                outcome["result"] = engine.run(_sleep_job(12, 0.3))
            except EngineInterrupted as exc:
                outcome["interrupted"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        # let the pool spin up and take shards in flight
        deadline = time.monotonic() + 10.0
        while not active_pools() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        engine.close(timeout=5.0)
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        # Either the job squeaked through or it was interrupted; both
        # are legal, but workers must be gone and progress recorded.
        if "interrupted" in outcome:
            exc = outcome["interrupted"]
            assert 0 <= exc.completed < exc.total == 12
        assert _wait_no_children()

    def test_closed_engine_refuses_new_jobs(self):
        engine = Engine(EngineConfig(workers=0, cache_enabled=False))
        engine.close()
        with pytest.raises(EngineError):
            engine.run(_sleep_job(1, 0.0))

    def test_close_idempotent_without_active_run(self):
        engine = Engine(EngineConfig(workers=2, cache_enabled=False))
        engine.close()
        engine.close()

    def test_context_manager_closes(self):
        with Engine(EngineConfig(workers=0, cache_enabled=False)) as engine:
            assert engine.run(_sleep_job(2, 0.0)) == [0.0, 0.0]
        with pytest.raises(EngineError):
            engine.run(_sleep_job(1, 0.0))


class TestRequestStopAll:
    def test_no_active_pools_is_a_noop(self):
        assert request_stop_all() == 0

    def test_drain_completes_in_flight_shards(self):
        """Shards already on workers finish; queued-behind ones don't
        start.  With 2 workers and 12 x 0.3s shards, a stop issued
        mid-run must complete well under the serial 3.6s."""
        engine = Engine(EngineConfig(workers=2, cache_enabled=False))
        outcome: dict = {}

        def run():
            try:
                engine.run(_sleep_job(12, 0.3))
            except EngineInterrupted as exc:
                outcome["interrupted"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not active_pools() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.35)  # at least one full shard round completes
        started = time.monotonic()
        assert request_stop_all(drain_timeout=5.0) == 1
        thread.join(timeout=15.0)
        stop_latency = time.monotonic() - started
        assert not thread.is_alive()
        assert "interrupted" in outcome
        assert outcome["interrupted"].completed >= 1
        assert stop_latency < 3.0  # drained, not run to completion
        assert _wait_no_children()


class TestGracefulShutdownSignals:
    def test_sigterm_drains_active_pool(self):
        """A SIGTERM delivered to the main thread mid-run requests a
        drain instead of tearing the pump down mid-bytecode."""
        engine = Engine(EngineConfig(workers=2, cache_enabled=False))

        def fire_signal():
            deadline = time.monotonic() + 10.0
            while not active_pools() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGTERM)

        killer = threading.Thread(target=fire_signal)
        with graceful_shutdown(drain_timeout=5.0) as installed:
            assert installed
            killer.start()
            with pytest.raises(EngineInterrupted):
                engine.run(_sleep_job(12, 0.3))
        killer.join(timeout=10.0)
        assert _wait_no_children()

    def test_sigint_without_active_pool_raises_keyboardinterrupt(self):
        with graceful_shutdown() as installed:
            assert installed
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                # the handler runs synchronously on the main thread at
                # the next bytecode boundary
                time.sleep(0.5)

    def test_handlers_restored_after_block(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_off_main_thread(self):
        seen = {}

        def run():
            with graceful_shutdown() as installed:
                seen["installed"] = installed

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert seen["installed"] is False


class TestSerialRunsStayOffThePool:
    def test_serial_sweep_never_imports_the_pool(self):
        """An in-process sweep under graceful_shutdown() loads neither
        the worker pool nor multiprocessing (a fresh interpreter, so
        this suite's own imports do not count)."""
        script = textwrap.dedent("""
            import sys
            from repro.engine import graceful_shutdown
            from repro.oracle.runner import run_conformance
            from repro.softfloat.formats import BINARY16

            with graceful_shutdown():
                report = run_conformance(BINARY16, ["add"], budget=200)
            assert report.total_evals == 200, report.total_evals
            loaded = [name for name in ("repro.engine.pool",
                                        "multiprocessing")
                      if name in sys.modules]
            print(",".join(loaded) or "none")
        """)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        assert out.strip() == "none", out
