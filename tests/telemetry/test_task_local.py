"""Task-local ambient sessions (the asyncio cross-contamination fix).

The ambient telemetry session used to be thread-local; every asyncio
task shares one thread, so two concurrent request handlers that each
opened a session would record into whichever session was installed
last.  The primary slot is now a ``contextvars`` variable — asyncio
snapshots the context per task, so interleaved tasks keep their spans,
metrics, and FP-exception events apart.  A plain thread starts from an
empty context and so sees no session.
"""

import asyncio
import threading

from repro.telemetry import (
    NULL_TELEMETRY,
    get_telemetry,
    telemetry_session,
)


class TestInterleavedTasks:
    def test_two_tasks_do_not_cross_contaminate(self):
        """Two tasks interleave at explicit yield points; each must see
        only its own session and record only into its own sinks."""

        async def scenario():
            barrier_a = asyncio.Event()
            barrier_b = asyncio.Event()

            async def task_a():
                with telemetry_session() as tel:
                    tel.metrics.counter("who", task="a").inc()
                    with tel.tracer.span("a.outer"):
                        barrier_a.set()          # let B install its session
                        await barrier_b.wait()   # B's session is now live
                        assert get_telemetry() is tel
                        tel.metrics.counter("who", task="a").inc()
                    return tel

            async def task_b():
                await barrier_a.wait()           # A's session is live first
                with telemetry_session() as tel:
                    assert get_telemetry() is tel
                    tel.metrics.counter("who", task="b").inc()
                    barrier_b.set()
                    await asyncio.sleep(0)
                    return tel

            return await asyncio.gather(task_a(), task_b())

        tel_a, tel_b = asyncio.run(scenario())
        assert tel_a is not tel_b
        snap_a = tel_a.metrics.snapshot()
        snap_b = tel_b.metrics.snapshot()
        assert snap_a['who{task=a}']["value"] == 2
        assert "who{task=b}" not in snap_a
        assert snap_b['who{task=b}']["value"] == 1
        assert "who{task=a}" not in snap_b
        # spans landed in A's tracer only
        assert any(s.name == "a.outer" for s in tel_a.tracer.spans)
        assert not any(s.name == "a.outer" for s in tel_b.tracer.spans)

    def test_fp_events_stay_per_task(self):
        """FPEnv exception events recorded in one task must not land in
        a concurrently open session of another task."""
        from repro.fpenv import FPEnv
        from repro.softfloat import BINARY32
        from repro.softfloat.arith import fp_div
        from repro.softfloat.parse import parse_softfloat

        async def scenario():
            started = asyncio.Event()
            finished = asyncio.Event()

            async def noisy():
                with telemetry_session() as tel:
                    started.set()
                    env = FPEnv()
                    one = parse_softfloat("1.0", BINARY32)
                    zero = parse_softfloat("0.0", BINARY32)
                    fp_div(one, zero, env=env)
                    finished.set()
                    await asyncio.sleep(0)
                    return tel

            async def quiet():
                await started.wait()
                with telemetry_session() as tel:
                    await finished.wait()
                    return tel

            return await asyncio.gather(noisy(), quiet())

        noisy_tel, quiet_tel = asyncio.run(scenario())
        assert len(noisy_tel.events.events) >= 1
        assert len(quiet_tel.events.events) == 0


class TestToThread:
    def test_session_propagates_into_to_thread(self):
        """``asyncio.to_thread`` copies the context, so blocking work
        offloaded by a handler is still observed by its session."""

        async def scenario():
            with telemetry_session() as tel:
                def blocking():
                    assert get_telemetry() is tel
                    tel.metrics.counter("offloaded").inc()
                await asyncio.to_thread(blocking)
                return tel

        tel = asyncio.run(scenario())
        assert tel.metrics.snapshot()["offloaded"]["value"] == 1


class TestThreadFallback:
    def test_plain_thread_starts_null(self):
        with telemetry_session():
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(get_telemetry())
            )
            thread.start()
            thread.join()
        assert seen == [NULL_TELEMETRY]
