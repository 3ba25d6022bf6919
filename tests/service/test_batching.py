"""Batching dispatchers: coalescing, bit-identity, failure fan-out, and
the scheduling rule — flush when idle, batch while busy."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import gc
import json
import logging
import random
import threading
import time
from typing import Any

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.tasks import TaskSpec, derive_seed
from repro.fpenv.rounding import RoundingMode
from repro.service.batching import JobCoalescer, MicroBatcher
from repro.softfloat import BINARY32
from repro.softfloat.backend import get_backend
from tests.strategies import forall_seeds


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def no_asyncio_errors(caplog):
    """asyncio logs a task exception nobody retrieved instead of raising
    it; fail the test on that log."""
    yield
    gc.collect()
    errors = [record.getMessage() for record in
              (*caplog.get_records("call"), *caplog.records)
              if record.name == "asyncio"
              and record.levelno >= logging.ERROR]
    assert not errors


ONE = 0x3F800000
TWO = 0x40000000
ZERO = 0x00000000


class TestMicroBatcher:
    def test_single_request_round_trip(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"))
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            bits, flags = await batcher.submit(key, [[ONE], [ONE]])
            assert bits == [TWO]
            assert flags == [0]

        run(main())

    def test_concurrent_requests_coalesce_and_split_correctly(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"))
            key = ("div", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            reference = get_backend("scalar")

            riders = [
                ([[ONE], [TWO]],),          # 1.0 / 2.0
                ([[ONE, TWO], [ZERO, ONE]],),  # 1/0, 2/1 (two lanes)
                ([[TWO], [TWO]],),          # 2.0 / 2.0
            ]
            results = await asyncio.gather(*[
                batcher.submit(key, operands) for (operands,) in riders
            ])
            # submitted in one tick: one flush served all riders
            assert batcher.stats.flushes == 1
            assert batcher.stats.lanes == 4
            # each rider's slice is bit-identical to a direct call
            for (operands,), (bits, flags) in zip(riders, results):
                direct = reference.run_packed(
                    "div", BINARY32,
                    [np.asarray(col, dtype=np.uint64)
                     for col in operands],
                    RoundingMode.NEAREST_EVEN, False, False, None,
                )
                assert bits == [int(b) for b in direct.bits]
                assert flags == [int(f) for f in direct.flags]

        run(main())

    def test_different_cells_never_share_a_batch(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"))
            key_rne = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                       False, False, None)
            key_rtz = ("add", BINARY32, RoundingMode.TOWARD_ZERO,
                       False, False, None)
            await asyncio.gather(
                batcher.submit(key_rne, [[ONE], [ONE]]),
                batcher.submit(key_rtz, [[ONE], [ONE]]),
            )
            assert batcher.stats.flushes == 2

        run(main())

    def test_size_flush_fires_before_deadline(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"), max_lanes=4)
            key = ("sqrt", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            results = await asyncio.wait_for(
                asyncio.gather(*[
                    batcher.submit(key, [[TWO]]) for _ in range(4)
                ]),
                timeout=5.0,
            )
            assert all(bits == results[0][0] for bits, _ in results)
            assert batcher.stats.size_flushes == 1
            assert batcher.stats.flushes == 1  # the idle launch found none

        run(main())

    def test_backend_failure_fans_out_to_all_riders(self):
        class ExplodingBackend:
            def run_packed(self, *args, **kwargs):
                raise RuntimeError("kernel on fire")

        async def main():
            batcher = MicroBatcher(ExplodingBackend())
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            results = await asyncio.gather(
                batcher.submit(key, [[ONE], [ONE]]),
                batcher.submit(key, [[TWO], [TWO]]),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        run(main())

    def test_drain_flushes_forming_batch(self):
        async def main():
            batcher = MicroBatcher(get_backend("scalar"))
            key = ("add", BINARY32, RoundingMode.NEAREST_EVEN,
                   False, False, None)
            future = asyncio.ensure_future(
                batcher.submit(key, [[ONE], [ONE]])
            )
            await asyncio.sleep(0)  # let it enqueue
            await batcher.drain()
            assert future.done()
            bits, _ = await asyncio.wait_for(future, timeout=1.0)
            assert bits == [TWO]

        run(main())

    @pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
    def test_riders_get_python_ints_bit_identical_to_direct(self, backend):
        key = ("div", BINARY32, RoundingMode.NEAREST_EVEN,
               False, False, None)
        riders = [
            [[ONE, TWO, 0x7F800000], [TWO, ZERO, 0x7F800000]],
            [[0x00000001], [TWO]],
            [[TWO, ONE], [0x3F000000, 0x40400000]],
        ]

        async def main():
            batcher = MicroBatcher(get_backend(backend))
            return await asyncio.gather(*[
                batcher.submit(key, operands) for operands in riders
            ])

        for operands, (bits, flags) in zip(riders, run(main())):
            assert all(type(v) is int for v in bits + flags)
            json.dumps({"bits": bits, "flags": flags})
            direct = get_backend(backend).run_packed(
                "div", BINARY32,
                [np.asarray(col, dtype=np.uint64) for col in operands],
                RoundingMode.NEAREST_EVEN, False, False, None,
            )
            assert bits == [int(b) for b in direct.bits]
            assert flags == [int(f) for f in direct.flags]


class TestJobCoalescer:
    def test_riders_coalesce_into_one_job(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            coalescer = JobCoalescer(engine)
            params = [{"payload": i} for i in range(3)]
            results = await asyncio.gather(*[
                coalescer.submit("engine.test.echo", p) for p in params
            ])
            assert coalescer.stats.flushes == 1
            assert engine.last_report.shards == 3
            assert [r["payload"] for r in results] == [0, 1, 2]

        run(main())

    def test_seed_is_spec_addressed_not_positional(self):
        """The same params get the same shard seed no matter what else
        rides the batch — the cache-stability property."""
        seen: list[tuple] = []

        class SpyEngine:
            last_report = None

            def run(self, job):
                seen.append(tuple(s.seed for s in job.shards))
                return [None] * len(job.shards)

        async def one_round(extra_riders: int):
            coalescer = JobCoalescer(SpyEngine(), seed=99)
            probe = {"payload": "probe"}
            riders = [probe] + [
                {"payload": f"noise-{i}"}
                for i in range(extra_riders)
            ]
            await asyncio.gather(*[
                coalescer.submit("engine.test.echo", p) for p in riders
            ])

        asyncio.run(one_round(0))
        asyncio.run(one_round(4))
        probe_spec = TaskSpec(
            task="engine.test.echo",
            params={"payload": "probe"},
        )
        expected = derive_seed(99, "engine.test.echo",
                               probe_spec.canonical())
        assert seen[0][0] == expected
        assert seen[1][0] == expected  # same seed with 4 extra riders

    def test_engine_failure_fans_out(self):
        class BrokenEngine:
            def run(self, job):
                raise RuntimeError("pool collapsed")

        async def main():
            coalescer = JobCoalescer(BrokenEngine())
            results = await asyncio.gather(
                coalescer.submit("engine.test.echo", {"payload": 1}),
                coalescer.submit("engine.test.echo", {"payload": 2}),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        run(main())

    def test_size_cap_flushes_early(self):
        async def main():
            engine = Engine(EngineConfig(workers=0, cache_enabled=False))
            coalescer = JobCoalescer(engine, max_jobs=2)
            results = await asyncio.wait_for(
                asyncio.gather(*[
                    coalescer.submit("engine.test.echo", {"payload": i})
                    for i in range(2)
                ]),
                timeout=5.0,
            )
            assert len(results) == 2
            assert coalescer.stats.size_flushes == 1

        run(main())


# -- the scheduling rule, on both dispatchers ---------------------------

#: the rider whose context a flush runs in, recorded by the fake backends
RIDER = contextvars.ContextVar("rider", default=None)


class _Rig:
    """A dispatcher over a fake backend whose calls block until the test
    releases them.  Rider ``n`` of key ``k`` is recognisable in every
    backend call, so ``calls`` records ``(k, riders, rider context)``
    per call, in call order."""

    KEYS: tuple = ()

    def __init__(self, *, cap: int = 4096, gated=(0,),
                 fail_first: bool = False) -> None:
        self.cap = cap
        self.fail_first = fail_first
        self.calls: list[tuple[int, list[int], Any]] = []
        self.peak_backlog = 0
        self._opened = {0, 1} - set(gated)
        self._blocked: dict[int, list[threading.Event]] = {0: [], 1: []}
        self._backlog_running = [0, 0]
        self._lock = threading.Lock()

    def _enter(self, k: int, riders: list[int], size: int) -> None:
        gate = threading.Event()
        backlog = size < self.cap  # a size flight carries >= cap
        with self._lock:
            self.calls.append((k, riders, RIDER.get()))
            fail = self.fail_first and len(self.calls) == 1
            if k in self._opened:
                gate.set()
            else:
                self._blocked[k].append(gate)
            self._backlog_running[k] += backlog
            self.peak_backlog = max(self.peak_backlog,
                                    self._backlog_running[k])
        try:
            assert gate.wait(timeout=10.0), "flight never released"
            if fail:
                raise RuntimeError("first flight failed")
        finally:
            with self._lock:
                self._backlog_running[k] -= backlog

    def release(self, k: int) -> None:
        """Let key ``k``'s oldest blocked call return."""
        with self._lock:
            if self._blocked[k]:
                self._blocked[k].pop(0).set()

    def open(self) -> None:
        """Let every call, now and later, return."""
        with self._lock:
            self._opened = {0, 1}
            for gates in self._blocked.values():
                for gate in gates:
                    gate.set()
                gates.clear()

    def blocked(self) -> int:
        with self._lock:
            return sum(len(gates) for gates in self._blocked.values())

    def backlog_running(self, k: int) -> int:
        with self._lock:
            return self._backlog_running[k]

    async def submit_as(self, tag: str, k: int, n: int):
        RIDER.set(tag)
        return await self.submit(k, n)


class OpEvalRig(_Rig):
    KEYS = (("add", BINARY32, RoundingMode.NEAREST_EVEN, False, False, None),
            ("mul", BINARY32, RoundingMode.TOWARD_ZERO, False, False, None))

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.dispatcher = MicroBatcher(self, max_lanes=self.cap)

    @staticmethod
    def size(n: int) -> int:
        return 1 + n % 3

    def _operands(self, n: int) -> list[list[int]]:
        # lane j of rider n encodes n * 4 + j: tiny subnormals, each
        # recognisable in the concatenated batch
        a = [n * 4 + j for j in range(self.size(n))]
        return [a, [ONE + n] * len(a)]

    def submit(self, k: int, n: int):
        return self.dispatcher.submit(self.KEYS[k], self._operands(n))

    def expected(self, k: int, n: int):
        direct = get_backend("scalar").run_packed(
            *self.KEYS[k][:2],
            [np.asarray(col, dtype=np.uint64) for col in self._operands(n)],
            *self.KEYS[k][2:],
        )
        return direct.bits.tolist(), direct.flags.tolist()

    def run_packed(self, op, fmt, operands, mode, ftz, daz, dst_fmt=None):
        k = [key[0] for key in self.KEYS].index(op)
        riders = list(dict.fromkeys(int(a) // 4 for a in operands[0]))
        self._enter(k, riders, len(operands[0]))
        return get_backend("scalar").run_packed(
            op, fmt, operands, mode, ftz, daz, dst_fmt
        )


class JobRig(_Rig):
    KEYS = ("engine.test.echo", "engine.test.other")
    SEED = 99

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.dispatcher = JobCoalescer(self, max_jobs=self.cap,
                                       seed=self.SEED)

    @staticmethod
    def size(n: int) -> int:
        return 1

    def submit(self, k: int, n: int):
        return self.dispatcher.submit(self.KEYS[k], {"payload": n})

    def expected(self, k: int, n: int):
        spec = TaskSpec(task=self.KEYS[k], params={"payload": n})
        return n, derive_seed(self.SEED, self.KEYS[k], spec.canonical())

    def run(self, job):
        k = self.KEYS.index(job.shards[0].spec.task)
        riders = [shard.spec.params["payload"] for shard in job.shards]
        self._enter(k, riders, len(riders))
        return [(shard.spec.params["payload"], shard.seed)
                for shard in job.shards]


RIGS = pytest.mark.parametrize("rig_cls", [OpEvalRig, JobRig],
                               ids=["op.eval", "jobs"])


async def until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


async def ticks(n: int = 5) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


@RIGS
class TestSchedulingRule:
    def test_lone_rider_arms_no_timer(self, rig_cls):
        rig = rig_cls(gated=())

        def no_timers(*args, **kwargs):
            raise AssertionError("a batching timer was armed")

        async def main():
            loop = asyncio.get_running_loop()
            loop.call_later = loop.call_at = no_timers
            assert await rig.submit(0, 0) == rig.expected(0, 0)

        run(main())
        stats = rig.dispatcher.stats
        assert (stats.flushes, stats.idle_flushes) == (1, 1)
        assert (stats.backlog_flushes, stats.size_flushes) == (0, 0)

    def test_riders_behind_a_flight_go_out_in_one_batch(self, rig_cls):
        rig = rig_cls()

        async def main():
            first = asyncio.ensure_future(rig.submit(0, 0))
            await until(lambda: len(rig.calls) == 1)
            behind = []
            for n in (1, 2, 3):  # one per tick, while the flight is out
                behind.append(asyncio.ensure_future(rig.submit(0, n)))
                await ticks()
            assert len(rig.calls) == 1
            rig.open()
            return await asyncio.gather(first, *behind)

        results = run(main())
        assert results == [rig.expected(0, n) for n in range(4)]
        assert [(k, riders) for k, riders, _ in rig.calls] == [
            (0, [0]), (0, [1, 2, 3]),
        ]
        stats = rig.dispatcher.stats
        assert (stats.idle_flushes, stats.backlog_flushes) == (1, 1)
        assert stats.to_dict()["riders_mean"] == 2.0

    def test_other_key_is_not_held_behind_a_flight(self, rig_cls):
        rig = rig_cls()

        async def main():
            first = asyncio.ensure_future(rig.submit(0, 0))
            await until(lambda: len(rig.calls) == 1)
            other = await asyncio.wait_for(rig.submit(1, 1), timeout=5.0)
            assert other == rig.expected(1, 1)
            assert not first.done()
            rig.open()
            assert await first == rig.expected(0, 0)

        run(main())

    def test_size_cap_launches_while_busy(self, rig_cls):
        rig = rig_cls(cap=rig_cls.size(1) + rig_cls.size(2))

        async def main():
            first = asyncio.ensure_future(rig.submit(0, 0))
            await until(lambda: len(rig.calls) == 1)
            second = asyncio.ensure_future(rig.submit(0, 1))
            await ticks()
            third = asyncio.ensure_future(rig.submit(0, 2))
            # the cap launches at once, with the first flight still out
            await until(lambda: len(rig.calls) == 2)
            assert rig.dispatcher.stats.size_flushes == 1
            rig.open()
            return await asyncio.gather(first, second, third)

        assert run(main()) == [rig.expected(0, n) for n in range(3)]
        assert rig.calls[1][:2] == (0, [1, 2])
        stats = rig.dispatcher.stats
        assert (stats.idle_flushes, stats.backlog_flushes) == (1, 0)

    def test_failed_flight_fails_only_its_riders(self, rig_cls):
        rig = rig_cls(fail_first=True)

        async def main():
            first = asyncio.ensure_future(rig.submit(0, 0))
            await until(lambda: len(rig.calls) == 1)
            behind = asyncio.ensure_future(rig.submit(0, 1))
            await ticks()
            rig.open()
            return await asyncio.gather(first, behind,
                                        return_exceptions=True)

        failed, answered = run(main())
        assert isinstance(failed, RuntimeError)
        assert answered == rig.expected(0, 1)

    def test_drain_waits_for_the_batch_behind_a_flight(self, rig_cls):
        rig = rig_cls()

        async def main():
            first = asyncio.ensure_future(rig.submit(0, 0))
            await until(lambda: len(rig.calls) == 1)
            behind = asyncio.ensure_future(rig.submit(0, 1))
            await ticks()
            drain = asyncio.ensure_future(rig.dispatcher.drain())
            await ticks()
            assert not drain.done()
            rig.open()
            await drain
            assert first.done() and behind.done()
            assert not rig.dispatcher._pending
            assert not rig.dispatcher._flights
            assert await behind == rig.expected(0, 1)

        run(main())
        assert len(rig.calls) == 2

    def test_each_flush_runs_in_its_first_riders_context(self, rig_cls):
        """Backend telemetry lands in a request session that is still
        live: the one that opened the batch."""
        rig = rig_cls()

        async def main():
            first = asyncio.ensure_future(rig.submit_as("a", 0, 0))
            await until(lambda: len(rig.calls) == 1)
            behind = [asyncio.ensure_future(rig.submit_as(tag, 0, n))
                      for tag, n in (("b", 1), ("c", 2))]
            await ticks()
            rig.open()
            await asyncio.gather(first, *behind)

        run(main())
        assert [context for _, _, context in rig.calls] == ["a", "b"]


@RIGS
@forall_seeds(n_examples=25)
def test_random_schedules_answer_every_rider_once(rig_cls, seed):
    """Random submits, releases and ticks on two keys: every rider is
    answered exactly once and bit-identically; a key never has two
    backlog flights in the air; and once a key has nothing in flight,
    it has no batch left forming."""
    rng = random.Random(seed)
    rig = rig_cls(cap=rng.randint(2, 6), gated=(0, 1))
    steps = [(rng.choice(("submit", "submit", "release", "tick")),
              rng.randint(0, 1)) for _ in range(rng.randint(1, 30))]

    async def settle():
        # every launched flight has reached the backend and is blocked
        await until(lambda: len(rig.dispatcher._flights) == rig.blocked())
        await ticks()

    async def main():
        # blocked flights each hold a thread; never starve the next one
        asyncio.get_running_loop().set_default_executor(
            concurrent.futures.ThreadPoolExecutor(max_workers=len(steps))
        )
        riders = []
        for action, k in steps:
            if action == "submit":
                n = len(riders)
                riders.append((k, n, asyncio.ensure_future(rig.submit(k, n))))
            elif action == "release":
                rig.release(k)
            else:
                await settle()
                for key in (0, 1):
                    if rig.KEYS[key] in rig.dispatcher._pending:
                        assert rig.backlog_running(key) == 1
        rig.open()
        results = await asyncio.wait_for(
            asyncio.gather(*[task for _, _, task in riders]), timeout=10.0
        )
        await rig.dispatcher.drain()
        return [(k, n, result)
                for (k, n, _), result in zip(riders, results)]

    answered = run(main())
    for k, n, result in answered:
        assert result == rig.expected(k, n)
    carried = sorted(n for _, riders, _ in rig.calls for n in riders)
    assert carried == list(range(len(answered)))
    assert rig.peak_backlog <= 1
    assert not rig.dispatcher._pending
