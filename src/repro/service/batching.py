"""Micro-batching: coalesce compatible requests into one backend call.

Two dispatchers, one scheduling rule:

- :class:`MicroBatcher` coalesces ``op.eval`` requests that share an
  evaluation cell — ``(op, format, mode, ftz, daz, dst_fmt)`` — into a
  single :meth:`~repro.softfloat.backend.SoftFloatBackend.run_packed`
  call over the concatenated lanes.  Because every backend is
  lane-wise bit-identical to the scalar reference (the PR 5
  differential contract), splitting the result back per request
  returns exactly the bits each request would have gotten alone.
- :class:`JobCoalescer` coalesces engine-backed requests (oracle
  slices, study simulations) that share a task name into one
  :class:`~repro.engine.tasks.Job` with one shard per request, run on
  the shared :class:`~repro.engine.engine.Engine` — so concurrent
  clients amortize pool dispatch, and the PR 4 fault tolerance
  (retry, quarantine, serial fallback) covers every rider.  Shard
  seeds are derived from each request's canonical spec, not its
  arrival position, so the result cache keys stay stable under any
  interleaving.

Batches form only under backlog, with no clock (adaptive batching as
in Clipper).  A rider that finds its key (cell or task name) idle
launches on the next loop tick, with whoever joined in that tick;
riders arriving while the key's flush is in flight form the next
batch, launched the moment that flush lands; ``max_lanes``/``max_jobs``
launch at once, even while busy.  Riders receive their slice through a
future; a failed flush fails exactly its own riders.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import itertools
from typing import Any

from repro.engine.engine import Engine
from repro.engine.tasks import spec_job
from repro.telemetry import get_telemetry

__all__ = ["MicroBatcher", "JobCoalescer", "BatchStats"]


def _registry(explicit):
    """The metrics registry a dispatcher reports into.

    Flushes run on the event loop in whatever rider's context scheduled
    them, so recording into the *ambient* session would scatter batch
    metrics across per-request sessions that are discarded after each
    response.  The service passes its own long-lived registry instead;
    the ambient fallback keeps standalone/test use observable.
    """
    return explicit if explicit is not None else get_telemetry().metrics


@dataclasses.dataclass
class BatchStats:
    """Observability for one dispatcher; ``flushes`` splits into
    ``idle``/``backlog``/``size`` by what launched each one."""

    submitted: int = 0
    flushes: int = 0
    lanes: int = 0
    idle_flushes: int = 0
    backlog_flushes: int = 0
    size_flushes: int = 0

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = dataclasses.asdict(self)
        payload["riders_mean"] = (
            round(self.submitted / self.flushes, 3) if self.flushes else 0.0
        )
        return payload


class _Pending:
    """One forming batch, run in the context of the rider that opened
    it, so backend telemetry lands in a request session still live."""

    __slots__ = ("payloads", "futures", "size", "context")

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self.futures: list[asyncio.Future] = []
        self.size = 0
        self.context = contextvars.copy_context()


class _BatcherBase:
    def __init__(self, *, cap: int, metrics=None) -> None:
        self.stats = BatchStats()
        self.metrics = metrics
        self.cap = cap
        self._pending: dict[Any, _Pending] = {}
        #: keys with a launch scheduled or a non-size flight in the air
        self._busy: set[Any] = set()
        #: every in-flight flush; the event loop holds tasks only weakly
        self._flights: set[asyncio.Task] = set()

    def _enqueue(self, key: Any, payload: Any, size: int) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending()
        pending.payloads.append(payload)
        pending.futures.append(future)
        pending.size += size
        self.stats.submitted += 1
        if pending.size >= self.cap:
            self.stats.size_flushes += 1
            self._launch(key)
        elif key not in self._busy:
            self._busy.add(key)
            loop.call_soon(self._launch_next, key, False)
        self._gauge()
        return future

    def _launch_next(self, key: Any, backlog: bool) -> None:
        """Launch the key's forming batch as its one non-size flight,
        chained to the next; with nothing forming, the key goes idle."""
        if key not in self._pending:
            self._busy.discard(key)
            return
        if backlog:
            self.stats.backlog_flushes += 1
        else:
            self.stats.idle_flushes += 1
        self._launch(key).add_done_callback(
            lambda _task: self._launch_next(key, True)
        )

    def _launch(self, key: Any) -> asyncio.Task:
        pending = self._pending.pop(key)
        self._gauge()
        self.stats.flushes += 1
        self.stats.lanes += pending.size
        task = asyncio.get_running_loop().create_task(
            self._flush(key, pending), context=pending.context
        )
        self._flights.add(task)
        task.add_done_callback(self._flights.discard)
        return task

    def _gauge(self) -> None:
        _registry(self.metrics).gauge("service.batch_pending_riders").set(
            sum(len(p.futures) for p in self._pending.values())
        )

    async def _flush(self, key: Any, pending: _Pending) -> None:
        try:
            results = await self._run(key, pending)
        except Exception as exc:
            for future in pending.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(pending.futures, results):
            if not future.done():
                future.set_result(result)

    async def _run(self, key: Any, pending: _Pending) -> list[Any]:
        """One result per rider, in submission order."""
        raise NotImplementedError

    async def drain(self) -> None:
        """Wait for every in-flight flush and every batch forming behind
        one (each launches as its key's flight lands)."""
        while self._flights or self._pending:
            if self._flights:
                await asyncio.wait(tuple(self._flights))
            else:
                await asyncio.sleep(0)


class MicroBatcher(_BatcherBase):
    """Coalesce same-cell ``op.eval`` requests into one batch call."""

    def __init__(self, backend, *, max_lanes: int = 4096,
                 metrics=None) -> None:
        super().__init__(cap=max_lanes, metrics=metrics)
        self.backend = backend

    async def submit(
        self, key: tuple, operands: list[list[int]]
    ) -> tuple[list[int], list[int]]:
        """Evaluate one request's lanes inside a coalesced batch.

        ``key`` is the evaluation cell; ``operands`` is one list of
        packed encodings per operand.  Returns ``(bits, flags)`` for
        exactly this request's lanes.
        """
        return await self._enqueue(key, operands, len(operands[0]))

    async def _run(self, key: Any, pending: _Pending) -> list[Any]:
        import numpy as np

        op, fmt, mode, ftz, daz, dst_fmt = key
        metrics = _registry(self.metrics)
        metrics.log_histogram("service.batch_lanes").observe(pending.size)
        metrics.log_histogram("service.batch_riders").observe(
            len(pending.payloads)
        )
        metrics.gauge("service.batch_fill_ratio").set(
            pending.size / self.cap if self.cap else 0.0
        )

        def run():
            operands = [
                np.asarray(
                    [lane for payload in pending.payloads
                     for lane in payload[i]],
                    dtype=np.uint64,
                )
                for i in range(len(pending.payloads[0]))
            ]
            return self.backend.run_packed(
                op, fmt, operands, mode, ftz, daz, dst_fmt=dst_fmt
            )

        result = await asyncio.to_thread(run)
        bits, flags = result.bits.tolist(), result.flags.tolist()
        bounds = [0, *itertools.accumulate(len(p[0])
                                           for p in pending.payloads)]
        return [(bits[a:b], flags[a:b]) for a, b in zip(bounds, bounds[1:])]


class JobCoalescer(_BatcherBase):
    """Coalesce engine-backed requests into one multi-shard job."""

    def __init__(self, engine: Engine, *, max_jobs: int = 16,
                 seed: int = 754, metrics=None) -> None:
        super().__init__(cap=max_jobs, metrics=metrics)
        self.engine = engine
        self.seed = seed

    async def submit(self, task_name: str, params: dict[str, Any]) -> Any:
        """Run one task invocation inside a coalesced engine job."""
        return await self._enqueue(task_name, dict(params), 1)

    async def _run(self, key: Any, pending: _Pending) -> list[Any]:
        metrics = _registry(self.metrics)
        metrics.log_histogram("service.job_riders").observe(
            len(pending.payloads)
        )
        metrics.gauge("service.job_fill_ratio").set(
            pending.size / self.cap if self.cap else 0.0
        )
        # spec-addressed, not position-addressed: the cache key must not
        # depend on who else rode this batch
        job = spec_job(f"service.{key}", key, pending.payloads,
                       seed=self.seed)
        return await asyncio.to_thread(self.engine.run, job)
