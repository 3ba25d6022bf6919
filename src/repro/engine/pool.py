"""Multiprocessing worker pool: batching, backpressure, fault tolerance.

The pool owns the process lifecycle so callers never see a dead
worker.  The supervision loop is a single-threaded event pump, and its
central design decision is that **assignment lives in the parent**:
each worker has its own bounded task queue, and the parent records
which units it handed to which worker.  Each worker reports on its
own pipe, written synchronously, so a worker that dies mid-write can
garble only its own channel, which the parent discards with the worker
(a shared ``multiprocessing.Queue`` would not do: a worker killed
while its feeder thread holds the queue's write lock strands that
lock, and with it every other worker's reports).  Anything a dying worker was about
to *say* can still be lost — but what the parent *assigned* cannot.
Recovery therefore never depends on worker-side bookkeeping:

- **batching** — ready shards are dispatched in up-to-``batch_size``
  batches to amortize queue IPC;
- **backpressure** — each worker's queue holds at most ``queue_depth``
  batches (and the parent caps outstanding units per worker), so a
  million-shard job never materializes a million queue entries; the
  remainder waits in the parent's pending deque;
- **heartbeats** — idle workers beat every ``heartbeat_interval``
  seconds; the beat is bookkeeping (liveness + stats), the real death
  check is ``Process.is_alive`` on every pump;
- **worker death** — every unit assigned-but-unfinished is requeued,
  the dead process is reaped and a replacement spawned, and a
  :data:`~repro.engine.events.EngineFlag.WORKER_DEATH` event lands in
  the telemetry stream.  Only a unit *known* to have been executing
  (last observed ``start``, or a sole assignment) is charged a retry
  with ``attempt + 1`` and backoff; the rest are quarantined — rerun
  one-per-idle-worker so a repeat death charges the true crasher, and
  innocent bystanders can never exhaust their retry budget riding
  behind one.  Duplicate completions (a ``done`` already in
  the pipe when its worker died) are deduplicated by shard index;
- **per-shard timeouts** — a unit running longer than
  ``shard_timeout`` gets its worker terminated, which funnels into the
  same requeue path with a
  :data:`~repro.engine.events.EngineFlag.TIMEOUT` event;
- **retry exhaustion** — after ``max_retries`` infrastructure
  failures a shard is either run serially in the parent
  (``fallback_serial``, the graceful-degradation path) or raised as a
  :class:`~repro.errors.ShardError`;
- **task errors** — an exception raised *by the task itself* is never
  retried: tasks are pure, so a second attempt would fail identically.
  It raises :class:`~repro.errors.ShardError` immediately with the
  worker-side traceback.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import queue as queue_module
import threading
import time
import weakref
from collections import deque
from typing import Any

from repro.errors import EngineError, EngineInterrupted, ShardError
from repro.engine.events import EngineFlag, PoolStats, emit_engine_event
from repro.engine.tasks import Shard, ShardContext, execute_task
from repro.engine.worker import worker_main
from repro.telemetry import get_telemetry

__all__ = [
    "PoolConfig",
    "WorkerPool",
    "active_pools",
    "request_stop_all",
]

#: Pools currently inside :meth:`WorkerPool.run`, for signal handlers
#: that must reach a pool they hold no reference to.  Guarded by
#: ``_ACTIVE_LOCK`` — signal handlers run between bytecodes of the
#: pump itself.
_ACTIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_ACTIVE_LOCK = threading.Lock()


def active_pools() -> "list[WorkerPool]":
    """Pools currently executing a run."""
    with _ACTIVE_LOCK:
        return list(_ACTIVE_POOLS)


def request_stop_all(drain_timeout: float = 2.0) -> int:
    """Ask every active pool to drain and stop; returns how many."""
    pools = active_pools()
    for pool in pools:
        pool.request_stop(drain_timeout=drain_timeout)
    return len(pools)


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tunables for one :class:`WorkerPool`.

    ``start_method=None`` uses the platform default (``fork`` on
    Linux); ``shard_timeout=None`` disables the per-shard watchdog.
    """

    workers: int = 2
    batch_size: int = 1
    queue_depth: int = 2
    shard_timeout: float | None = None
    heartbeat_interval: float = 1.0
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    start_method: str | None = None
    poll_interval: float = 0.05
    fallback_serial: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise EngineError("pool needs at least one worker")
        if self.batch_size < 1:
            raise EngineError("batch_size must be positive")
        if self.queue_depth < 1:
            raise EngineError("queue_depth must be positive")


@dataclasses.dataclass
class _Unit:
    """One shard's in-flight scheduling state (parent side only)."""

    shard: Shard
    n_shards: int
    attempt: int = 0
    not_before: float = 0.0
    #: survived a worker death: rerun alone on an idle worker so a
    #: repeat death identifies the culprit unambiguously
    isolate: bool = False

    def wire(self, traceparent: str | None = None) -> tuple:
        """The tuple shipped to workers (JSON-able scalars only).

        ``traceparent`` rides the wire, never the spec: it must stay
        out of ``TaskSpec.params`` so cache keys — and therefore
        result bytes — are identical with telemetry on or off.
        """
        spec = self.shard.spec
        return (
            self.shard.index, self.n_shards, spec.task, dict(spec.params),
            self.shard.seed, self.attempt, traceparent,
        )


class _WorkerHandle:
    """A worker process, its private task queue and report pipe, and
    what the parent assigned to it."""

    def __init__(self, worker_id: int, process, task_queue,
                 reports) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        #: read end of the worker's report pipe
        self.reports = reports
        #: units handed over but not yet reported done, by shard index
        self.assigned: dict[int, _Unit] = {}
        #: (shard_index, started_at) of the unit currently executing
        self.running: tuple[int, float] | None = None

    @property
    def capacity(self) -> int:
        return len(self.assigned)


class WorkerPool:
    """Run shards across worker processes; survive their deaths.

    One-shot by design: build, :meth:`run`, discard.  ``run`` returns
    ``{shard_index: result}`` for every shard and fills ``self.stats``.
    """

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.stats = PoolStats()
        #: harvested worker telemetry, ``{shard_index: (worker_id,
        #: payload dict)}`` — only populated when the dispatching run
        #: had an enabled telemetry session (see :meth:`run`)
        self.payloads: dict[int, tuple[int, dict]] = {}
        self._traceparent: str | None = None
        ctx_name = config.start_method
        self._mp = (
            multiprocessing.get_context(ctx_name)
            if ctx_name else multiprocessing.get_context()
        )
        self._next_worker_id = 0
        self._stop = threading.Event()
        self._stop_deadline = 0.0
        #: set when :meth:`run` has fully unwound (workers reaped);
        #: what :meth:`repro.engine.engine.Engine.close` waits on.
        self.finished = threading.Event()

    def request_stop(self, *, drain_timeout: float = 2.0) -> None:
        """Ask the pump to stop gracefully: dispatch nothing new, let
        in-flight shards finish (up to ``drain_timeout``), reap every
        worker, then raise :class:`~repro.errors.EngineInterrupted`.

        Safe to call from any thread or from a signal handler; the
        pump picks the flag up on its next iteration.  Calling it on a
        pool that is not running is a no-op.
        """
        self._stop_deadline = time.monotonic() + drain_timeout
        self._stop.set()

    # -- lifecycle -----------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._mp.Queue(maxsize=self.config.queue_depth)
        reports, writer = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, task_queue, writer,
                  self.config.heartbeat_interval),
            daemon=True,
            name=f"repro-engine-worker-{worker_id}",
        )
        process.start()
        # The worker holds the only write end, so its death reads as EOF.
        writer.close()
        self.stats.workers_spawned += 1
        return _WorkerHandle(worker_id, process, task_queue, reports)

    # -- supervision helpers -------------------------------------------

    def _requeue(self, unit: _Unit, pending: deque, flag: EngineFlag,
                 failures: dict[int, int]) -> None:
        """Put a unit back on the ready list after an infra failure."""
        failures[unit.shard.index] = failures.get(unit.shard.index, 0) + 1
        emit_engine_event(
            flag | EngineFlag.RETRY,
            f"engine.shard[{unit.shard.index}]",
        )
        get_telemetry().metrics.counter("engine.retries_total").inc()
        self.stats.retries += 1
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** unit.attempt),
        )
        unit.attempt += 1
        unit.not_before = time.monotonic() + delay
        pending.append(unit)

    def _reap(self, handle: _WorkerHandle, pending: deque,
              failures: dict[int, int], flag: EngineFlag) -> None:
        """Recover every unit a dead/killed worker was assigned.

        Exactly one unit was executing when the worker died, and only a
        unit *known* to be the one is charged a retry: the last
        ``start`` the parent saw, or a sole assignment.  A dying
        worker's feeder thread can lose every message it ever queued,
        so when several units are assigned and no ``start`` survived,
        the culprit is unknowable — charging bystanders would let a
        shard co-queued behind a crasher exhaust its retry budget
        without ever having run (and send the parent serially running
        shards it could have pooled).  Instead, every reaped unit is
        *quarantined*: requeued to run alone on an idle worker, where
        the next death is a sole assignment and charges the true
        crasher.  Quarantine converges — bystanders complete on their
        solo run, repeat crashers accumulate real failures until retry
        exhaustion."""
        running_index = handle.running[0] if handle.running else None
        if running_index not in handle.assigned and len(handle.assigned) == 1:
            running_index = next(iter(handle.assigned))
        for unit in handle.assigned.values():
            unit.isolate = True
            if unit.shard.index == running_index:
                self._requeue(unit, pending, flag, failures)
            else:
                unit.not_before = time.monotonic()
                pending.append(unit)
        handle.assigned.clear()
        handle.running = None
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.kill()
            handle.process.join(timeout=1.0)
        handle.process.close()
        handle.reports.close()
        handle.task_queue.cancel_join_thread()
        handle.task_queue.close()

    def _run_exhausted(self, unit: _Unit, results: dict[int, Any]) -> None:
        """Last resort for a shard the pool keeps losing."""
        emit_engine_event(
            EngineFlag.RETRIES_EXHAUSTED,
            f"engine.shard[{unit.shard.index}]",
        )
        if not self.config.fallback_serial:
            raise ShardError(
                unit.shard.index,
                f"retries exhausted after {unit.attempt} attempts",
            )
        emit_engine_event(
            EngineFlag.SERIAL_FALLBACK,
            f"engine.shard[{unit.shard.index}]",
        )
        self.stats.serial_fallbacks += 1
        spec = unit.shard.spec
        ctx = ShardContext(
            index=unit.shard.index, n_shards=unit.n_shards,
            seed=unit.shard.seed, attempt=unit.attempt,
        )
        results[unit.shard.index] = execute_task(spec.task, spec.params, ctx)
        self.stats.completed += 1

    # -- the pump ------------------------------------------------------

    def run(self, shards: list[Shard]) -> dict[int, Any]:
        """Execute every shard, in any order, surviving worker faults."""
        config = self.config
        started = time.monotonic()
        n_shards = len(shards)
        self.stats.shards = n_shards
        if not shards:
            return {}

        pending: deque[_Unit] = deque(
            _Unit(shard=shard, n_shards=n_shards) for shard in shards
        )
        results: dict[int, Any] = {}
        failures: dict[int, int] = {}
        telemetry = get_telemetry()
        metrics = telemetry.metrics
        if telemetry.enabled:
            context = telemetry.tracer.current_context()
            if context is not None:
                self._traceparent = context.to_traceparent()
        max_outstanding = config.batch_size * config.queue_depth

        workers = {
            handle.worker_id: handle
            for handle in (
                self._spawn_worker() for _ in range(config.workers)
            )
        }
        with _ACTIVE_LOCK:
            _ACTIVE_POOLS.add(self)

        try:
            while len(results) < n_shards:
                now = time.monotonic()

                # 0. graceful stop: drain in-flight, dispatch nothing.
                if self._stop.is_set():
                    in_flight = sum(h.capacity for h in workers.values())
                    if in_flight == 0 or now > self._stop_deadline:
                        raise EngineInterrupted(len(results), n_shards)

                # 1. dispatch ready units to workers with headroom.
                #    Quarantined units ride alone: one per batch, only
                #    onto an idle worker, with nothing batched behind
                #    them (see _reap).  A stopping pool dispatches
                #    nothing — it only drains what is already out.
                for handle in () if self._stop.is_set() else workers.values():
                    if any(u.isolate for u in handle.assigned.values()):
                        continue
                    while (pending and pending[0].not_before <= now
                           and handle.capacity < max_outstanding):
                        if pending[0].isolate and handle.capacity > 0:
                            break
                        if pending[0].isolate:
                            batch = [pending.popleft()]
                        else:
                            batch = []
                            while (pending and pending[0].not_before <= now
                                   and len(batch) < config.batch_size
                                   and not pending[0].isolate):
                                batch.append(pending.popleft())
                        try:
                            handle.task_queue.put_nowait(
                                ("batch", [u.wire(self._traceparent)
                                           for u in batch])
                            )
                        except queue_module.Full:
                            pending.extendleft(reversed(batch))
                            break
                        for unit in batch:
                            handle.assigned[unit.shard.index] = unit
                        self.stats.batches += 1
                        if batch[0].isolate:
                            break
                outstanding = sum(h.capacity for h in workers.values())
                self.stats.max_queue_depth = max(
                    self.stats.max_queue_depth, outstanding
                )
                metrics.gauge("engine.queue_depth").set(outstanding)

                # 2. drain worker reports.  A dead worker's pipe reads
                #    as EOF (or a garbled last message); step 3 reaps it.
                for reports in multiprocessing.connection.wait(
                    [h.reports for h in workers.values()],
                    timeout=config.poll_interval,
                ):
                    try:
                        while reports.poll():
                            self._handle_message(reports.recv(), workers,
                                                 results, metrics)
                    except (EOFError, OSError):
                        pass

                # 3. liveness + watchdog.
                now = time.monotonic()
                for worker_id, handle in list(workers.items()):
                    if not handle.process.is_alive():
                        self.stats.worker_deaths += 1
                        emit_engine_event(
                            EngineFlag.WORKER_DEATH,
                            f"engine.worker[{worker_id}]",
                        )
                        self._reap(
                            handle, pending, failures,
                            EngineFlag.WORKER_DEATH,
                        )
                        del workers[worker_id]
                        replacement = self._spawn_worker()
                        workers[replacement.worker_id] = replacement
                    elif (config.shard_timeout is not None
                          and handle.running is not None
                          and now - handle.running[1]
                          > config.shard_timeout):
                        self.stats.timeouts += 1
                        emit_engine_event(
                            EngineFlag.TIMEOUT,
                            f"engine.shard[{handle.running[0]}]",
                        )
                        handle.process.terminate()
                        # next pump sees it dead and requeues its units

                # 4. shards that exhausted their retries.
                for index in [
                    i for i, count in failures.items()
                    if count > config.max_retries
                ]:
                    del failures[index]
                    unit = self._steal_unit(index, pending, workers)
                    if unit is not None and index not in results:
                        self._run_exhausted(unit, results)
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE_POOLS.discard(self)
            self._shutdown(workers)
            self.stats.elapsed_seconds = time.monotonic() - started
            self.finished.set()

        return results

    def _handle_message(self, message, workers, results, metrics) -> None:
        kind = message[0]
        if kind == "hb":
            self.stats.heartbeats += 1
            return
        worker_id, shard_index, attempt = message[1], message[2], message[3]
        handle = workers.get(worker_id)
        if kind == "start":
            if handle is not None and shard_index in handle.assigned:
                handle.running = (shard_index, time.monotonic())
            return
        if kind == "done":
            unit = handle.assigned.pop(shard_index, None) if handle else None
            if handle is not None and handle.running \
                    and handle.running[0] == shard_index:
                if unit is not None:
                    metrics.log_histogram("engine.shard_seconds").observe(
                        time.monotonic() - handle.running[1]
                    )
                handle.running = None
            # Dedupe: a retried unit can complete twice (a `done`
            # already in the pipe when its worker was declared dead).
            if shard_index not in results:
                results[shard_index] = message[4]
                payload = message[5] if len(message) > 5 else None
                if payload is not None:
                    self.payloads[shard_index] = (worker_id, payload)
                self.stats.completed += 1
                metrics.counter("engine.shards_completed_total").inc()
            return
        if kind == "task_error":
            # Pure tasks fail deterministically: no retry, fail the job.
            if handle is not None:
                handle.assigned.pop(shard_index, None)
                if handle.running and handle.running[0] == shard_index:
                    handle.running = None
            raise ShardError(
                shard_index,
                f"task raised on attempt {attempt}: {message[4]}",
                details=message[5],
            )

    @staticmethod
    def _steal_unit(index: int, pending: deque, workers) -> _Unit | None:
        """Remove shard ``index`` from wherever it is queued/assigned."""
        for unit in list(pending):
            if unit.shard.index == index:
                pending.remove(unit)
                return unit
        for handle in workers.values():
            if index in handle.assigned:
                return handle.assigned.pop(index)
        return None

    def _shutdown(self, workers) -> None:
        for handle in workers.values():
            try:
                handle.task_queue.put_nowait(("stop",))
            except queue_module.Full:
                pass  # terminated below
        deadline = time.monotonic() + 2.0
        for handle in workers.values():
            try:
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                if handle.process.is_alive():  # pragma: no cover
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
                handle.process.close()
            except ValueError:  # pragma: no cover - already closed
                pass
            handle.reports.close()
            handle.task_queue.cancel_join_thread()
            handle.task_queue.close()
