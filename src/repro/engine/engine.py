"""The engine facade: cache → pool/serial → ordered merge.

:class:`Engine` is the one execution path of the oracle, study and
lint-corpus sweeps, the service's coalesced jobs and ``repro engine
run``.  Per job it:

1. looks every shard up in the content-addressed result cache (when
   the job is cacheable);
2. runs the misses — on a :class:`~repro.engine.pool.WorkerPool` when
   ``workers >= 2``, in-process otherwise (``workers=0``/``1`` is the
   degenerate serial engine, same code path as a pool whose every
   shard missed);
3. stores fresh results back in the cache;
4. calls the job's ``merge`` over results **in shard-index order** —
   the property that keeps parallel output bit-identical to serial.

Telemetry: the whole job runs under an ``engine.job`` span with
shard/cache-hit counts attached, and cache hit rates feed the
``engine.cache_hits_total`` / ``engine.cache_misses_total`` counters.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.cache import MISS, ResultCache
from repro.engine.cache import cache_key as compute_cache_key
from repro.engine.events import PoolStats
from repro.engine.tasks import Job, Shard, ShardContext, execute_task
from repro.errors import EngineError, ShardError
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # the pool loads only when one starts
    from repro.engine.pool import PoolConfig, WorkerPool

__all__ = ["EngineConfig", "Engine", "RunReport", "in_process_engine"]


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """How an :class:`Engine` executes and caches jobs.

    ``workers`` counts worker *processes*: 0 and 1 both mean run
    shards in the submitting process (no pool, no IPC).
    """

    workers: int = 0
    batch_size: int = 1
    queue_depth: int = 2
    shard_timeout: float | None = 120.0
    heartbeat_interval: float = 1.0
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    start_method: str | None = None
    fallback_serial: bool = True
    cache_enabled: bool = True
    cache_memory: int = 512
    cache_path: str | Path | None = None

    def pool_config(self) -> PoolConfig:
        from repro.engine.pool import PoolConfig

        return PoolConfig(
            workers=self.workers,
            batch_size=self.batch_size,
            queue_depth=self.queue_depth,
            shard_timeout=self.shard_timeout,
            heartbeat_interval=self.heartbeat_interval,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            start_method=self.start_method,
            fallback_serial=self.fallback_serial,
        )


@dataclasses.dataclass
class RunReport:
    """What one :meth:`Engine.run` did, beyond its return value."""

    job: str
    shards: int
    from_cache: int
    executed: int
    parallel: bool
    elapsed_seconds: float
    pool: PoolStats | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "job": self.job,
            "shards": self.shards,
            "from_cache": self.from_cache,
            "executed": self.executed,
            "parallel": self.parallel,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        if self.pool is not None:
            payload["pool"] = self.pool.to_dict()
        return payload


class Engine:
    """Executes :class:`~repro.engine.tasks.Job`\\ s per its config."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.cache = ResultCache(
            capacity=self.config.cache_memory,
            disk_path=self.config.cache_path,
        ) if self.config.cache_enabled else None
        self.last_report: RunReport | None = None
        self._active_pool: WorkerPool | None = None
        self._closed = False

    @property
    def shards_per_unit(self) -> int:
        """How many shards a job plans per independent unit of work (an
        oracle op, a study cohort, the lint corpus).

        In process, one: extra shards would only repeat per-shard setup
        (regenerating a case stream, re-sampling a cohort's
        backgrounds).  On a pool, twice the worker count, so a slow
        shard does not leave the other workers idle.
        """
        workers = self.config.workers
        return 2 * workers if workers >= 2 else 1

    # -- internals -----------------------------------------------------

    def _cache_lookup(self, job: Job) -> tuple[dict[int, Any], list[Shard]]:
        """Split a job's shards into (cached results, misses)."""
        cached: dict[int, Any] = {}
        misses: list[Shard] = []
        if self.cache is None or not job.cacheable:
            return cached, list(job.shards)
        metrics = get_telemetry().metrics
        for shard in job.shards:
            key = compute_cache_key(shard.spec.canonical(), shard.seed)
            result = self.cache.get(key)
            if result is MISS:
                metrics.counter("engine.cache_misses_total").inc()
                misses.append(shard)
            else:
                metrics.counter("engine.cache_hits_total").inc()
                cached[shard.index] = result
        return cached, misses

    def _cache_store(self, job: Job, shards: list[Shard],
                     results: dict[int, Any]) -> None:
        if self.cache is None or not job.cacheable:
            return
        for shard in shards:
            if shard.index in results:
                key = compute_cache_key(shard.spec.canonical(), shard.seed)
                self.cache.put(key, shard.spec.task, results[shard.index])

    def _run_serial(self, job: Job, shards: list[Shard]) -> dict[int, Any]:
        n_shards = len(job.shards)
        results: dict[int, Any] = {}
        for shard in shards:
            ctx = ShardContext(
                index=shard.index, n_shards=n_shards, seed=shard.seed
            )
            try:
                results[shard.index] = execute_task(
                    shard.spec.task, shard.spec.params, ctx
                )
            except ShardError:
                raise
            except Exception as exc:
                raise ShardError(
                    shard.index,
                    f"task raised on attempt {ctx.attempt}: {exc!r}",
                    details=traceback.format_exc(),
                ) from exc
        return results

    @staticmethod
    def _merge_worker_telemetry(telemetry, job: Job, payloads, job_span,
                                ) -> None:
        """Fold harvested worker payloads into the ambient session.

        One synthetic ``engine.shard`` span is manufactured per
        harvested shard, parented under the open ``engine.job`` span,
        and the worker's spans/metrics/events merge beneath it.  The
        walk is in **shard-index order** regardless of completion
        order, so — log-bucketed metrics being associative and event
        sequence numbers being assigned at merge — the merged forest
        is deterministic under any shard arrival interleaving.
        """
        if not payloads or not telemetry.enabled:
            return
        from repro.telemetry.merge import merge_payload

        tracer = telemetry.tracer
        parent_id = getattr(job_span, "span_id", 0)
        parent_path = getattr(job_span, "path", "")
        shard_path = (f"{parent_path}/engine.shard" if parent_path
                      else "engine.shard")
        for shard in job.shards:
            entry = payloads.get(shard.index)
            if entry is None:
                continue
            worker_id, payload = entry
            shard_span_id = tracer.add_record(
                "engine.shard",
                parent_id=parent_id,
                path=shard_path,
                wall=float(payload.get("wall") or 0.0),
                cpu=float(payload.get("cpu") or 0.0),
                attrs={
                    "shard": shard.index,
                    "worker": worker_id,
                    "task": shard.spec.task,
                },
            )
            merge_payload(
                telemetry, payload,
                under_span_id=shard_span_id, path_prefix=shard_path,
            )

    # -- public API ----------------------------------------------------

    def run(self, job: Job) -> Any:
        """Execute ``job`` and return its merged result."""
        if self._closed:
            raise EngineError(f"engine is closed; cannot run {job.name!r}")
        telemetry = get_telemetry()
        started = time.monotonic()
        pool_stats: PoolStats | None = None
        with telemetry.tracer.span(
            "engine.job", job=job.name, shards=len(job.shards),
            workers=self.config.workers,
        ) as span:
            cached, misses = self._cache_lookup(job)
            parallel = self.config.workers >= 2 and len(misses) > 1
            if parallel:
                from repro.engine.pool import WorkerPool

                pool = WorkerPool(self.config.pool_config())
                self._active_pool = pool
                try:
                    fresh = pool.run(misses)
                finally:
                    self._active_pool = None
                pool_stats = pool.stats
                pool_stats.from_cache = len(cached)
                self._merge_worker_telemetry(
                    telemetry, job, pool.payloads, span
                )
            elif misses:
                fresh = self._run_serial(job, misses)
            else:
                fresh = {}
            self._cache_store(job, misses, fresh)
            results = {**cached, **fresh}
            ordered = [results[shard.index] for shard in job.shards]
            span.set("from_cache", len(cached))
            span.set("executed", len(fresh))
        self.last_report = RunReport(
            job=job.name,
            shards=len(job.shards),
            from_cache=len(cached),
            executed=len(fresh),
            parallel=parallel,
            elapsed_seconds=time.monotonic() - started,
            pool=pool_stats,
        )
        return job.merge(ordered) if job.merge is not None else ordered

    def close(self, timeout: float = 2.0) -> None:
        """Shut the engine down gracefully.

        Any in-flight pool run is asked to drain: currently executing
        shards finish (up to ``timeout`` seconds), nothing new is
        dispatched, and every worker process is reaped — the running
        :meth:`run` call raises
        :class:`~repro.errors.EngineInterrupted`.  Subsequent ``run``
        calls are refused.  Idempotent; safe to call from another
        thread (the service's drain path) or after SIGTERM/SIGINT.
        """
        self._closed = True
        pool = self._active_pool
        if pool is not None:
            pool.request_stop(drain_timeout=timeout)
            pool.finished.wait(timeout + 2.0)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def in_process_engine() -> Engine:
    """The sweeps' default engine: shards run in the calling process and
    the result cache is off, so a serial run reads and writes no cache
    entry."""
    return Engine(EngineConfig(cache_enabled=False))
