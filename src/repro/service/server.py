"""The asyncio service: admission → fair queue → dispatchers → handlers.

Request lifecycle::

    connection reader ──► token bucket ──► fair queue ──► dispatcher
        (per conn)         (per client)      (global)      (N tasks)
                              │ 429             │ 503         │
                              ▼                 ▼             ▼
                           refused            shed        handler →
                                                          response

- The **reader** per connection parses NDJSON lines and answers
  protocol errors (400) inline without touching the queue.
- **Admission** charges the request's ``client`` identity (or the
  connection's default) one token; an empty bucket answers 429 with
  the bucket's exact ``retry_after``.
- The **fair queue** bounds memory (per-client and total depth; a
  full queue answers 503) and orders dispatch by deficit round-robin,
  so one client's backlog never starves another's single request.
- **Dispatchers** are ``config.dispatchers`` long-lived tasks.  Each
  pops under fairness and runs the handler inside its own
  ``telemetry_session`` — task-local via ``contextvars``, so
  concurrent requests never share a session — then attaches
  ``queue_ms``/``handle_ms``/``fp_events`` to the response.
- **Shutdown** (:meth:`FPService.stop`) stops accepting, lets the
  queue drain, flushes the micro-batchers, closes the engine
  gracefully (draining in-flight shards), and only then cancels the
  dispatchers.  Every accepted request is answered.

The server binds a TCP port (``port=0`` picks a free one) so the load
generator, the CLI, and tests all exercise the real wire path.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import time
from typing import Any

from repro.errors import ServiceError
from repro.service.batching import JobCoalescer, MicroBatcher
from repro.service.handlers import Handlers
from repro.service.protocol import (
    INTERNAL_ERROR,
    MAX_LINE_BYTES,
    OVERLOADED,
    RATE_LIMITED,
    Response,
    decode_request,
    encode,
)
from repro.service.ratelimit import FairQueue, TokenBucket
from repro.service.sessions import SessionStore
from repro.telemetry import (
    LogHistogram,
    Telemetry,
    flag_labels,
    parse_traceparent,
    render_prometheus,
    telemetry_session,
)
from repro.telemetry.merge import merge_metric
from repro.telemetry.metrics import format_metric_name

__all__ = ["ServiceConfig", "FPService"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`FPService`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read FPService.port after start
    service_seed: int = 754
    dispatchers: int = 8
    #: per-client token bucket: sustained requests/second and burst cap
    rate: float = 2000.0
    burst: float = 500.0
    per_client_depth: int = 512
    total_depth: int = 4096
    batch_max_lanes: int = 4096
    job_max_riders: int = 16
    backend: str = "auto"
    cache_entries: int = 4096
    drain_timeout: float = 5.0


class _ClientState:
    __slots__ = ("bucket", "limited", "shed")

    def __init__(self, bucket: TokenBucket) -> None:
        self.bucket = bucket
        self.limited = 0
        self.shed = 0


@dataclasses.dataclass
class _Work:
    """One admitted request waiting for a dispatcher."""

    request: Any
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock
    enqueued: float


class FPService:
    """The serving subsystem.  Start/stop, or use as an async CM."""

    def __init__(self, config: ServiceConfig | None = None, *,
                 engine=None) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine
        #: service-owned aggregate telemetry (not ambient; per-request
        #: sessions are separate and task-local)
        self.telemetry = Telemetry.create()
        sessions = SessionStore(self.config.service_seed)
        from repro.softfloat.backend import get_backend

        batcher = MicroBatcher(
            get_backend(self.config.backend),
            max_lanes=self.config.batch_max_lanes,
            metrics=self.telemetry.metrics,
        )
        coalescer = None
        if engine is not None:
            coalescer = JobCoalescer(
                engine,
                max_jobs=self.config.job_max_riders,
                seed=self.config.service_seed,
                metrics=self.telemetry.metrics,
            )
        self.handlers = Handlers(
            service_seed=self.config.service_seed,
            engine=engine,
            backend=self.config.backend,
            sessions=sessions,
            batcher=batcher,
            coalescer=coalescer,
            cache_entries=self.config.cache_entries,
        )
        self.queue = FairQueue(
            per_client_depth=self.config.per_client_depth,
            total_depth=self.config.total_depth,
            metrics=self.telemetry.metrics,
        )
        self._clients: dict[str, _ClientState] = {}
        #: answer timestamps for the qps window (monotonic seconds)
        self._answer_times: collections.deque[float] = collections.deque(
            maxlen=8192
        )
        #: latest trace-id exemplar per canonical metric spelling
        self._exemplars: dict[str, tuple[str, float]] = {}
        self._wakeup = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._conn_serial = 0
        self._accepting = False
        self._stopped = False
        self.port: int | None = None
        #: lifetime counters, exposed by the ``stats`` method
        self.accepted = 0
        self.answered = 0
        self.limited = 0
        self.shed = 0
        self.errors = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._accepting = True
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatch-{i}")
            for i in range(self.config.dispatchers)
        ]

    async def stop(self) -> None:
        """Graceful shutdown: answer everything accepted, then exit."""
        if self._stopped:
            return
        self._accepting = False  # new requests now answered 503
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while len(self.queue) and time.monotonic() < deadline:
            self._wakeup.set()
            await asyncio.sleep(0.005)
        await self.handlers.drain()
        # wait for dispatchers to finish their in-flight handler calls
        while (self.answered + self.errors < self.accepted
               and time.monotonic() < deadline):
            await asyncio.sleep(0.005)
        self._stopped = True
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        if self.engine is not None:
            await asyncio.to_thread(
                self.engine.close, self.config.drain_timeout
            )

    async def __aenter__(self) -> "FPService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection reader ---------------------------------------------

    def _client_state(self, client: str) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            state = _ClientState(
                TokenBucket(self.config.rate, self.config.burst)
            )
            self._clients[client] = state
        return state

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._conn_serial += 1
        default_client = f"conn-{self._conn_serial}"
        write_lock = asyncio.Lock()
        metrics = self.telemetry.metrics
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer, write_lock,
                        Response.failure(None, 400, "request line too long"),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                except ServiceError as exc:
                    await self._write(
                        writer, write_lock,
                        Response.failure(None, exc.code, exc.message),
                    )
                    continue
                client = request.client or default_client
                metrics.counter(
                    "service.requests_total", method=request.method
                ).inc()
                if not self._accepting:
                    await self._write(
                        writer, write_lock,
                        Response.failure(
                            request.id, OVERLOADED, "service shutting down"
                        ),
                    )
                    continue
                state = self._client_state(client)
                verdict = state.bucket.try_acquire()
                if verdict != 0.0:
                    state.limited += 1
                    self.limited += 1
                    metrics.counter("service.limited_total").inc()
                    await self._write(
                        writer, write_lock,
                        Response.failure(
                            request.id, RATE_LIMITED, "rate limited",
                            retry_after=verdict,
                        ),
                    )
                    continue
                work = _Work(
                    request=request,
                    writer=writer,
                    write_lock=write_lock,
                    enqueued=time.monotonic(),
                )
                if not self.queue.push(client, work):
                    state.shed += 1
                    self.shed += 1
                    metrics.counter("service.shed_total").inc()
                    await self._write(
                        writer, write_lock,
                        Response.failure(
                            request.id, OVERLOADED, "queue full, shed"
                        ),
                    )
                    continue
                self.accepted += 1
                self._wakeup.set()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- dispatchers -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            work = self.queue.pop()
            if work is None:
                self._wakeup.clear()
                if len(self.queue):
                    continue  # racing producer refilled before clear
                await self._wakeup.wait()
                continue
            await self._handle(work)

    async def _handle(self, work: _Work) -> None:
        request = work.request
        started = time.monotonic()
        queue_ms = (started - work.enqueued) * 1e3
        if request.method in ("stats", "metrics"):
            # answered inline: introspection must work even when the
            # handler path is saturated or the engine is draining
            if request.method == "stats":
                result: Any = self.stats()
            else:
                result = {
                    "content_type": "text/plain; version=0.0.4",
                    "text": self.metrics_text(),
                }
            response = Response.success(request.id, result)
            self.answered += 1
            self._answer_times.append(time.monotonic())
            await self._write(work.writer, work.write_lock, response)
            return
        incoming = (parse_traceparent(request.traceparent)
                    if request.traceparent else None)
        session = Telemetry.create(
            trace_id=incoming.trace_id if incoming else None
        )
        try:
            try:
                with telemetry_session(session):
                    with session.tracer.span(
                        "service.request", method=request.method,
                    ):
                        result = await self.handlers.dispatch(
                            request.method, request.params
                        )
            finally:
                handle_ms = (time.monotonic() - started) * 1e3
                events = self._absorb_session(
                    session, request.method, handle_ms
                )
            response = Response.success(
                request.id, result,
                telemetry={
                    "queue_ms": round(queue_ms, 3),
                    "handle_ms": round(handle_ms, 3),
                    "fp_events": events,
                    "trace_id": session.trace_id,
                },
            )
            self.answered += 1
        except asyncio.CancelledError:
            # shutdown cancelled us mid-handler: still answer
            response = Response.failure(
                request.id, OVERLOADED, "service shutting down"
            )
            self.errors += 1
            await self._write(work.writer, work.write_lock, response)
            raise
        except ServiceError as exc:
            response = Response.failure(
                request.id, exc.code, exc.message,
                retry_after=exc.retry_after,
            )
            self.errors += 1
        except Exception as exc:  # handler bug: answer, keep serving
            response = Response.failure(
                request.id, INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
            )
            self.errors += 1
            self.telemetry.metrics.counter("service.internal_errors").inc()
        self.telemetry.metrics.log_histogram(
            "service.handle_ms", method=request.method
        ).observe((time.monotonic() - started) * 1e3)
        self._answer_times.append(time.monotonic())
        await self._write(work.writer, work.write_lock, response)

    def _absorb_session(self, session: Telemetry, method: str,
                        handle_ms: float) -> list[str]:
        """Fold one request session into the service-owned aggregate.

        Counters and log histograms merge exactly, so the aggregate's
        per-flag FP-exception counts and engine/oracle totals are the
        sum over all requests; events replay through the service
        stream (renumbered) for the retained log; and each observed
        flag records a trace-id *exemplar* so a scrape can jump from a
        counter to the request trace that raised it.  Request spans
        are deliberately dropped — the service would otherwise retain
        every request's span forest forever.  Returns the sorted flag
        labels the request's events raised (its ``fp_events``).
        """
        aggregate = self.telemetry.metrics
        for (name, labels), metric in session.metrics:
            merge_metric(aggregate, name, dict(labels), metric.to_dict())
        labels: set[str] = set()
        for event in (session.events.events if session.events else ()):
            self.telemetry.stream.record(
                event.operation, event.flags,
                fmt=event.fmt, span_path=event.span_path,
            )
            labels.update(flag_labels(event.flags))
        events = sorted(labels)
        trace_id = session.trace_id
        if trace_id is not None:
            for name in events:
                key = format_metric_name(
                    "fpenv.exceptions_total", (("flag", name),)
                )
                self._exemplars[key] = (trace_id, 1.0)
            key = format_metric_name(
                "service.handle_ms", (("method", method),)
            )
            self._exemplars[key] = (trace_id, handle_ms)
        return events

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     response: Response) -> None:
        payload = encode(response.to_dict())
        try:
            async with lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; nothing to answer

    # -- stats -----------------------------------------------------------

    _QPS_WINDOW = 5.0

    def _qps(self) -> float:
        """Answers per second over the trailing window."""
        now = time.monotonic()
        horizon = now - self._QPS_WINDOW
        while self._answer_times and self._answer_times[0] < horizon:
            self._answer_times.popleft()
        n = len(self._answer_times)
        if n < 2:
            return 0.0
        window = max(now - self._answer_times[0], 1e-9)
        return n / window

    def _latency_summary(self) -> dict[str, Any]:
        """Handle-time quantiles aggregated across all methods —
        mergeable histograms make this one associative fold."""
        merged = LogHistogram()
        for (name, _labels), metric in self.telemetry.metrics:
            if name == "service.handle_ms" and isinstance(
                metric, LogHistogram
            ):
                merged.merge(metric)
        return {
            "count": merged.count,
            "p50_ms": merged.quantile(0.50),
            "p95_ms": merged.quantile(0.95),
            "p99_ms": merged.quantile(0.99),
        }

    def _fp_exception_counts(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        exemplars: dict[str, str] = {}
        for (name, labels), metric in self.telemetry.metrics:
            if name != "fpenv.exceptions_total":
                continue
            flag = dict(labels).get("flag", "?")
            counts[flag] = metric.value
            exemplar = self._exemplars.get(
                format_metric_name(name, labels)
            )
            if exemplar is not None:
                exemplars[flag] = exemplar[0]
        return {"counts": counts, "exemplars": exemplars}

    def stats(self) -> dict[str, Any]:
        per_client = {
            client: {
                "limited": state.limited,
                "shed": state.shed,
                "tokens": round(state.bucket.peek(), 3),
                "served": self.queue.served.get(client, 0),
            }
            for client, state in sorted(self._clients.items())
        }
        return {
            "accepted": self.accepted,
            "answered": self.answered,
            "errors": self.errors,
            "limited": self.limited,
            "shed": self.shed,
            "queued": len(self.queue),
            "qps": round(self._qps(), 3),
            "latency_ms": self._latency_summary(),
            "fp_exceptions": self._fp_exception_counts(),
            "clients": per_client,
            "handlers": self.handlers.stats(),
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the aggregate registry.

        Derived gauges (qps, cache hit ratio, current queue depth) are
        refreshed at scrape time; per-flag FP-exception counters carry
        trace-id exemplars pointing at the most recent raising request.
        """
        metrics = self.telemetry.metrics
        metrics.gauge("service.qps").set(self._qps())
        metrics.gauge("service.queue_depth").set(len(self.queue))
        handler_stats = self.handlers.stats()
        lint = handler_stats.get("lint_cache") or {}
        looked_up = (lint.get("hits") or 0) + (lint.get("misses") or 0)
        metrics.gauge("service.lint_cache_hit_ratio").set(
            (lint.get("hits") or 0) / looked_up if looked_up else 0.0
        )
        return render_prometheus(metrics, exemplars=self._exemplars)
