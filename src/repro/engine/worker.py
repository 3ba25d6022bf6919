"""Worker-process entry point.

Kept to a module-level function so it survives both ``fork`` and
``spawn`` start methods.  The bootstrap order matters:

1. :func:`repro.telemetry.reset_for_process` — a forked child inherits
   the parent's ambient telemetry session in its context;
   recording into it would be silent data loss (the objects are dead
   copies).  Workers start from an explicit NULL session.
2. :func:`repro.engine.tasks.ensure_tasks_loaded` — materialize the
   task registry in this process (a no-op under ``fork``, essential
   under ``spawn``).

The message protocol (worker side):

- pull ``("batch", units)`` from this worker's private task queue;
  each unit is ``(shard_index, n_shards, task, params, seed, attempt,
  traceparent)`` — ``traceparent`` is ``None`` when the dispatching
  run has telemetry off, or the parent trace's context string when on;
- per unit: ``("start", ...)`` then ``("done", ..., result, payload)``
  or ``("task_error", ..., repr, traceback)``.  ``payload`` is the
  unit's harvested telemetry (a
  :func:`~repro.telemetry.merge.capture_payload` dict) when a
  traceparent was supplied, else ``None`` — telemetry rides beside the
  result, never inside it, so result bytes are identical either way;
- send ``("hb", worker_id)`` whenever the task queue is idle past the
  heartbeat interval, so a silent worker is distinguishable from a
  starved one;
- exit on ``("stop",)``.

Outbound messages go synchronously down this worker's own pipe
(``reports``), so a death can garble at most this worker's channel.
Workers never acknowledge receipt: the parent tracks assignment on its
own side and treats everything it assigned to a dead worker as lost.
``done`` messages that arrived before a death are deduplicated by the
parent.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback

__all__ = ["worker_main"]

#: Worker sessions are short-lived (one unit each); a modest span cap
#: bounds the payload a chatty task can ship back per shard.
_WORKER_MAX_SPANS = 10_000


def worker_main(worker_id: int, task_queue, reports,
                heartbeat_interval: float) -> None:
    """Run the worker loop until a stop sentinel (or a fatal signal)."""
    from repro.telemetry import reset_for_process

    reset_for_process()

    from repro.engine.tasks import ShardContext, ensure_tasks_loaded, \
        execute_task

    ensure_tasks_loaded()

    while True:
        try:
            message = task_queue.get(timeout=heartbeat_interval)
        except queue_module.Empty:
            reports.send(("hb", worker_id))
            continue
        if message[0] == "stop":
            return
        for unit in message[1]:
            shard_index, n_shards, task_name, params, seed, attempt = unit[:6]
            traceparent = unit[6] if len(unit) > 6 else None
            reports.send(("start", worker_id, shard_index, attempt))
            ctx = ShardContext(
                index=shard_index, n_shards=n_shards, seed=seed,
                attempt=attempt,
            )
            try:
                if traceparent is None:
                    result = execute_task(task_name, params, ctx)
                    payload = None
                else:
                    result, payload = _execute_traced(
                        execute_task, task_name, params, ctx,
                        traceparent, worker_id,
                    )
            except Exception as exc:
                reports.send((
                    "task_error", worker_id, shard_index, attempt,
                    repr(exc), traceback.format_exc(),
                ))
            else:
                reports.send((
                    "done", worker_id, shard_index, attempt, result,
                    payload,
                ))


def _execute_traced(execute_task, task_name, params, ctx, traceparent,
                    worker_id):
    """Run one unit under a worker-local session adopting the parent
    trace; returns ``(result, payload)``.

    The session is per-unit: its metrics are exactly this shard's
    delta, so the parent can fold them in associatively.  The task body
    runs under one ``worker.execute`` root span — anything the task
    itself traces nests below it, and the whole subtree is re-homed
    under the dispatching shard span at merge time.
    """
    from repro.telemetry import (Telemetry, capture_payload,
                                 parse_traceparent, telemetry_session)

    context = parse_traceparent(traceparent)
    session = Telemetry.create(
        trace_id=context.trace_id if context else None,
        max_spans=_WORKER_MAX_SPANS,
    )
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with telemetry_session(session):
        with session.tracer.span(
            "worker.execute", task=task_name, shard=ctx.index,
            attempt=ctx.attempt, worker=worker_id,
        ):
            result = execute_task(task_name, params, ctx)
    payload = capture_payload(
        session,
        wall=time.perf_counter() - wall0,
        cpu=time.process_time() - cpu0,
    )
    return result, payload
