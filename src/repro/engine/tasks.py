"""The job model: pure-function task specs, shards, and the registry.

A *task* is a named pure function ``fn(params, ctx) -> result`` where
``params`` is a JSON-able dict, ``ctx`` is the :class:`ShardContext`
(shard index, deterministic per-shard seed, retry attempt), and the
result is JSON-able.  Purity is the engine's load-bearing contract:
it is what makes a shard safe to retry after a worker dies, safe to
run in any process, and safe to serve from the result cache — the
same spec must mean the same bits everywhere, forever.

A :class:`Job` is an ordered tuple of :class:`Shard`\\ s plus a
parent-side ``merge`` callable.  Shard order is semantic: ``merge``
receives results in shard-index order regardless of which worker
finished first, which is how parallel runs stay bit-identical to
serial ones.

Per-shard seeds are *derived*, never sequential: :func:`derive_seed`
hashes ``(root_seed, *key)`` so shard N's randomness is independent of
how many shards exist and of every other shard's consumption — the
same discipline :func:`repro.population.response_model.respondent_rng`
applies to respondents.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import EngineError

__all__ = [
    "ShardContext",
    "TaskSpec",
    "Shard",
    "Job",
    "derive_seed",
    "make_job",
    "spec_job",
    "task",
    "get_task",
    "registered_tasks",
    "execute_task",
    "ensure_tasks_loaded",
]

TaskFn = Callable[[dict, "ShardContext"], Any]


def derive_seed(root_seed: int, *key: Any) -> int:
    """A 63-bit seed derived by hashing ``(root_seed, *key)``.

    Positional, not sequential: reordering or resizing the shard list
    never changes any individual shard's seed.
    """
    digest = hashlib.sha256(repr((root_seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclasses.dataclass(frozen=True)
class ShardContext:
    """Execution context a task receives alongside its params.

    ``attempt`` is 0 on first execution and increments on each retry —
    results must not depend on it (fault-injection test tasks are the
    sanctioned exception).
    """

    index: int
    n_shards: int
    seed: int
    attempt: int = 0


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: a registered task name plus its params."""

    task: str
    params: dict[str, Any]

    def canonical(self) -> str:
        """Stable JSON spelling (sorted keys, no whitespace) — the
        basis of the content-addressed cache key."""
        return json.dumps(
            {"task": self.task, "params": self.params},
            sort_keys=True, separators=(",", ":"), default=str,
        )


@dataclasses.dataclass(frozen=True)
class Shard:
    """A task spec pinned to a position in a job with a derived seed."""

    index: int
    spec: TaskSpec
    seed: int


@dataclasses.dataclass(frozen=True)
class Job:
    """An ordered set of shards plus the parent-side reduce step.

    ``merge`` runs in the submitting process over shard results in
    index order (``None`` means "return the ordered list").
    ``cacheable`` opts the whole job out of the result cache (for
    tasks whose results are not functions of their spec — the
    fault-injection tasks, probes, ...).
    """

    name: str
    shards: tuple[Shard, ...]
    merge: Callable[[list[Any]], Any] | None = None
    cacheable: bool = True


def make_job(
    name: str,
    task_name: str,
    param_list: Sequence[dict[str, Any]],
    *,
    seed: int = 754,
    merge: Callable[[list[Any]], Any] | None = None,
    cacheable: bool = True,
) -> Job:
    """Build a job with one shard per params dict, seeds derived from
    ``(seed, task_name, shard_index)``."""
    shards = tuple(
        Shard(
            index=index,
            spec=TaskSpec(task=task_name, params=dict(params)),
            seed=derive_seed(seed, task_name, index),
        )
        for index, params in enumerate(param_list)
    )
    return Job(name=name, shards=shards, merge=merge, cacheable=cacheable)


def spec_job(
    name: str,
    task_name: str,
    param_list: Sequence[dict[str, Any]],
    *,
    seed: int,
    merge: Callable[[list[Any]], Any] | None = None,
) -> Job:
    """Build a job whose shard seeds are addressed by *spec*, not position.

    :func:`make_job` seeds by shard index, which is right for tasks that
    draw on ``ctx.seed``.  Tasks that carry their own seeds in their
    params only feed the shard seed into the cache key, and deriving it
    from ``(seed, task_name, spec.canonical())`` keeps that key
    independent of where the shard sits in the job: re-slicing a sweep,
    or coalescing a request with different riders, leaves every
    unchanged shard's cache entry valid.
    """
    shards = []
    for index, params in enumerate(param_list):
        spec = TaskSpec(task=task_name, params=dict(params))
        shards.append(Shard(
            index=index, spec=spec,
            seed=derive_seed(seed, task_name, spec.canonical()),
        ))
    return Job(name=name, shards=tuple(shards), merge=merge)


def split_evenly(n: int, parts: int) -> list[tuple[int, int]]:
    """``[0, n)`` as up to ``parts`` contiguous, non-empty ``(lo, hi)``
    ranges whose sizes differ by at most one."""
    parts = max(1, min(parts, n))
    bounds = [n * j // parts for j in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, TaskFn] = {}
_TASK_MODULES_LOADED = False
_LOAD_LOCK = threading.RLock()


def task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Register a task function under ``name`` (import-time decorator).

    Registration happens at module import, so worker processes
    materialize the same registry by importing the same task modules
    (:func:`ensure_tasks_loaded`) — nothing about the registry itself
    crosses the process boundary.
    """

    def register(fn: TaskFn) -> TaskFn:
        if name in _REGISTRY:
            raise EngineError(f"task {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return register


def get_task(name: str) -> TaskFn:
    """Look up a registered task (loading task modules on demand)."""
    if name not in _REGISTRY:
        ensure_tasks_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown task {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_tasks() -> list[str]:
    """All registered task names (after loading task modules)."""
    ensure_tasks_loaded()
    return sorted(_REGISTRY)


def execute_task(name: str, params: dict, ctx: ShardContext) -> Any:
    """Run one task invocation in the current process."""
    return get_task(name)(params, ctx)


def ensure_tasks_loaded() -> None:
    """Import every module that registers tasks (idempotent).

    Called by worker bootstrap and by registry lookups, so both fork
    and spawn start methods see the full registry.  The flag is set
    only once every import has finished, under a lock: a concurrent
    first lookup waits for the registry instead of finding it empty.
    """
    global _TASK_MODULES_LOADED
    if _TASK_MODULES_LOADED:
        return
    with _LOAD_LOCK:
        if _TASK_MODULES_LOADED:
            return
        # imported for their @task registrations
        import repro.analysis.study  # noqa: F401
        import repro.engine.testing  # noqa: F401
        import repro.oracle.runner  # noqa: F401
        import repro.staticfp.corpus  # noqa: F401
        _TASK_MODULES_LOADED = True
