"""Sharded parallel execution for the repo's heavyweight sweeps.

The engine is the one execution path of the expensive computations —
the oracle's differential conformance sweep
(:func:`~repro.oracle.runner.run_conformance`), the study simulation
(:func:`~repro.analysis.study.run_study`) and the lint-corpus sweep
(:func:`~repro.staticfp.corpus.corpus_outcomes`).  Each builds one
**job**: an ordered list of pure, JSON-serializable **shards**, run in
process (``workers`` 0 or 1) or on a fault-tolerant multiprocessing
worker pool, fronted by a content-addressed result cache.

The non-negotiable contract is *bit-identity*: a job's merged result
is byte-for-byte the same at any worker count and with any shard
served from cache.  Because a serial run *is* the engine at
``workers=0``, "sharded == serial" holds by construction.  Three
mechanisms carry it:

- per-shard randomness is **derived from position**, never drawn from
  a shared sequential stream (:func:`~repro.engine.tasks.derive_seed`,
  :func:`~repro.population.response_model.respondent_rng`);
- shard boundaries are computed in **closed form** so a shard knows
  its slice of a global budget without replaying the prefix
  (:func:`~repro.oracle.runner.plan_op_slices`);
- merges run in **shard-index order** regardless of completion order.

Layering::

    tasks.py     job model, task registry, seed derivation, spec_job
    cache.py     content-addressed result cache (LRU + JSONL disk)
    events.py    EngineFlag fault events on the telemetry stream
    worker.py    worker-process entry point
    pool.py      multiprocessing pool: batching, heartbeats, retries
    engine.py    the facade: cache -> pool/serial -> ordered merge
    shutdown.py  drain-first SIGINT/SIGTERM handling
    testing.py   fault-injection tasks (crash/hang/fail probes)

The task bodies live next to the code they call:
``oracle.op_slice`` in :mod:`repro.oracle.runner`,
``study.simulate_slice`` in :mod:`repro.analysis.study` and
``staticfp.lint_entries`` in :mod:`repro.staticfp.corpus`.
"""

import importlib

#: Public name -> the submodule defining it.  Names resolve on first
#: access, so the modules that register tasks (``from
#: repro.engine.tasks import task``) do not import the pool and cache.
_EXPORTS = {
    **dict.fromkeys(("MISS", "CacheStats", "ResultCache", "cache_key",
                     "default_cache_path", "machine_fingerprint"), "cache"),
    **dict.fromkeys(("Engine", "EngineConfig", "RunReport",
                     "in_process_engine"), "engine"),
    **dict.fromkeys(("EngineFlag", "PoolStats", "emit_engine_event"),
                    "events"),
    **dict.fromkeys(("PoolConfig", "WorkerPool", "active_pools",
                     "request_stop_all"), "pool"),
    "graceful_shutdown": "shutdown",
    **dict.fromkeys(("Job", "Shard", "ShardContext", "TaskSpec",
                     "derive_seed", "ensure_tasks_loaded", "execute_task",
                     "get_task", "make_job", "registered_tasks", "spec_job",
                     "task"), "tasks"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
