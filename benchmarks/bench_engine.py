"""Engine benchmark: parallel speedup, cache hit rate, bit-identity.

Three claims from DESIGN's acceptance bar are measured here:

1. **Bit-identity** — a 4-worker oracle sweep produces byte-identical
   canonical JSON to the serial runner (asserted unconditionally).
2. **Cache effectiveness** — rerunning the same job serves >= 90% of
   shards from the content-addressed cache (asserted unconditionally).
3. **Speedup** — >= 2x wall-clock at 4 workers.  This one is gated on
   ``os.cpu_count() >= 4``: on a single-core CI box the pool cannot
   beat serial and the number is reported, not asserted.

``python benchmarks/bench_engine.py`` writes the measurements to
``BENCH_engine.json`` for the CI artifact trail; the ``test_*``
functions run the same probes under pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import time

from repro.engine import Engine, EngineConfig
from repro.oracle import FORMATS_BY_NAME
from repro.oracle.runner import run_conformance

BENCH_OPS = ["add", "mul", "div", "sqrt"]
BENCH_BUDGET = 4000
BENCH_SEED = 754
BENCH_WORKERS = 4


def _engine(workers: int, cache_path=None) -> Engine:
    return Engine(EngineConfig(
        workers=workers,
        cache_enabled=cache_path is not None,
        cache_path=cache_path,
        shard_timeout=300.0,
    ))


def _sweep(engine: Engine):
    fmt = FORMATS_BY_NAME["binary16"]
    return run_conformance(
        fmt, BENCH_OPS, budget=BENCH_BUDGET, seed=BENCH_SEED, engine=engine,
    )


def measure() -> dict:
    """Run the serial/parallel/cached probes and collect the numbers."""
    fmt = FORMATS_BY_NAME["binary16"]

    started = time.perf_counter()
    serial_report = run_conformance(
        fmt, BENCH_OPS, budget=BENCH_BUDGET, seed=BENCH_SEED
    )
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_report = _sweep(_engine(BENCH_WORKERS))
    parallel_seconds = time.perf_counter() - started

    bit_identical = (parallel_report.canonical_json()
                     == serial_report.canonical_json())

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "bench-cache.jsonl")
        warm = _engine(0, cache_path=cache_path)
        _sweep(warm)
        rerun = _engine(0, cache_path=cache_path)
        started = time.perf_counter()
        cached_report = _sweep(rerun)
        cached_seconds = time.perf_counter() - started
        report = rerun.last_report
        cache_hit_rate = (report.from_cache / report.shards
                          if report.shards else 0.0)
        cached_identical = (cached_report.canonical_json()
                            == serial_report.canonical_json())

    return {
        "ops": BENCH_OPS,
        "budget": BENCH_BUDGET,
        "seed": BENCH_SEED,
        "workers": BENCH_WORKERS,
        "cpus": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "cached_seconds": round(cached_seconds, 4),
        "cache_hit_rate_rerun": cache_hit_rate,
        "bit_identical": bit_identical,
        "cached_bit_identical": cached_identical,
    }


def check(numbers: dict) -> list[str]:
    """The acceptance assertions; returns failure messages."""
    failures = []
    if not numbers["bit_identical"]:
        failures.append("parallel report is not bit-identical to serial")
    if not numbers["cached_bit_identical"]:
        failures.append("cached report is not bit-identical to serial")
    if numbers["cache_hit_rate_rerun"] < 0.90:
        failures.append(
            f"cache hit rate on rerun {numbers['cache_hit_rate_rerun']:.0%}"
            " < 90%"
        )
    if (numbers["cpus"] or 1) >= 4 and numbers["speedup"] < 2.0:
        failures.append(
            f"speedup {numbers['speedup']}x < 2x at {numbers['workers']}"
            f" workers on {numbers['cpus']} cpus"
        )
    return failures


# -- pytest-benchmark probes -------------------------------------------


def test_engine_bench_acceptance():
    numbers = measure()
    print()
    print(json.dumps(numbers, indent=2))
    assert check(numbers) == []


def test_serial_engine_overhead(benchmark):
    """A serial sweep on an explicit in-process engine."""
    fmt = FORMATS_BY_NAME["binary16"]
    eng = _engine(0)
    report = benchmark(
        run_conformance, fmt, ["add"], budget=500, seed=BENCH_SEED,
        engine=eng,
    )
    serial = run_conformance(fmt, ["add"], budget=500, seed=BENCH_SEED)
    assert report.canonical_json() == serial.canonical_json()


def test_cached_rerun_latency(benchmark, tmp_path):
    """A fully cached job is pure lookup + merge."""
    fmt = FORMATS_BY_NAME["binary16"]
    cache_path = tmp_path / "cache.jsonl"
    warm = _engine(0, cache_path=cache_path)
    run_conformance(fmt, ["add"], budget=500, seed=BENCH_SEED, engine=warm)

    def rerun():
        eng = _engine(0, cache_path=cache_path)
        return run_conformance(
            fmt, ["add"], budget=500, seed=BENCH_SEED, engine=eng,
        )

    report = benchmark(rerun)
    serial = run_conformance(fmt, ["add"], budget=500, seed=BENCH_SEED)
    assert report.canonical_json() == serial.canonical_json()


def main() -> int:
    numbers = measure()
    with open("BENCH_engine.json", "w") as handle:
        json.dump(numbers, handle, indent=2)
        handle.write("\n")
    print(json.dumps(numbers, indent=2))
    failures = check(numbers)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        gated = (numbers["cpus"] or 1) < 4
        note = " (speedup not asserted: <4 cpus)" if gated else ""
        print(f"bench_engine: ok{note}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
