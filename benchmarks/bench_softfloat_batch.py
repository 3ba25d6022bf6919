"""Softfloat batch-backend benchmark: lanes/sec, speedup, bit-identity.

The batched-backend acceptance bar from the issue is measured here:

1. **Speedup** — the numpy batch backend sustains >= 10x the scalar
   backend's engine evaluations per second at batch sizes >= 4096, on
   every binary16 cell and on the binary64 mul/div/fma/sqrt cells the
   two-limb kernels serve (asserted unconditionally; the bit-twiddled
   kernels beat a Python per-lane loop by a wide margin on any
   hardware).
2. **Bit-identity under batching** — ``run_conformance`` driven with
   ``engine_backend="batch"`` emits canonical JSON byte-identical to
   the scalar run (asserted unconditionally).  Speed without identity
   would be worthless for a differential oracle.
3. **End-to-end effect** — wall-clock of the conformance sweep with
   the scalar vs the batch engine path, reported (not asserted: the
   exact-rational oracle dominates the sweep, so the end-to-end ratio
   is informative, not a gate).

``python benchmarks/bench_softfloat_batch.py`` writes the measurements
to ``BENCH_softfloat_batch.json`` for the CI artifact trail; the
``test_*`` functions run the same probes under pytest.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.fpenv.rounding import RoundingMode
from repro.oracle import FORMATS_BY_NAME
from repro.oracle.runner import run_conformance
from repro.softfloat import BINARY16, BINARY64, ScalarBackend, get_backend

BENCH_OPS = ["add", "mul", "div", "sqrt"]
#: (format, op) cells timed per batch size; the conformance sweep below
#: stays on binary16 and ``BENCH_OPS``.
BENCH_CELLS = [(BINARY16, op) for op in BENCH_OPS] + [
    (BINARY64, op) for op in ("mul", "div", "fma", "sqrt")
]
BATCH_SIZES = [256, 1024, 4096, 16384]
SPEEDUP_FLOOR = 10.0
SPEEDUP_FLOOR_AT = 4096
SWEEP_BUDGET = 4000
BENCH_SEED = 754

RNE = RoundingMode.NEAREST_EVEN


def _lanes(fmt, op: str, size: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    arity = {"sqrt": 1, "fma": 3}.get(op, 2)
    mask = (1 << fmt.width) - 1
    return [rng.integers(0, mask + 1, size=size, dtype=np.uint64)
            for _ in range(arity)]


def _best_rate(backend, fmt, op: str, lanes, *, repeats: int = 3) -> float:
    """Best-of-N lanes/sec for one packed call (first call warms any
    lazily built tables)."""
    backend.run_packed(op, fmt, lanes, RNE, False, False)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        backend.run_packed(op, fmt, lanes, RNE, False, False)
        best = min(best, time.perf_counter() - started)
    return lanes[0].shape[0] / best


def measure() -> dict:
    scalar = ScalarBackend()
    batch = get_backend("batch")

    throughput: dict[str, dict] = {}
    for size in BATCH_SIZES:
        per_op = {}
        for fmt, op in BENCH_CELLS:
            lanes = _lanes(fmt, op, size, BENCH_SEED)
            scalar_rate = _best_rate(scalar, fmt, op, lanes)
            batch_rate = _best_rate(batch, fmt, op, lanes)
            per_op[f"{fmt.name}.{op}"] = {
                "scalar_evals_per_sec": round(scalar_rate),
                "batch_evals_per_sec": round(batch_rate),
                "speedup": round(batch_rate / scalar_rate, 2),
            }
        throughput[str(size)] = per_op

    fmt = FORMATS_BY_NAME["binary16"]
    started = time.perf_counter()
    scalar_report = run_conformance(
        fmt, BENCH_OPS, budget=SWEEP_BUDGET, seed=BENCH_SEED,
        engine_backend="scalar")
    sweep_scalar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch_report = run_conformance(
        fmt, BENCH_OPS, budget=SWEEP_BUDGET, seed=BENCH_SEED,
        engine_backend="batch")
    sweep_batch_seconds = time.perf_counter() - started

    return {
        "format": "binary16",
        "ops": BENCH_OPS,
        "cells": [f"{fmt.name}.{op}" for fmt, op in BENCH_CELLS],
        "batch_sizes": BATCH_SIZES,
        "seed": BENCH_SEED,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_at": SPEEDUP_FLOOR_AT,
        "throughput": throughput,
        "sweep_budget": SWEEP_BUDGET,
        "sweep_scalar_seconds": round(sweep_scalar_seconds, 4),
        "sweep_batch_seconds": round(sweep_batch_seconds, 4),
        "sweep_bit_identical": (batch_report.canonical_json()
                                == scalar_report.canonical_json()),
    }


def check(numbers: dict) -> list[str]:
    """The acceptance assertions; returns failure messages."""
    failures = []
    if not numbers["sweep_bit_identical"]:
        failures.append(
            "batch-engine conformance report is not bit-identical to scalar")
    for size_key, per_op in numbers["throughput"].items():
        if int(size_key) < numbers["speedup_floor_at"]:
            continue
        for op, cell in per_op.items():
            if cell["speedup"] < numbers["speedup_floor"]:
                failures.append(
                    f"{op} @ {size_key} lanes: speedup {cell['speedup']}x"
                    f" < {numbers['speedup_floor']}x"
                )
    return failures


# -- pytest probes -----------------------------------------------------


def test_batch_bench_acceptance():
    numbers = measure()
    print()
    print(json.dumps(numbers, indent=2))
    assert check(numbers) == []


def test_batch_add_throughput(benchmark):
    """Raw packed-add rate at the acceptance batch size."""
    batch = get_backend("batch")
    lanes = _lanes(BINARY16, "add", SPEEDUP_FLOOR_AT, BENCH_SEED)
    batch.run_packed("add", BINARY16, lanes, RNE, False, False)
    benchmark(batch.run_packed, "add", BINARY16, lanes, RNE, False, False)


def main() -> int:
    numbers = measure()
    with open("BENCH_softfloat_batch.json", "w") as handle:
        json.dump(numbers, handle, indent=2)
        handle.write("\n")
    print(json.dumps(numbers, indent=2))
    failures = check(numbers)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("bench_softfloat_batch: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
