"""Workload ``oracle-b64``: the binary64 differential sweep, end to end.

Each sweep is ``repro oracle run --format binary64 --ops
add,mul,div,sqrt,fma --engine-backend auto`` over all five rounding
modes with FTZ and DAZ each off and on, run in-process through
``repro.cli.main`` exactly as the command line runs it (argument
parsing, the sweep, the summary, the JSON report file).

Why: binary64 is the format the paper's quiz is about, and the two
measured hot spots meet here -- the exact oracle and the softfloat
backend tiers, which serve binary64 mul/div/sqrt/fma on the scalar
tier.  The optsim, engine and service layers do no work here.
"""

from __future__ import annotations

import contextlib
import io
import time

from perfbench import checks
from perfbench.calibrate import Bracket, slowdown
from perfbench.common import derive_seed, median, percentile

NAME = "oracle-b64"
OPS = ("add", "mul", "div", "sqrt", "fma")
#: evaluations per op per sweep (5 ops -> 12500 evaluations, about half a
#: second).  Short sweeps let the host calibration follow its drift; much
#: shorter ones let the fixed per-call cost of the backend dispatch
#: outweigh the oracle (at 1000 per op the two tie)
BUDGET = 2500
WARM_BUDGET = 40
#: the bounded tail percentile of sweep wall times (a run holds a few
#: dozen sweeps)
TAIL = 0.90


def _argv(seed: int, budget: int, json_path) -> list[str]:
    return [
        "oracle", "run", "--format", "binary64", "--ops", ",".join(OPS),
        "--engine-backend", "auto", "--ftz", "both", "--daz", "both",
        "--budget", str(budget), "--seed", str(seed),
        "--json", str(json_path), "--no-timing",
    ]


def _sweep(seed: int, budget: int, json_path) -> tuple[float, bytes]:
    """One CLI sweep; returns its wall time and the canonical report."""
    from repro import cli

    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(_argv(seed, budget, json_path))
    wall = time.perf_counter() - started
    if code != 0:
        raise checks.CheckFailed(
            f"oracle run seed={seed} exited {code}: {sink.getvalue()[-400:]}")
    return wall, json_path.read_bytes()


def _check(canonical: bytes) -> None:
    import json

    checks.check_oracle_report(json.loads(canonical), BUDGET, OPS)


def setup(scratch) -> None:
    """Imports, the native-tier probe and the batch tables, by a tiny
    sweep of every op."""
    _sweep(1, WARM_BUDGET, scratch / "warm.json")


def params() -> dict:
    return {"format": "binary64", "ops": list(OPS), "budget_per_op": BUDGET,
            "engine_backend": "auto", "modes": "all", "ftz": "both",
            "daz": "both"}


def run(seed: int, seconds: float, trace: bool, scratch, recorder=None
        ) -> dict:
    setup(scratch)
    report_path = scratch / "report.json"
    deadline = time.perf_counter() + seconds
    evals = BUDGET * len(OPS)
    bracket = Bracket(slowdown())
    raw: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    windows: list[tuple[float, float]] = []
    rep = 0
    while time.perf_counter() < deadline or not traced_walls and trace:
        rep_seed = derive_seed(seed, NAME, rep)
        wall, canonical = _sweep(rep_seed, BUDGET, report_path)
        walls.append(wall / bracket.factor(slowdown()))
        raw.append(wall)
        _check(canonical)
        if trace:
            # the same sweep again, traced: its report must not change
            recorder.install()
            started = time.perf_counter()
            try:
                traced_wall, traced = _sweep(rep_seed, BUDGET, report_path)
            finally:
                recorder.uninstall()
            windows.append((started, time.perf_counter()))
            traced_walls.append(traced_wall / bracket.factor(slowdown()))
            checks.check_identical(canonical, traced,
                                   f"canonical reports of seed {rep_seed}")
        rep += 1
    rates = [evals / wall for wall in walls]
    return {
        "attempted": evals * len(walls + traced_walls),
        "failed": 0,
        "e2e": {
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(walls) * 1e3,
            "latency_tail_ms": percentile(walls, TAIL) * 1e3,
        },
        "named": {"sweep_evals_per_s": (median(rates), "1/s"),
                  "sweep_p50_ms": (median(walls) * 1e3, "ms"),
                  "sweep_p90_ms": (percentile(walls, TAIL) * 1e3, "ms")},
        "raw": {"sweep_evals_per_s": median(evals / w for w in raw),
                "slowdowns": bracket.factors},
        "passes": len(traced_walls),
        "windows": windows,
        "overhead": (sum(traced_walls) / sum(walls[:len(traced_walls)]) - 1
                     if traced_walls else None),
        "samples": {"sweeps": len(walls), "traced_sweeps": len(traced_walls)},
    }
