"""Workload ``lint-witness``: static lints with their witness search.

Inputs are built from the 22 ``repro.staticfp.corpus`` expressions.
Each input pairs one expression with an optimization level and, per
variable, a seeded binding range whose magnitudes are log-uniform in
one of several bands: ordinary, wide, subnormal and near-overflow.
Every input goes through ``repro.staticfp.lint(..., witness=True)``.

The inputs come in rounds: a round holds every expression under every
level once (110 inputs) in seeded order, with fresh seeded ranges, so
two seeds differ in ranges and order but not in the expression mix.

Why: the time goes to staticfp analysis and to optsim's guided search
on scalar softfloat ops; there is no oracle and no batched backend, so
a change to either should not move this workload.  Replaying the fixed
corpus alone is not enough: one entry's capped search would dominate.
"""

from __future__ import annotations

import json
import random
import time

from perfbench import checks
from perfbench.calibrate import Bracket, slowdown
from perfbench.common import derive_seed, median, percentile

NAME = "lint-witness"
LEVELS = ("strict", "-O2", "-O3", "--ffast-math", "-Ofast")
#: log10 magnitude bands a binding range is drawn from
BANDS = ((-3.0, 3.0), (-30.0, 30.0), (-320.0, -300.0), (290.0, 308.2))
#: guided-search budget per input; a search that spends it is "capped"
TRIALS = 400
#: the bounded tail percentile; it falls inside the capped searches
#: (about a tenth of inputs), where p90 would straddle two clusters
TAIL = 0.99
#: inputs linted between two host calibrations
CHUNK = 10


def _templates():
    from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS

    return GOTCHA_CORPUS + CLEAN_CORPUS


def _variables(expr: str) -> list[str]:
    from repro.optsim.ast import Var, walk_unique
    from repro.optsim.parser import parse_expr

    return sorted({node.name for node in walk_unique(parse_expr(expr))
                   if isinstance(node, Var)})


def _draw_range(rng: random.Random) -> tuple[str, str]:
    lo_exp, hi_exp = BANDS[rng.randrange(len(BANDS))]
    low = rng.uniform(lo_exp, hi_exp)
    high = min(hi_exp, low + rng.uniform(0.0, 4.0))
    lo, hi = 10.0 ** low, 10.0 ** high
    if rng.random() < 0.25:
        lo, hi = -hi, (lo if rng.random() < 0.5 else hi)
    return repr(lo), repr(hi)


def round_inputs(seed: int, index: int) -> list[tuple[str, str, dict]]:
    """Round ``index`` of a seed's input stream: (expr, level, bindings)."""
    rng = random.Random(derive_seed(seed, NAME, index))
    inputs = []
    for entry in _templates():
        names = _variables(entry.expr)
        for level in LEVELS:
            inputs.append((entry.expr, level,
                           {name: _draw_range(rng) for name in names}))
    rng.shuffle(inputs)
    return inputs


def _lint(expr: str, level: str, bindings: dict, trials: int = TRIALS):
    from repro import staticfp
    from repro.optsim.machine import optimization_level

    return staticfp.lint(expr, optimization_level(level), bindings or None,
                         witness=True, witness_trials=trials)


def setup(scratch) -> None:
    """Imports plus one witnessed and one capped search."""
    _lint("a*b + c", "-O3", {"a": ("1", "2"), "b": ("1", "2"),
                             "c": ("1", "2")})
    _lint("(a - b) / 2.0", "strict", {"a": ("4", "8"), "b": ("1", "2")},
          trials=20)


def params() -> dict:
    return {"templates": len(_templates()), "levels": list(LEVELS),
            "round_inputs": len(_templates()) * len(LEVELS),
            "bands_log10": [list(b) for b in BANDS],
            "witness_trials": TRIALS}


def _pass(inputs, deadline: float | None, latencies, classes, witnesses,
          results, bracket: Bracket, windows) -> tuple[float, int, int]:
    """Lint ``inputs`` in order (until ``deadline``, if given); returns
    the pass's calibrated time and its done and failed counts.  The
    host is calibrated after every :data:`CHUNK` inputs; ``windows``
    gets the wall intervals between calibrations."""
    failed = done = 0
    chunk: list[float] = []
    total = 0.0
    chunk_started = time.perf_counter()
    for position, (expr, level, bindings) in enumerate(inputs, 1):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            report = _lint(expr, level, bindings)
        except Exception as exc:  # counted as a failed operation
            failed += 1
            results.append(f"error: {type(exc).__name__}: {exc}")
            continue
        chunk.append(time.perf_counter() - t0)
        done += 1
        cls = checks.lint_class(report)
        classes[cls] = classes.get(cls, 0) + 1
        if cls == "witnessed":
            witnesses.append(report.witness_report.witness.to_dict())
        results.append(json.dumps(report.to_dict(), sort_keys=True))
        if position % CHUNK == 0 or position == len(inputs):
            windows.append((chunk_started, time.perf_counter()))
            factor = bracket.factor(slowdown())
            latencies.extend(t / factor for t in chunk)
            total += sum(chunk) / factor
            chunk = []
            chunk_started = time.perf_counter()
    if chunk:
        factor = bracket.factor(slowdown())
        latencies.extend(t / factor for t in chunk)
        total += sum(chunk) / factor
    return total, done, failed


def _check_templates() -> None:
    from repro.staticfp.corpus import GOLDEN_PATH

    golden = json.loads(GOLDEN_PATH.read_text())["witnesses"]
    classes = {
        entry.key: checks.lint_class(
            _lint(entry.expr, entry.level, entry.binding_map()))
        for entry in _templates()
    }
    checks.check_template_classes(classes, golden)


def run(seed: int, seconds: float, trace: bool, scratch, recorder=None
        ) -> dict:
    setup(scratch)
    deadline = time.perf_counter() + seconds
    bracket = Bracket(slowdown())
    latencies: list[float] = []
    classes: dict[str, int] = {}
    witnesses: list[dict] = []
    round_rates: list[float] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    windows: list[tuple[float, float]] = []
    attempted = failed = 0
    index = 0
    while time.perf_counter() < deadline or trace and not traced_s:
        inputs = round_inputs(seed, index)
        results: list[str] = []
        spent, done, bad = _pass(inputs, None if trace else deadline,
                                 latencies, classes, witnesses, results,
                                 bracket, [])
        attempted += done + bad
        failed += bad
        # a round's rate is comparable only when the round is whole; a
        # run too short for one reports its partial round
        if done + bad == len(inputs) or not round_rates and done:
            round_rates.append(done / spent)
            untraced_s.append(spent)
        if trace:
            traced_results: list[str] = []
            recorder.install()
            try:
                spent, done, bad = _pass(inputs, None, [], {}, [],
                                         traced_results, bracket, windows)
            finally:
                recorder.uninstall()
            attempted += done + bad
            failed += bad
            traced_s.append(spent)
            if traced_results != results:
                raise checks.CheckFailed(
                    f"lint reports of round {index} differ between"
                    " untraced and traced passes")
        index += 1
    for witness in witnesses:
        checks.check_witness(witness)
    _check_templates()
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "throughput_per_s": median(round_rates),
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, TAIL) * 1e3,
        },
        "named": {"lint_per_s": (median(round_rates), "1/s"),
                  "lint_p50_ms": (median(latencies) * 1e3, "ms"),
                  "lint_p99_ms": (percentile(latencies, TAIL) * 1e3, "ms")},
        "raw": {"slowdowns": bracket.factors},
        "passes": len(traced_s),
        "windows": windows,
        "overhead": (sum(traced_s) / sum(untraced_s) - 1
                     if traced_s else None),
        "samples": {"lints": len(latencies), "rounds": len(round_rates),
                    "classes": classes, "witnesses_verified": len(witnesses)},
    }
