"""The layers the traced run measures, and how spans fold into metrics.

Every probe wraps a public entry point of one of the repository's
modules (``softfloat``, ``oracle``, ``staticfp``, ``optsim``,
``engine``, ``service``).  The ``*_s`` metrics are self seconds per
traced pass (one sweep, one round of lint inputs, or the whole traced
service window); see ``NOTES.md`` for the end-to-end metric each one
should move.
"""

from __future__ import annotations

from perfbench.tracing import Probe


def _bump(counters: dict, key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _lanes_by_tier(counters: dict, arguments: dict, result) -> None:
    backend = arguments["self"]
    tier = backend.select(
        arguments["op"], arguments["fmt"], arguments["mode"],
        arguments["ftz"], arguments["daz"], arguments.get("dst_fmt"),
    ).name
    _bump(counters, "lanes", len(result))
    _bump(counters, f"lanes.{tier}", len(result))


def _lint_outcome(counters: dict, arguments: dict, result) -> None:
    _bump(counters, "lints")
    if result.safety.flags_safe:
        _bump(counters, "safe")
    if result.witness_report is not None:
        _bump(counters, result.witness_report.outcome)


def _guided_evals(counters: dict, arguments: dict, result) -> None:
    _bump(counters, "evals", result.evals)


def _sweep_evals(counters: dict, arguments: dict, result) -> None:
    _bump(counters, "evals", result.checked)


def _job_shards(counters: dict, arguments: dict, result) -> None:
    _bump(counters, "shards", len(arguments["job"].shards))


PROBES: tuple[Probe, ...] = (
    Probe("softfloat.run_packed",
          "repro.softfloat.backend:AutoBackend.run_packed", _lanes_by_tier),
    Probe("oracle.runner", "repro.oracle.runner:run_conformance"),
    Probe("oracle.slice", "repro.oracle.runner:run_op_slice"),
    Probe("oracle.reference", "repro.oracle.exact:oracle_operation"),
    Probe("oracle.native", "repro.oracle.native:native_result_bits"),
    Probe("staticfp.lint", "repro.staticfp.lints:lint", _lint_outcome),
    Probe("staticfp.analyze", "repro.staticfp.analyze:analyze"),
    Probe("staticfp.safety", "repro.staticfp.safety:predict_pass_safety"),
    Probe("staticfp.witness", "repro.staticfp.witness:find_witness"),
    Probe("optsim.optimize", "repro.optsim.pipeline:optimize"),
    Probe("optsim.guided", "repro.optsim.guided:guided_search",
          _guided_evals),
    Probe("optsim.exhaustive", "repro.optsim.guided:exhaustive_sweep",
          _sweep_evals),
    Probe("engine.run", "repro.engine.engine:Engine.run", _job_shards),
    Probe("engine.cache_get", "repro.engine.cache:ResultCache.get"),
    Probe("engine.cache_put", "repro.engine.cache:ResultCache.put"),
    Probe("service.dispatch", "repro.service.handlers:Handlers.dispatch"),
)

#: Probes each workload must see called in its traced run: a refactor
#: that moves one of these entry points fails the run instead of
#: silently reading zero.
REQUIRED: dict[str, tuple[str, ...]] = {
    "oracle-b64": ("oracle.runner", "oracle.reference", "oracle.native",
                   "softfloat.run_packed"),
    "lint-witness": ("staticfp.lint", "staticfp.analyze", "staticfp.safety",
                     "staticfp.witness", "optsim.optimize", "optsim.guided"),
    "serve-mix": ("service.dispatch", "softfloat.run_packed", "engine.run",
                  "engine.cache_get", "engine.cache_put", "oracle.slice",
                  "oracle.reference", "staticfp.lint", "staticfp.analyze"),
}

#: Method classes whose handle time the service split reports.
SERVICE_CLASSES = ("op_eval", "oracle_slice", "lint", "quiz", "ping")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("softfloat.packed_s", "s", "lower"),
    ("softfloat.lanes_per_s", "1/s", "higher"),
    ("softfloat.scalar_lane_share", "ratio", "lower"),
    ("softfloat.batch_lane_share", "ratio", "higher"),
    ("softfloat.native_lane_share", "ratio", "higher"),
    ("oracle.reference_s", "s", "lower"),
    ("oracle.evals", "count", "higher"),
    ("oracle.native_s", "s", "lower"),
    ("oracle.runner_self_s", "s", "lower"),
    ("staticfp.analyze_s", "s", "lower"),
    ("staticfp.lint_self_s", "s", "lower"),
    ("staticfp.witness_self_s", "s", "lower"),
    ("staticfp.safe_share", "ratio", "higher"),
    ("staticfp.witnessed_share", "ratio", "higher"),
    ("staticfp.capped_share", "ratio", "lower"),
    ("optsim.optimize_s", "s", "lower"),
    ("optsim.search_s", "s", "lower"),
    ("optsim.search_evals", "count", "lower"),
    ("optsim.evals_per_s", "1/s", "higher"),
    ("engine.run_s", "s", "lower"),
    ("engine.cache_get_s", "s", "lower"),
    ("engine.cache_put_s", "s", "lower"),
    ("engine.cache_hit_share", "ratio", "higher"),
    ("engine.cache_disk_hit_share", "ratio", "higher"),
    ("engine.cache_miss_share", "ratio", "lower"),
    ("engine.shards_per_job", "count", "higher"),
    ("service.queue_p50_ms", "ms", "lower"),
    ("service.queue_p99_ms", "ms", "lower"),
    *((f"service.handle_p50_ms.{cls}", "ms", "lower")
      for cls in SERVICE_CLASSES),
    ("service.batch_riders_mean", "count", "higher"),
    ("service.batch_lanes_mean", "count", "higher"),
    ("service.job_riders_mean", "count", "higher"),
    ("service.lint_cache_hit_share", "ratio", "higher"),
    ("service.gen_late_p99_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.gap_share", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe_metrics(summary: dict, passes: int) -> dict[str, float]:
    """The per-layer metrics that come from spans alone.

    ``passes`` is the number of traced passes the summary covers; the
    seconds and counts are reported per pass.
    """
    probes = summary["probes"]

    def self_s(*names: str) -> float:
        return sum(probes[name]["self_s"] for name in names) / passes

    packed = probes["softfloat.run_packed"]
    lanes = packed["counters"].get("lanes", 0)
    lint = probes["staticfp.lint"]["counters"]
    lints = lint.get("lints", 0)
    search_evals = sum(
        probes[name]["counters"].get("evals", 0)
        for name in ("optsim.guided", "optsim.exhaustive")
    )
    search_s = sum(probes[name]["self_s"]
                   for name in ("optsim.guided", "optsim.exhaustive"))
    engine = probes["engine.run"]
    return {
        "softfloat.packed_s": self_s("softfloat.run_packed"),
        "softfloat.lanes_per_s": _ratio(lanes, packed["total_s"]),
        **{
            f"softfloat.{tier}_lane_share": _ratio(
                packed["counters"].get(f"lanes.{tier}", 0), lanes)
            for tier in ("scalar", "batch", "native")
        },
        "oracle.reference_s": self_s("oracle.reference"),
        "oracle.evals": probes["oracle.reference"]["calls"] / passes,
        "oracle.native_s": self_s("oracle.native"),
        "oracle.runner_self_s": self_s("oracle.runner", "oracle.slice"),
        "staticfp.analyze_s": self_s("staticfp.analyze", "staticfp.safety"),
        "staticfp.lint_self_s": self_s("staticfp.lint"),
        "staticfp.witness_self_s": self_s("staticfp.witness"),
        "staticfp.safe_share": _ratio(lint.get("safe", 0), lints),
        "staticfp.witnessed_share": _ratio(lint.get("witnessed", 0), lints),
        "staticfp.capped_share": _ratio(lint.get("unresolved", 0), lints),
        "optsim.optimize_s": self_s("optsim.optimize"),
        "optsim.search_s": search_s / passes,
        "optsim.search_evals": search_evals / passes,
        "optsim.evals_per_s": _ratio(search_evals, search_s),
        "engine.run_s": self_s("engine.run"),
        "engine.cache_get_s": self_s("engine.cache_get"),
        "engine.cache_put_s": self_s("engine.cache_put"),
        "engine.shards_per_job": _ratio(
            engine["counters"].get("shards", 0), engine["calls"]),
    }


def per_layer_report(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; layers a workload does not
    reach read 0."""
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
