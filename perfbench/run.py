"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``oracle-b64``, ``lint-witness``, ``serve-mix`` (see
``perfbench/NOTES.md``); ``--workload all`` runs the three in turn and
prints each one's result line.  With ``--trace 0`` the run measures the
end-to-end metrics with no probe installed; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer split.
Every run checks the program's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (seed, workload parameters, host
fingerprint, all metrics) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"run.py: no program sources under {_ROOT / 'src'}; run it from"
          " a full checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import lint_witness, oracle_b64, serve_mix  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT,
    CheckFailed,
    host_fingerprint,
    median,
    setup_probe,
)
from perfbench.layers import (  # noqa: E402
    PROBES,
    REQUIRED,
    per_layer_report,
    probe_metrics,
)
from perfbench.tracing import (  # noqa: E402
    ProbeError,
    Recorder,
    check_required,
    covered_seconds,
)

WORKLOADS = {m.NAME: m for m in (oracle_b64, lint_witness, serve_mix)}
#: (name, unit) of every end-to-end metric; see NOTES.md for what each
#: means on each workload
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"))
#: fresh interpreters whose set-up time is measured; the median is
#: reported
SETUP_PROBES = 5


def _in_process_layers(workload: str, recorder: Recorder, result: dict,
                       trace_path: Path) -> dict[str, float]:
    """Per-layer metrics of a workload that runs in this process."""
    summary = recorder.summary()
    check_required(summary, REQUIRED[workload])
    with open(trace_path, "w", encoding="utf-8") as handle:
        recorder.write_spans(handle)
    values = probe_metrics(summary, result["passes"])
    windows = result["windows"]
    covered = sum(covered_seconds(summary["intervals"], lo, hi)
                  for lo, hi in windows)
    values["trace.gap_share"] = 1 - covered / sum(hi - lo
                                                  for lo, hi in windows)
    values["trace.overhead_share"] = result["overhead"]
    return values


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (metrics, record)."""
    module = WORKLOADS[args.workload]
    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    try:
        # set-up is spawning and importing more than computing: dividing
        # it by the host slowdown made it less repeatable, so it is raw
        setup_s = (median(setup_probe(args.workload)
                          for _ in range(SETUP_PROBES))
                   if not args.trace else None)
        recorder = Recorder(list(PROBES)) if args.trace else None
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            scratch, recorder)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        values = result.get("per_layer")
        if values is None:
            values = _in_process_layers(
                args.workload, recorder, result,
                traces / f"{args.workload}-s{args.seed}.jsonl")
        metrics = per_layer_report(values)
    else:
        values = {"setup_s": setup_s, **result["e2e"]}
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": module.params(),
        "host": host_fingerprint(),
        "metrics": metrics,
        "named": {name: {"value": value, "unit": unit}
                  for name, (value, unit) in result["named"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "raw": result.get("raw", {}),
        "samples": result.get("samples", {}),
        "errors": result.get("errors", {}),
    }
    if setup_s is not None:
        record["named"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm the workload, print READY,"
                             " exit (a set-up time probe)")
    args = parser.parse_args(argv)
    if args.setup_only:
        scratch = OUT / "tmp" / f"setup-{args.workload}-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            WORKLOADS[args.workload].setup(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print("READY", flush=True)
        return 0
    if args.workload == "all":
        return max(_run_one(argparse.Namespace(**{**vars(args),
                                                   "workload": name}))
                   for name in WORKLOADS)
    return _run_one(args)


def _run_one(args) -> int:
    """Measure one workload, write its record, print its result."""
    try:
        metrics, record = measure(args)
    except (CheckFailed, ProbeError) as exc:
        print(f"run.py: {args.workload} failed its checks: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, metric in record["named"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g}"
              f" {metric['unit']}")
    print(json.dumps({"context": {key: record[key] for key in
                                  ("workload", "seed", "seconds", "trace",
                                   "params", "host")}}))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
