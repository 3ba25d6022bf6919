"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
They run every workload at a tiny size, check the printed metric names
and units against ``BENCHMARK.json``, and show that every output check
fails when fed a corrupted result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.common import CheckFailed  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Probe,
    ProbeError,
    Recorder,
    check_required,
    covered_seconds,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- the benchmark contract ------------------------------------------------


def test_spec_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "oracle-b64", "lint-witness", "serve-mix"]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", ["oracle-b64", "lint-witness",
                                      "serve-mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "oracle-b64":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["softfloat.scalar_lane_share"] == pytest.approx(
            0.8, abs=0.05)
        # the oracle leads run_packed by about a tenth; a short run's
        # noise may close that gap, not reverse it by much
        layers = {k: v for k, v in metrics.items()
                  if k.endswith("_s") and not k.endswith("per_s")}
        assert metrics["oracle.reference_s"] >= 0.9 * max(layers.values())
    elif workload == "lint-witness":
        assert result["metrics"]["oracle.evals"]["value"] == 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("oracle-b64", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- tracing -----------------------------------------------------------------


def _fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    return module


def test_self_time_subtracts_wrapped_children_and_uninstall_restores():
    module = _fake_module()
    originals = (module.inner, module.outer)
    recorder = Recorder([
        Probe("inner", "perfbench_fake_layer:inner"),
        Probe("outer", "perfbench_fake_layer:outer"),
    ])
    recorder.install()
    try:
        assert module.outer(1) == 4
    finally:
        recorder.uninstall()
    assert (module.inner, module.outer) == originals
    probes = recorder.summary()["probes"]
    assert probes["inner"]["calls"] == probes["outer"]["calls"] == 1
    assert probes["outer"]["self_s"] == pytest.approx(
        probes["outer"]["total_s"] - probes["inner"]["total_s"])
    assert len(recorder.summary()["intervals"]) == 1


def test_missing_target_and_silent_probe_fail_the_traced_run():
    with pytest.raises(ProbeError):
        Recorder([Probe("gone", "repro.oracle.exact:no_such_fn")]).install()
    summary = {"probes": {"oracle.reference": {"calls": 0}}}
    with pytest.raises(ProbeError):
        check_required(summary, ("oracle.reference",))


def test_covered_seconds_is_the_union_within_the_window():
    assert covered_seconds([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10) == 5


# -- output checks fail on corrupted results ---------------------------------


def _clean_report():
    return {"seed": 1, "clean": True, "total_evals": 10, "discrepancies": [],
            "ops": {"add": {"evals": 5}, "mul": {"evals": 5}}}


def test_oracle_report_check():
    checks.check_oracle_report(_clean_report(), 5, ("add", "mul"))
    for corrupt in ({"clean": False}, {"total_evals": 9},
                    {"ops": {"add": {"evals": 4}, "mul": {"evals": 6}}}):
        with pytest.raises(CheckFailed):
            checks.check_oracle_report({**_clean_report(), **corrupt}, 5,
                                       ("add", "mul"))


def test_identical_check():
    checks.check_identical(b"{}", b"{}", "reports")
    with pytest.raises(CheckFailed):
        checks.check_identical(b"{}", b"{ }", "reports")


def test_witness_check():
    from repro import staticfp
    from repro.optsim.machine import optimization_level

    report = staticfp.lint("a*b + c", optimization_level("-O3"),
                           {"a": ("1", "2"), "b": ("1", "2"),
                            "c": ("1", "2")}, witness=True)
    witness = report.witness_report.witness.to_dict()
    checks.check_witness(witness)
    witness["strict"]["bits"] = hex(int(witness["strict"]["bits"], 16) ^ 1)
    with pytest.raises(CheckFailed):
        checks.check_witness(witness)


def test_template_class_check():
    golden = {"a": {"outcome": "witnessed"}, "b": {"outcome": "refuted"},
              "c": {"outcome": "proved-safe"}}
    checks.check_template_classes(
        {"a": "witnessed", "b": "capped", "c": "safe"}, golden)
    with pytest.raises(CheckFailed):
        checks.check_template_classes(
            {"a": "witnessed", "b": "witnessed", "c": "safe"}, golden)


def test_op_eval_check():
    import numpy as np

    from repro.fpenv.rounding import RoundingMode
    from repro.softfloat import BINARY32
    from repro.softfloat.backend import get_backend

    lanes = [[0x3F800000, 0x00000001], [0x40400000, 0x00000000]]
    served = get_backend("auto").run_packed(
        "div", BINARY32, [np.asarray(c, dtype=np.uint64) for c in lanes],
        RoundingMode.NEAREST_EVEN, False, False)
    params = {"op": "div", "format": "binary32", "operands": lanes}
    result = {"bits": [int(b) for b in served.bits],
              "flags": [int(f) for f in served.flags]}
    checks.check_op_eval(params, result)
    for key in ("bits", "flags"):
        corrupt = {**result, key: [result[key][0] ^ 1, result[key][1]]}
        with pytest.raises(CheckFailed):
            checks.check_op_eval(params, corrupt)


def test_oracle_slice_check():
    from perfbench.serve_mix import slice_params

    params = slice_params("mul", 7, 1)
    result = checks.direct_slice(params)
    checks.check_oracle_slice(params, result)
    corrupt = json.loads(json.dumps(result))
    corrupt["stats"]["value_agree"] -= 1
    with pytest.raises(CheckFailed):
        checks.check_oracle_slice(params, corrupt)
