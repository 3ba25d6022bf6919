"""Output checks.  Each raises :class:`CheckFailed` on a wrong result.

They run in every run, traced or not, after the timed region; a failed
check fails the run.  The benchmark's tests feed each one a corrupted
result to show that it can fail.
"""

from __future__ import annotations

import json

from perfbench.common import CheckFailed

#: golden witness outcome -> the class ``lint(..., witness=True)`` reaches
#: with a guided search alone: an exhaustive refutation is a capped
#: (unresolved) guided search, and a proved-safe entry is statically
#: safe, so no search runs.
GOLDEN_CLASS = {"witnessed": "witnessed", "refuted": "capped",
                "proved-safe": "safe"}


def lint_class(report) -> str:
    """``safe`` (no search needed), ``witnessed`` or ``capped``."""
    witness = report.witness_report
    if witness is None:
        return "safe"
    return "witnessed" if witness.outcome == "witnessed" else "capped"


def check_oracle_report(report: dict, budget: int, ops) -> None:
    """A clean sweep that spent exactly ``budget`` evaluations per op."""
    if not report.get("clean"):
        raise CheckFailed(
            f"oracle sweep seed={report.get('seed')} is not clean:"
            f" {len(report.get('discrepancies', []))} discrepancies")
    if report.get("total_evals") != budget * len(ops):
        raise CheckFailed(
            f"oracle sweep spent {report.get('total_evals')} evaluations,"
            f" expected {budget} x {len(ops)}")
    for op in ops:
        evals = report.get("ops", {}).get(op, {}).get("evals")
        if evals != budget:
            raise CheckFailed(f"oracle op {op} spent {evals} != {budget}")


def check_identical(first: bytes, second: bytes, what: str) -> None:
    if first != second:
        raise CheckFailed(f"{what} differ between untraced and traced runs")


def check_witness(witness_dict: dict) -> None:
    """The witness re-verifies from its serialized record alone."""
    from repro.staticfp.witness import Witness, verify_witness

    witness = verify_witness(Witness.from_dict(witness_dict))
    if not witness.verified:
        raise CheckFailed(f"witness for {witness.expr!r} does not re-verify")


def check_template_classes(classes: dict[str, str], golden: dict) -> None:
    """Each corpus template lands in the class its golden witness
    outcome predicts (see :data:`GOLDEN_CLASS`)."""
    wrong = []
    for key, entry in sorted(golden.items()):
        want = GOLDEN_CLASS.get(entry["outcome"])
        got = classes.get(key)
        if want != got:
            wrong.append(f"{key}: golden {entry['outcome']} -> {want},"
                         f" got {got}")
    if wrong:
        raise CheckFailed("corpus template classes drifted: "
                          + "; ".join(wrong))


def check_op_eval(params: dict, result: dict) -> None:
    """An ``op.eval`` response equals the scalar reference lane by lane,
    in bits and in flags."""
    import numpy as np

    from repro.oracle.runner import FORMATS_BY_NAME, MODE_ALIASES
    from repro.softfloat.backend import get_backend

    reference = get_backend("scalar").run_packed(
        params["op"], FORMATS_BY_NAME[params["format"]],
        [np.asarray(col, dtype=np.uint64) for col in params["operands"]],
        MODE_ALIASES[params.get("mode", "rne")],
        bool(params.get("ftz", False)), bool(params.get("daz", False)),
    )
    want_bits = [int(b) for b in reference.bits]
    want_flags = [int(f) for f in reference.flags]
    if result.get("bits") != want_bits or result.get("flags") != want_flags:
        raise CheckFailed(
            f"op.eval {params['op']} {params['format']} differs from the"
            " scalar reference")


def _without_timing(stats: dict) -> dict:
    return {key: value for key, value in stats.items()
            if key not in ("wall_seconds", "evals_per_sec")}


def direct_slice(params: dict) -> dict:
    """What ``oracle.slice`` should answer, by a direct ``run_op_slice``."""
    import itertools

    from repro.oracle.runner import FORMATS_BY_NAME, MODE_ALIASES, run_op_slice

    modes = tuple(MODE_ALIASES[m] for m in params.get("modes", ["rne"]))
    combos = tuple((bool(f), bool(d))
                   for f, d in params.get("env_combos", [[False, False]]))
    stats, discrepancies = run_op_slice(
        FORMATS_BY_NAME[params["format"]], params["op"],
        int(params.get("budget", 2000)), int(params["seed"]),
        tuple(itertools.product(modes, combos)),
        str(params.get("tininess", "after")),
        bool(params.get("native", False)),
        int(params.get("max_discrepancies", 25)),
        int(params.get("case_lo", 0)), int(params["case_hi"]),
        engine_backend=str(params.get("engine_backend", "scalar")),
    )
    return {"stats": stats.to_dict(),
            "discrepancies": [d.to_dict() for d in discrepancies]}


def check_oracle_slice(params: dict, result: dict) -> None:
    """An ``oracle.slice`` response equals a direct ``run_op_slice``
    (timing fields aside; the response may have crossed JSON)."""
    want = json.loads(json.dumps(direct_slice(params)))
    got = json.loads(json.dumps(result))
    if (_without_timing(got.get("stats", {}))
            != _without_timing(want["stats"])
            or got.get("discrepancies") != want["discrepancies"]):
        raise CheckFailed(
            f"oracle.slice {params['op']} seed={params['seed']}"
            f" [{params.get('case_lo', 0)}, {params['case_hi']}) differs"
            " from a direct run_op_slice")
