"""The lint corpus: one expression per lintable gotcha, plus a clean
set that must produce no warnings.

Every Figure-14/15 gotcha the analyzer can see statically gets an
entry pinning the expression, the optimization level, and the variable
ranges under which ``repro lint`` must report the matching quiz id.
The clean corpus pins the other direction: well-conditioned
expressions on benign ranges must raise *zero* warnings (info
diagnostics are allowed — "results round" is true of almost
everything).  A golden file records the exact diagnostic sets so CI
can fail on drift.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.engine.tasks import spec_job, split_evenly, task
from repro.optsim.machine import MachineConfig, optimization_level
from repro.staticfp.lints import LintReport, lint

__all__ = [
    "CorpusEntry",
    "GOTCHA_CORPUS",
    "CLEAN_CORPUS",
    "GOLDEN_PATH",
    "WITNESS_PROOF_FORMAT",
    "entry_by_key",
    "entry_outcome",
    "entry_witness_outcome",
    "run_entry",
    "corpus_outcomes",
    "precision_summary",
    "witness_outcomes",
    "witness_summary",
    "check_golden",
    "check_golden_witnesses",
    "write_golden",
]

GOLDEN_PATH = Path(__file__).with_name("golden_lints.json")


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One pinned lint scenario."""

    key: str
    expr: str
    level: str = "strict"
    bindings: tuple[tuple[str, tuple[str, str]], ...] = ()
    expect_id: str | None = None  # gotcha id that must appear (None: clean)

    def config(self) -> MachineConfig:
        return optimization_level(self.level)

    def binding_map(self) -> dict[str, tuple[str, str]]:
        return dict(self.bindings)


def _entry(key, expr, level="strict", expect=None, **ranges):
    return CorpusEntry(
        key=key,
        expr=expr,
        level=level,
        bindings=tuple(sorted(ranges.items())),
        expect_id=expect,
    )


#: Figure-14 and Figure-15 gotchas the analyzer must detect, each with
#: the quiz id its diagnostic must carry.
GOTCHA_CORPUS: tuple[CorpusEntry, ...] = (
    # --- Figure 14 ------------------------------------------------
    _entry("identity", "sqrt(a)", expect="identity"),
    _entry("associativity", "a + b + c", expect="associativity",
           a=("1", "4"), b=("1", "4"), c=("1", "4")),
    _entry("ordering", "(a + b) - a", expect="ordering",
           a=("1", "1e30"), b=("1", "2")),
    _entry("overflow", "a * b", expect="overflow",
           a=("1e300", "1e308"), b=("10", "100")),
    _entry("divide_by_zero", "1.0 / a", expect="divide_by_zero",
           a=("-1", "1")),
    _entry("zero_divide_by_zero", "a / b", expect="zero_divide_by_zero",
           a=("0", "1"), b=("0", "1")),
    _entry("saturation_plus", "a + 1.0", expect="saturation_plus",
           a=("1e17", "1e60")),
    _entry("saturation_minus", "a - 1.0", expect="saturation_minus",
           a=("1e17", "1e60")),
    _entry("denormal_precision", "a * b", expect="denormal_precision",
           a=("1e-300", "1e-290"), b=("1e-20", "1")),
    _entry("operation_precision", "0.1 + 0.2", expect="operation_precision"),
    _entry("exception_signal", "1.0 / a", expect="exception_signal",
           a=("-1", "1")),
    _entry("negative_zero", "a * b", expect="negative_zero",
           a=("-1", "1"), b=("-1", "1")),
    # --- Figure 15 ------------------------------------------------
    _entry("madd", "a*b + c", level="-O3", expect="madd",
           a=("1", "2"), b=("1", "2"), c=("1", "2")),
    _entry("flush_to_zero", "a - b", level="--ffast-math",
           expect="flush_to_zero",
           a=("2e-308", "3e-308"), b=("1e-308", "2e-308")),
    _entry("opt_level", "a*b + c", level="-O3", expect="opt_level",
           a=("1", "2"), b=("1", "2"), c=("1", "2")),
    _entry("fast_math", "((t + y) - t) - y", level="--ffast-math",
           expect="fast_math", t=("1e8", "1e9"), y=("1e-8", "1e-7")),
)

#: Benign expressions on benign ranges: must emit no warnings at all.
CLEAN_CORPUS: tuple[CorpusEntry, ...] = (
    _entry("clean_mean", "(a + b) * 0.5", a=("1", "2"), b=("1", "2")),
    _entry("clean_hypot", "sqrt(a*a + b*b)", a=("1", "2"), b=("1", "2")),
    _entry("clean_fma", "fma(a, b, c)",
           a=("1", "2"), b=("1", "2"), c=("1", "2")),
    _entry("clean_scaled_diff", "(a - b) / 2.0", a=("4", "8"), b=("1", "2")),
    _entry("clean_ratio", "a / b", a=("1", "2"), b=("1", "2")),
    _entry("clean_minmax", "min(a, b)", a=("1", "2"), b=("3", "4")),
)


def entry_by_key(key: str) -> CorpusEntry:
    """Look a corpus entry up by key (gotcha and clean sets)."""
    for entry in GOTCHA_CORPUS + CLEAN_CORPUS:
        if entry.key == key:
            return entry
    raise KeyError(f"no corpus entry named {key!r}")


def run_entry(entry: CorpusEntry) -> LintReport:
    """Lint one corpus entry."""
    return lint(entry.expr, entry.config(), entry.binding_map())


def entry_outcome(entry: CorpusEntry) -> dict:
    """Lint one entry down to its JSON-able verdict.

    This is the per-entry unit of work a corpus shard ships back:
    everything :func:`precision_summary` and :func:`check_golden` need,
    nothing engine-specific.
    """
    report = run_entry(entry)
    return {
        "key": entry.key,
        "snapshot": sorted(
            f"{d.severity}:{d.gotcha_id}" for d in report.diagnostics
        ),
        "has_findings": report.has_findings,
        "gotcha_ids": sorted(report.gotcha_ids),
    }


@task("staticfp.lint_entries")
def _lint_entries_task(params: dict, ctx) -> dict:
    """Engine task: lint a batch of corpus entries down to outcomes."""
    return {
        key: entry_outcome(entry_by_key(key)) for key in params["keys"]
    }


def corpus_outcomes(engine=None) -> dict[str, dict]:
    """Every corpus entry's outcome, keyed by entry key.

    One job on ``engine`` (default: an in-process
    :class:`~repro.engine.Engine` with the result cache off), the keys
    cut into :attr:`~repro.engine.Engine.shards_per_unit` batches.
    Entries are independent, so the merge is a keyed union.
    """
    from repro.engine import in_process_engine

    engine = engine or in_process_engine()
    keys = [e.key for e in GOTCHA_CORPUS + CLEAN_CORPUS]
    param_list = [
        {"keys": keys[lo:hi]}
        for lo, hi in split_evenly(len(keys), engine.shards_per_unit)
    ]

    def merge(results: list[dict]) -> dict[str, dict]:
        outcomes: dict[str, dict] = {}
        for batch in results:
            outcomes.update(batch)
        return outcomes

    return engine.run(spec_job(
        "staticfp.corpus", "staticfp.lint_entries", param_list,
        seed=0, merge=merge,
    ))


def precision_summary(outcomes: dict[str, dict] | None = None) -> dict:
    """Analyzer precision over the corpus: the EXPERIMENTS metric.

    ``detected``: gotcha entries whose expected quiz id appears in the
    diagnostics.  ``false_positives``: clean entries that raised any
    warning-or-worse diagnostic.  Pass precomputed ``outcomes`` (from
    :func:`corpus_outcomes`) to summarize without re-linting.
    """
    if outcomes is None:
        outcomes = corpus_outcomes()
    detected = [
        e.key for e in GOTCHA_CORPUS
        if e.expect_id in outcomes[e.key]["gotcha_ids"]
    ]
    missed = [e.key for e in GOTCHA_CORPUS if e.key not in detected]
    false_positives = [
        e.key for e in CLEAN_CORPUS if outcomes[e.key]["has_findings"]
    ]
    return {
        "gotchas_total": len(GOTCHA_CORPUS),
        "gotchas_detected": len(detected),
        "missed": missed,
        "clean_total": len(CLEAN_CORPUS),
        "false_positives": false_positives,
    }


#: Format used for exhaustive refutations and safety proofs: small
#: enough that a sweep over every representable binding terminates in
#: seconds, rich enough (subnormals, infinities, NaNs, signed zeros)
#: that the gotchas it is asked about still exist.
WITNESS_PROOF_FORMAT = "tiny8"


def entry_witness_outcome(entry: CorpusEntry, *,
                          trials: int = 4000) -> dict:
    """Resolve one entry's dynamic witness obligation.

    Every statically flags-unsafe verdict must ship a
    ``check_binding``-verified counterexample (guided search first);
    when none exists the static verdict is an over-approximation, and
    the entry is instead *refuted* by an exhaustive sweep of the tiny
    format.  Statically safe entries get the same exhaustive sweep as
    a ``proved-safe`` certificate — a safe verdict that yields a
    witness is analyzer unsoundness and shows up as ``witnessed``.
    """
    from repro.optsim.parser import parse_expr
    from repro.oracle import FORMATS_BY_NAME
    from repro.staticfp.safety import predict_pass_safety
    from repro.staticfp.witness import find_witness

    config = entry.config()
    bindings = entry.binding_map() or None
    expr = parse_expr(entry.expr)
    safety = predict_pass_safety(expr, config, bindings)
    tiny = config.replace(fmt=FORMATS_BY_NAME[WITNESS_PROOF_FORMAT])
    if safety.flags_safe:
        report = find_witness(
            expr, tiny, bindings, strategy="exhaustive", expect_safe=True,
        )
    else:
        report = find_witness(
            expr, config, bindings, strategy="guided", trials=trials,
            safety=safety, expect_safe=False,
        )
        if not report.witnessed:
            # No witness in the native format within budget: decide the
            # question exhaustively on the tiny format instead.
            report = find_witness(
                expr, tiny, bindings, strategy="exhaustive",
                expect_safe=False,
            )
    out = {
        "key": entry.key,
        "verdict": "safe" if safety.flags_safe else "unsafe",
        "outcome": report.outcome,
        "strategy": report.strategy,
        "verified": report.witness.verified if report.witness else None,
        "evals": report.evals,
        "states": report.states,
        "resolved": report.outcome != "unresolved",
    }
    if report.witness is not None:
        out["witness"] = report.witness.to_dict()
    if report.coverage is not None:
        out["coverage"] = report.coverage.to_dict()
    return out


def witness_outcomes(*, trials: int = 4000) -> dict[str, dict]:
    """Witness resolution for every corpus entry (the CI witness gate)."""
    return {
        e.key: entry_witness_outcome(e, trials=trials)
        for e in GOTCHA_CORPUS + CLEAN_CORPUS
    }


def witness_summary(outcomes: dict[str, dict] | None = None) -> dict:
    """Aggregate witness resolution: every entry must land in
    ``witnessed`` (unsafe, counterexample verified), ``refuted``
    (statically unsafe, exhaustively shown equivalent), or
    ``proved-safe``; anything in ``unresolved`` fails the gate."""
    if outcomes is None:
        outcomes = witness_outcomes()
    by_outcome: dict[str, list[str]] = {
        "witnessed": [], "refuted": [], "proved-safe": [], "unresolved": [],
    }
    for key in sorted(outcomes):
        by_outcome.setdefault(outcomes[key]["outcome"], []).append(key)
    return {
        "total": len(outcomes),
        "resolved": sum(
            1 for o in outcomes.values() if o["outcome"] != "unresolved"
        ),
        **by_outcome,
    }


def _snapshot(outcomes: dict[str, dict]) -> dict:
    return {
        key: list(outcome["snapshot"])
        for key, outcome in sorted(outcomes.items())
    }


def _witness_snapshot(outcomes: dict[str, dict]) -> dict:
    """The drift-stable slice of witness outcomes: resolution kind and
    strategy only — search-effort counters and binding bits may move
    with heuristic tuning without the *verdict* changing."""
    return {
        key: {
            "verdict": outcome["verdict"],
            "outcome": outcome["outcome"],
            "strategy": outcome["strategy"],
            "verified": outcome["verified"],
        }
        for key, outcome in sorted(outcomes.items())
    }


def write_golden(path: Path = GOLDEN_PATH,
                 witnesses: dict[str, dict] | None = None) -> dict:
    """Regenerate the golden file (returns the document written).

    The v2 document pins both the diagnostic sets and the witness
    resolutions: ``{"entries": {key: [sev:id, ...]},
    "witnesses": {key: {verdict, outcome, strategy, verified}}}``.
    Pass precomputed ``witnesses`` (from :func:`witness_outcomes`) to
    avoid re-running the searches.
    """
    document = {
        "entries": _snapshot(corpus_outcomes()),
        "witnesses": _witness_snapshot(
            witnesses if witnesses is not None else witness_outcomes()
        ),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def _golden_entries(golden: dict) -> dict:
    # v1 golden files were the flat {key: snapshot} map; v2 nests it.
    if "entries" in golden and isinstance(golden["entries"], dict):
        return golden["entries"]
    return golden


def check_golden(path: Path = GOLDEN_PATH,
                 outcomes: dict[str, dict] | None = None) -> list[str]:
    """Diff current diagnostics against the golden file.

    Returns human-readable drift lines (empty == no drift).  Pass
    precomputed ``outcomes`` to diff without re-linting.
    """
    golden = _golden_entries(json.loads(path.read_text()))
    current = _snapshot(outcomes if outcomes is not None
                        else corpus_outcomes())
    drift: list[str] = []
    for key in sorted(set(golden) | set(current)):
        want = golden.get(key)
        got = current.get(key)
        if want is None:
            drift.append(f"{key}: new entry not in golden file")
        elif got is None:
            drift.append(f"{key}: entry missing (in golden file only)")
        elif want != got:
            drift.append(f"{key}: golden {want} != current {got}")
    return drift


def check_golden_witnesses(
    path: Path = GOLDEN_PATH,
    outcomes: dict[str, dict] | None = None,
) -> list[str]:
    """Diff current witness resolutions against the golden file.

    Complements :func:`check_golden` for the witness section of the v2
    document.  A v1 golden file (no witness section) drifts on every
    entry, prompting regeneration.
    """
    golden = json.loads(path.read_text()).get("witnesses", {})
    current = _witness_snapshot(
        outcomes if outcomes is not None else witness_outcomes()
    )
    drift: list[str] = []
    for key in sorted(set(golden) | set(current)):
        want = golden.get(key)
        got = current.get(key)
        if want is None:
            drift.append(f"{key}: witness outcome not in golden file")
        elif got is None:
            drift.append(f"{key}: witness outcome in golden file only")
        elif want != got:
            drift.append(f"{key}: golden {want} != current {got}")
    return drift
