"""One analysis per lint: no tree is analyzed twice for the same question.

A witnessed lint used to analyze its expression again in the safety
prediction, the goal derivation and the coverage map.  ``lint`` now
analyzes once and hands that :class:`~repro.staticfp.analyze.Analysis`
down by object; this suite counts :func:`~repro.staticfp.analyze.analyze`
calls over the corpus to keep it that way, and checks the witness
outcomes did not move.
"""

import collections
import json
import sys

import pytest

from repro.optsim import parse_expr
from repro.staticfp import lint
from repro.staticfp.corpus import CLEAN_CORPUS, GOLDEN_PATH, GOTCHA_CORPUS

ENTRIES = GOTCHA_CORPUS + CLEAN_CORPUS
GOLDEN = json.loads(GOLDEN_PATH.read_text())["witnesses"]


@pytest.fixture
def analyze_calls(monkeypatch):
    """Every ``analyze`` call as ``(tree, config, bindings)``, through
    whichever module imported the function by name."""
    module = sys.modules["repro.staticfp.analyze"]
    original = module.analyze
    calls = []

    def counting(expr, bindings=None, config=None, **kwargs):
        calls.append((expr, config, bindings, kwargs))
        if config is None:
            return original(expr, bindings, **kwargs)
        return original(expr, bindings, config, **kwargs)

    for name, loaded in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(loaded, "analyze", None) is original:
            monkeypatch.setattr(loaded, "analyze", counting)
    return calls


def _question(call):
    """What an analysis answers: the tree *object* (facts are keyed on
    node identity), the config, the bindings and the NaN assumption."""
    expr, config, bindings, kwargs = call
    ranges = tuple(sorted(
        (name, repr(value)) for name, value in (bindings or {}).items()
    ))
    return id(expr), config, ranges, tuple(sorted(kwargs.items()))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.key)
def test_witnessed_lint_analyzes_each_tree_once(entry, analyze_calls):
    expr = parse_expr(entry.expr)
    report = lint(expr, entry.config(), entry.binding_map() or None,
                  witness=True)
    assert analyze_calls, "lint must analyze through the module attribute"
    repeats = {
        question: count
        for question, count in collections.Counter(
            _question(call) for call in analyze_calls
        ).items()
        if count > 1
    }
    assert not repeats, [
        (str(call[0]), call[1].name) for call in analyze_calls
    ]
    # the lint's own analysis is the one its safety verdict reused
    # whenever nothing rewrote the tree
    if report.safety.compiled is expr:
        assert report.safety.analysis is report.analysis
    expected = GOLDEN[entry.key]
    assert report.safety.flags_safe == (expected["verdict"] == "safe")
    if expected["verdict"] == "safe":
        assert report.witness_report is None
    elif expected["outcome"] == "witnessed":
        assert report.witness_report.outcome == "witnessed"
        assert report.witness_report.witness.verified
    else:
        # refuted on the tiny format: no witness in the native one
        assert expected["outcome"] == "refuted"
        assert report.witness_report.outcome == "unresolved"


def test_corpus_needs_fewer_analyses_than_one_per_stage(analyze_calls):
    """Across the corpus a clean lint costs one analysis and one with a
    witness search at most two more (the compiled form and the strict side of the
    coverage map), not the five-odd it took when every stage analyzed
    for itself."""
    searched = 0
    for entry in ENTRIES:
        report = lint(entry.expr, entry.config(),
                      entry.binding_map() or None, witness=True)
        searched += report.witness_report is not None
    assert searched == sum(
        1 for entry in ENTRIES if GOLDEN[entry.key]["verdict"] == "unsafe"
    )
    assert len(analyze_calls) <= len(ENTRIES) + 2 * searched


@pytest.mark.parametrize("level", ["strict", "-O3", "-Ofast"])
def test_a_lint_without_search_analyzes_once(level, analyze_calls):
    """The pass-safety verdicts and the compiled form's analysis extend
    the lint's own analysis to the rewritten nodes; none re-analyzes."""
    from repro.optsim.machine import optimization_level

    for entry in ENTRIES:
        analyze_calls.clear()
        lint(entry.expr, optimization_level(level),
             entry.binding_map() or None)
        assert len(analyze_calls) == 1, entry.key


def test_a_witnessed_o3_lint_analyzes_once(analyze_calls):
    """At -O3 the strict side of the coverage map asks the lint's own
    question: -O3's analysis context (format, rounding, FTZ, DAZ) is
    strict's, so its facts are reused."""
    from repro.optsim.machine import optimization_level

    entry = next(e for e in ENTRIES if e.key == "madd")
    report = lint(parse_expr(entry.expr), optimization_level("-O3"),
                  entry.binding_map(), witness=True)
    assert report.witness_report.outcome == "witnessed"
    assert len(analyze_calls) == 1


@pytest.mark.parametrize("level", ["strict", "-O3", "--ffast-math"])
def test_extended_analysis_equals_a_fresh_one(level):
    """Each compiled form's analysis, extended from the source's, holds
    exactly the facts a fresh analysis of the compiled tree computes."""
    from repro.optsim.machine import optimization_level
    from repro.staticfp import analyze, predict_pass_safety

    config = optimization_level(level)
    for entry in ENTRIES:
        bindings = entry.binding_map() or None
        safety = predict_pass_safety(parse_expr(entry.expr), config,
                                     bindings)
        fresh = analyze(safety.compiled, bindings, config)
        extended = safety.analysis
        assert extended.expr is safety.compiled
        assert extended.order == fresh.order
        assert [extended.fact(node) for node in extended.order] \
            == [fresh.fact(node) for node in fresh.order], entry.key
