"""Contraction and reassociation verdicts follow the bound ranges.

On ranges, :func:`repro.staticfp.safety.predict_pass_safety` calls a
contraction or reassociation site value- and flags-safe by one of four
rules (``absorbed``, ``overflow``, ``infinite-addend``,
``dominant-leaf``; see the module docstring of
:mod:`repro.staticfp.safety`).  These tests hold the rules to the
evaluator:

- on TINY8, in every (rounding mode, FTZ, DAZ) cell, every range box
  where a rule fires evaluates identically before and after the rewrite
  on every binding it admits, value and flags, in strict and in
  configured evaluation; boxes near each rule's edge are pinned, and a
  seeded sample of small boxes is swept (the larger sweep runs with
  ``--run-slow``);
- binary64 inputs drawn like the lint-witness benchmark's that a rule
  proves safe show no divergence under guided search or log-uniform
  draws;
- the product that *absorbs* its addend is no rule: a tie the fused
  form breaks the other way is built by the guided search.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.fpenv.rounding import RoundingMode
from repro.optsim import parse_expr
from repro.optsim.ast import expr_variables
from repro.optsim.batch_eval import evaluate_lanes
from repro.optsim.compliance import check_binding
from repro.optsim.machine import STRICT, MachineConfig, optimization_level
from repro.softfloat import BINARY64, SoftFloat, sf
from repro.softfloat.formats import TINY8
from repro.staticfp.analyze import as_abstract
from repro.staticfp.domain import AbstractValue
from repro.staticfp.regions import bits_of_key, total_keys
from repro.staticfp.safety import predict_pass_safety
from repro.staticfp.witness import find_witness
from repro.telemetry import telemetry_session
from tests.staticfp.test_pass_flags import _draw_range, _ordered, _unordered

NEW_RULES = ("absorbed", "overflow", "infinite-addend", "dominant-leaf")
SOURCES = ("a*b + c", "a*b - c", "c - a*b", "a*b + c*c", "a + b + c")
CELLS = [
    MachineConfig(
        name=f"{mode.name.lower()}{'-ftz' if ftz else ''}"
             f"{'-daz' if daz else ''}",
        fmt=TINY8, rounding=mode, ftz=ftz, daz=daz,
        fp_contract=True,
    )
    for mode in RoundingMode
    for ftz in (False, True)
    for daz in (False, True)
]
CELL_IDS = [c.name for c in CELLS]
KEYS = total_keys(TINY8)
VALUES = [SoftFloat(TINY8, bits_of_key(TINY8, key)) for key in range(KEYS)]


#: per TINY8 encoding: is it a NaN
IS_NAN = np.array([SoftFloat(TINY8, bits).is_nan
                   for bits in range(1 << TINY8.width)])


def _range(lo: str, hi: str | None = None) -> AbstractValue:
    return AbstractValue.from_range(sf(lo, TINY8),
                                    sf(lo if hi is None else hi, TINY8))


def _fired(report) -> dict[str, object]:
    """The contraction and reassociation verdicts a range rule decided
    safe, by pass name."""
    return {v.pass_name: v for v in report.verdicts if v.proved_on_ranges}


def _admitted(value: AbstractValue) -> np.ndarray:
    return np.array([v.bits for v in VALUES if value.admits(v)],
                    dtype=np.uint64)


def _same(lhs, rhs) -> np.ndarray:
    """Per lane: same value (all NaNs one value) and same flags."""
    lhs_bits, lhs_flags = lhs
    rhs_bits, rhs_flags = rhs
    same_value = (lhs_bits == rhs_bits) | (
        IS_NAN[lhs_bits.astype(np.int64)] & IS_NAN[rhs_bits.astype(np.int64)])
    return same_value & (lhs_flags == rhs_flags)


def _box_divergence(before, after, config, box) -> dict | None:
    """The first binding of ``box`` on which the rewrite changes the
    value or the flags, in strict or in configured evaluation."""
    names = sorted(box)
    grids = np.meshgrid(*(_admitted(box[name]) for name in names),
                        indexing="ij")
    lanes = {name: grid.ravel() for name, grid in zip(names, grids)}
    strict = STRICT.replace(fmt=config.fmt)
    ok = np.ones(grids[0].size, dtype=bool)
    for semantics in (strict, config):
        ok &= _same(evaluate_lanes(before, lanes, semantics),
                    evaluate_lanes(after, lanes, semantics))
    if ok.all():
        return None
    lane = int(np.argmin(ok))
    return {name: str(SoftFloat(TINY8, int(lanes[name][lane])))
            for name in names}


def _licensed(source: str, config: MachineConfig) -> MachineConfig:
    """``config`` licensing reassociation for the pure sum only (it
    would turn ``x*y - z`` into ``x*y + (-z)``, which is not
    contracted)."""
    return config if "*" in source else config.replace(allow_reassoc=True)


def _check_box(source: str, config: MachineConfig, box) -> set[str]:
    """Judge one box; every verdict a range rule fired for must hold on
    every admitted binding.  Returns the passes it fired for."""
    config = _licensed(source, config)
    report = predict_pass_safety(parse_expr(source), config, box)
    fired = _fired(report)
    for verdict in fired.values():
        bad = _box_divergence(verdict.before, verdict.after, config, box)
        assert bad is None, (config.name, verdict.describe(),
                             {k: str(v) for k, v in box.items()}, bad)
    return set(fired)


#: Boxes at the edge of each rule, on TINY8 (precision 3: the values in
#: [8, 16) are 8, 10, 12, 14 with ulp 2; max_finite is 14 and the RNE
#: overflow threshold 15).  Each one a rule must decide safe...
SAFE_BOXES = [
    # absorbed: |a*b| <= 0.4375 < ulp(8)/4, c on the binade edge 8
    ("a*b + c", {"a": _range("0.5", "0.625"), "b": _range("0.5", "0.625"),
                 "c": _range("-10", "-8")}, "absorbed"),
    ("c - a*b", {"a": _range("0.5", "0.625"), "b": _range("0.5", "0.625"),
                 "c": _range("8", "14")}, "absorbed"),
    # overflow: 4*4 - 0.5 >= 15
    ("a*b - c", {"a": _range("4", "5"), "b": _range("4", "5"),
                 "c": _range("0.25", "0.5")}, "overflow"),
    # infinite-addend: c*c surely overflows (raising INEXACT, as the
    # product may), and the product stays finite
    ("a*b + c*c", {"a": _range("1", "2"), "b": _range("0.5", "1.5"),
                   "c": _range("8", "14")}, "infinite-addend"),
    # dominant-leaf: (0.25 + 0.125) * (1 + 1/8) < ulp(8)/4
    ("a + b + c", {"a": _range("8", "10"), "b": _range("0.25"),
                   "c": _range("0.0625", "0.125")}, "dominant-leaf"),
    ("a + b + c", {"a": _range("-0.25"), "b": _range("-14", "-8"),
                   "c": _range("-0.125", "-0.0625")}, "dominant-leaf"),
]
#: ...and boxes just past an edge, where a looser rule would fire and
#: the rewrite does change the result (each kills one seeded mutation).
UNSAFE_BOXES = [
    # half an ulp instead of a quarter: 0.75 * 0.75 = 0.5625 rounds to
    # the tie 0.5, and -8 + 0.5 rounds to -8 while -8 + 0.5625 is -7
    ("a*b + c", {"a": _range("0.75", "0.875"), "b": _range("0.75", "0.875"),
                 "c": _range("-8")}),
    # a product that absorbs its addend: 1.5 * 1.5 = 2.25 is a tie that
    # rounds to 2, while 2.25 + 0.0625 rounds to 2.5
    ("a*b + c", {"a": _range("1.5", "1.75"), "b": _range("1.5", "1.75"),
                 "c": _range("0.0625")}),
    # the overflow threshold taken as max_finite: 3 * 5 = 15 rounds to
    # inf, while 15 - 0.5 rounds to 14
    ("a*b + c", {"a": _range("3"), "b": _range("5"),
                 "c": _range("-0.5", "-0.25")}),
    # a product that underflows: UNDERFLOW is raised only unfused
    ("a*b + c", {"a": _range("0.3125"), "b": _range("0.3125", "0.375"),
                 "c": _range("8", "10")}),
    # half an ulp for the dominant leaf: 8 - 0.375 rounds to 8 twice,
    # while 8 - 0.75 rounds to 7
    ("a + b + c", {"a": _range("8", "10"), "b": _range("-0.375"),
                   "c": _range("-0.4375", "-0.375")}),
    # small leaves of both signs: 0.125 - 0.125 cancels exactly, so
    # 8 + (b + c) is exact while (8 + b) + c is not
    ("a + b + c", {"a": _range("8", "10"), "b": _range("0.125"),
                   "c": _range("-0.125")}),
    # a sum of small leaves that is subnormal raises DENORMAL_RESULT in
    # the re-bracketed form only
    ("a + b + c", {"a": _range("8", "10"), "b": _range("0.0625"),
                   "c": _range("0.0625", "0.125")}),
]


def _rules(source: str, config: MachineConfig, box) -> dict[str, int]:
    with telemetry_session() as telemetry:
        predict_pass_safety(parse_expr(source), _licensed(source, config),
                            box)
    prefix = "staticfp.pass_value_rule{"
    return {
        name[len(prefix):-1]: metric["value"]
        for name, metric in telemetry.metrics.snapshot().items()
        if name.startswith(prefix)
    }


@pytest.mark.parametrize("source,box,rule", SAFE_BOXES,
                         ids=[f"{s}:{r}" for s, _, r in SAFE_BOXES])
def test_each_rule_fires_at_its_edge(source, box, rule):
    config = CELLS[0]
    assert config.rounding is RoundingMode.NEAREST_EVEN
    rules = _rules(source, config, box)
    assert [key.rpartition("rule=")[2] for key in rules] == [rule], rules


@pytest.mark.parametrize("config", CELLS, ids=CELL_IDS)
def test_edge_boxes_hold_in_every_cell(config):
    """A rule that fires holds on every binding of its box; past the
    edge no rule fires, and the box has a real counterexample."""
    for source, box, _ in SAFE_BOXES:
        fired = _check_box(source, config, box)
        if config.rounding is not RoundingMode.NEAREST_EVEN:
            assert not fired, (source, config.name)
    for source, box in UNSAFE_BOXES:
        assert not _check_box(source, config, box), (source, config.name)
    if config.rounding is RoundingMode.NEAREST_EVEN and not config.daz:
        for source, box in UNSAFE_BOXES:
            licensed = _licensed(source, config)
            report = predict_pass_safety(parse_expr(source), licensed, box)
            verdict = next(v for v in report.verdicts if v.applied)
            assert _box_divergence(verdict.before, verdict.after, licensed,
                                   box) is not None, (source, box)


def _random_range(rng: random.Random) -> AbstractValue:
    """A small box side: a run of 1 to 4 adjacent TINY8 encodings."""
    lo = rng.randrange(KEYS)
    hi = min(KEYS - 1, lo + rng.choice((0, 0, 1, 1, 2, 3)))
    return AbstractValue.from_range(VALUES[lo], VALUES[hi])


def _sweep(config: MachineConfig, boxes: int, seed: str) -> dict[str, int]:
    rng = random.Random(f"{seed}/{config.name}")
    fired = dict.fromkeys(("fma-contraction", "reassociate"), 0)
    for source in SOURCES:
        names = sorted(expr_variables(parse_expr(source)))
        for _ in range(boxes):
            box = {name: _random_range(rng) for name in names}
            if all(side.is_point for side in box.values()):
                continue  # the point rule decides it
            for pass_name in _check_box(source, config, box):
                fired[pass_name] += 1
    return fired


@pytest.mark.parametrize("config", CELLS, ids=CELL_IDS)
def test_sampled_boxes_hold(config):
    boxes = 120 if config.rounding is RoundingMode.NEAREST_EVEN else 8
    fired = _sweep(config, boxes, "tier1")
    if config.rounding is not RoundingMode.NEAREST_EVEN:
        assert not any(fired.values())


@pytest.mark.slow
@pytest.mark.parametrize("config", CELLS, ids=CELL_IDS)
def test_swept_boxes_hold(config):
    boxes = 3000 if config.rounding is RoundingMode.NEAREST_EVEN else 150
    fired = _sweep(config, boxes, "slow")
    if config.rounding is not RoundingMode.NEAREST_EVEN:
        assert not any(fired.values())
        return
    # the sweep is not vacuous; under FTZ or DAZ no TINY8 sum of two
    # small leaves is both normal and below a quarter ulp of 8
    assert fired["fma-contraction"], fired
    assert fired["reassociate"] or config.ftz or config.daz, fired


# ----------------------------------------------------------------------
# binary64, on the benchmark's bands
# ----------------------------------------------------------------------
LEVELS = ("-O3", "--ffast-math", "-Ofast")
B64_SOURCES = SOURCES + ("a + b + c + d",)


def _log_uniform(bounds: tuple[str, str], rng: random.Random) -> SoftFloat:
    """A draw uniform over the representable values of the range (so
    roughly log-uniform over its magnitudes), admitted by it."""
    lo, hi = _ordered(float(bounds[0])), _ordered(float(bounds[1]))
    admitted = as_abstract(bounds, BINARY64)
    while True:
        value = sf(_unordered(rng.randint(lo, hi)), BINARY64)
        if admitted.admits(value):
            return value


@functools.lru_cache(maxsize=None)
def _proved_inputs(count: int, seed: str):
    """Seeded benchmark-like inputs that a range rule proves safe."""
    rng = random.Random(seed)
    found = []
    for _ in range(4000):
        source = rng.choice(B64_SOURCES)
        level = rng.choice(LEVELS)
        expr = parse_expr(source)
        ranges = {name: _draw_range(rng) for name in expr_variables(expr)}
        report = predict_pass_safety(expr, optimization_level(level), ranges)
        if _fired(report) and report.flags_safe:
            found.append((source, level, ranges, report))
            if len(found) == count:
                break
    return tuple(found)


@pytest.mark.parametrize("index", range(6))
def test_proved_binary64_inputs_do_not_diverge(index):
    source, level, ranges, report = _proved_inputs(6, "b64")[index]
    config = optimization_level(level)
    expr = parse_expr(source)
    rng = random.Random(f"{source}/{level}/{index}")
    for _ in range(300):
        binding = {name: _log_uniform(bounds, rng)
                   for name, bounds in ranges.items()}
        _, _, value_diverged, flags_diverged = check_binding(
            expr, report.compiled, binding, config)
        assert not (value_diverged or flags_diverged), (
            report.describe(), binding)
    searched = find_witness(expr, config, ranges, trials=300,
                            safety=report, expect_safe=True)
    assert searched.outcome == "unresolved", searched.describe()


def test_benchmark_bands_reach_every_contraction_rule():
    rules = set()
    for _, _, _, report in _proved_inputs(40, "b64-rules"):
        for verdict in _fired(report).values():
            rules.add(verdict.reason)
    assert any("absorbed" in r for r in rules)
    assert any("dominant-leaf" in r for r in rules)


# ----------------------------------------------------------------------
# The tie hazard: built, not sampled
# ----------------------------------------------------------------------
#: ROADMAP's hand-made case: ``c`` is far below the product's ulp
TIE_RANGES = {"a": ("3.9e299", "2.1e303"), "b": ("0.0037", "13.4"),
              "c": ("2.0e-10", "8.3e-8")}


def test_hand_made_tie_diverges():
    config = optimization_level("--ffast-math")
    binding = {"a": sf("0x1.0000004p+996", BINARY64),
               "b": sf("0x1.0000002p+0", BINARY64),
               "c": sf("1e-8", BINARY64)}
    strict, optimized, value_diverged, _ = check_binding(
        parse_expr("a*b + c"), parse_expr("fma(a, b, c)"), binding, config)
    assert value_diverged
    assert strict.value.same_bits(sf("0x1.0000006000000p+996", BINARY64))
    assert optimized.value.same_bits(sf("0x1.0000006000001p+996", BINARY64))


def test_product_absorbing_its_addend_is_no_rule():
    report = predict_pass_safety(parse_expr("a*b + c"),
                                 optimization_level("--ffast-math"),
                                 TIE_RANGES)
    assert not report.value_safe
    assert _rules("a*b + c", optimization_level("--ffast-math"),
                  TIE_RANGES) == {"pass=fma-contraction,rule=unsafe": 1}


@pytest.mark.parametrize("level", ["-O3", "--ffast-math", "-Ofast"])
def test_guided_search_builds_the_tie_witness(level):
    report = find_witness(parse_expr("a*b + c"), optimization_level(level),
                          TIE_RANGES, trials=400)
    assert report.witnessed and report.witness.verified
    assert report.evals <= 400
    assert report.detail == "goal 'midpoint:((a * b) + c)'"


@pytest.mark.parametrize("source", ["a*b - c", "c - a*b", "a*b + 1e-9"])
def test_tie_witness_for_each_contraction_form(source):
    ranges = {name: TIE_RANGES[name]
              for name in expr_variables(parse_expr(source))}
    report = find_witness(parse_expr(source), optimization_level("-O3"),
                          ranges, trials=400)
    assert report.witnessed and report.detail.startswith("goal 'midpoint:")


def test_square_has_no_tie_goal():
    """``a*a`` shares one variable between both factors: no candidate
    is built, and the search falls back to sampling."""
    report = find_witness(parse_expr("a*a + c"), optimization_level("-O3"),
                          {"a": ("3.9e150", "2.1e151"), "c": ("1", "2")},
                          trials=50)
    assert "midpoint" not in report.detail


# ----------------------------------------------------------------------
# The environment verdict judges DAZ on every leaf
# ----------------------------------------------------------------------
def test_daz_folded_subnormal_literal_is_value_unsafe_and_witnessed():
    config = optimization_level("-Ofast")
    expr = parse_expr("0x1p-1070 * 2.0")
    report = predict_pass_safety(expr, config)
    assert not report.value_safe
    assert "DAZ" in report.env_reason
    searched = find_witness(expr, config)
    assert searched.witnessed and searched.witness.value_diverged


def test_counters_name_every_rule():
    counts = {}
    for source, box, rule in SAFE_BOXES:
        for key, value in _rules(source, CELLS[0], box).items():
            counts[key] = counts.get(key, 0) + value
    point = {name: _range("1") for name in "abc"}
    counts.update(_rules("a*b + c", CELLS[0], point))
    assert {key.rpartition("rule=")[2] for key in counts} \
        == set(NEW_RULES) | {"point"}


def test_verdicts_are_the_same_with_telemetry_on_and_off():
    for source, box, _ in SAFE_BOXES:
        config = _licensed(source, CELLS[0])
        outside = predict_pass_safety(parse_expr(source), config, box)
        with telemetry_session():
            inside = predict_pass_safety(parse_expr(source), config, box)
        assert outside.verdicts == inside.verdicts

