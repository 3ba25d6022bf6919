"""Pass-safety flag verdicts follow the rewrite.

A value-preserving pass application is flags-safe when every site it
rewrites is a table entry (a rewrite that raises the same flags in
every environment), a unit factor ``x*1``/``x/1`` whose operand can be
neither subnormal nor NaN, or a site whose removed and added operations
cannot raise any flag on the bound ranges.  These tests hold the rule
to the evaluator:

- every application classified flags-safe, over the corpus under every
  level with seeded binding ranges, evaluates identically before and
  after on bindings drawn from those ranges;
- every table entry is flag-identical on all of TINY8 in every
  (rounding mode, FTZ, DAZ) cell;
- the binary64 corner counterexamples that keep ``x*1 -> x`` out of the
  table stay pinned.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.fpenv.rounding import RoundingMode
from repro.optsim import parse_expr
from repro.optsim.ast import (
    Binary,
    BinOp,
    Const,
    Unary,
    UnOp,
    Var,
    expr_variables,
)
from repro.optsim.compliance import _same_value, check_binding, corner_values
from repro.optsim.evaluator import evaluate
from repro.optsim.machine import STRICT, optimization_level
from repro.optsim.passes import ConstantFold, IdentitySimplify
from repro.optsim.pipeline import _MAX_ITERATIONS, enabled_passes
from repro.softfloat import BINARY64, SoftFloat, sf
from repro.softfloat.formats import TINY8
from repro.softfloat.printing import format_hex
from repro.staticfp.analyze import as_abstract
from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS
from repro.staticfp.safety import predict_pass_safety
from repro.telemetry import telemetry_session

#: the corpus expressions, plus rewrites the corpus does not reach:
#: unit factors, exact folds and nested table entries
SOURCES = tuple(e.expr for e in GOTCHA_CORPUS + CLEAN_CORPUS) + (
    "a * 1.0 + b",
    "(a / 1.0) * (0.5 + 0.25)",
    "(1.0 + 2.0) * a",
    "-(-a) / 4.0",
    "abs(abs(a - b)) * 1.0",
    "(a * 1.0) / 2.0 - 1.0",
    "0x1p-1070 * 2.0 - a",
)
LEVELS = ("strict", "-O2", "-O3", "--ffast-math", "-Ofast")
#: log10 magnitude bands of the lint-witness benchmark's binding
#: ranges: ordinary, wide, subnormal and near-overflow
BANDS = ((-3.0, 3.0), (-30.0, 30.0), (-320.0, -300.0), (290.0, 308.2))
RANGE_DRAWS = 3
POINTS_PER_RANGE = 6
CELLS = [
    STRICT.replace(fmt=TINY8, rounding=mode, ftz=ftz, daz=daz)
    for mode in RoundingMode
    for ftz in (False, True)
    for daz in (False, True)
]
CELL_IDS = [
    f"{c.rounding.name.lower()}{'-ftz' if c.ftz else ''}"
    f"{'-daz' if c.daz else ''}"
    for c in CELLS
]
TINY8_VALUES = [SoftFloat(TINY8, bits) for bits in range(1 << TINY8.width)]


def _draw_range(rng: random.Random) -> tuple[str, str]:
    lo_exp, hi_exp = BANDS[rng.randrange(len(BANDS))]
    low = rng.uniform(lo_exp, hi_exp)
    high = min(hi_exp, low + rng.uniform(0.0, 4.0))
    lo, hi = 10.0 ** low, 10.0 ** high
    if rng.random() < 0.25:
        lo, hi = -hi, (lo if rng.random() < 0.5 else hi)
    return repr(lo), repr(hi)


def _ordered(x: float) -> int:
    """Doubles as integers in value order (uniform over representable
    values between two endpoints is roughly log-uniform)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _unordered(key: int) -> float:
    bits = key if key >= 0 else (-key) | (1 << 63)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _points(bounds: tuple[str, str], rng: random.Random) -> list[SoftFloat]:
    """Admitted values of one binding range: its ends, zero when inside,
    and seeded draws across its representable values."""
    lo, hi = float(bounds[0]), float(bounds[1])
    keys = [_ordered(lo), _ordered(hi)]
    keys += [rng.randint(keys[0], keys[1]) for _ in range(POINTS_PER_RANGE)]
    values = [_unordered(key) for key in keys] + [0.0, -0.0]
    admitted = as_abstract(bounds, BINARY64)
    points = {}
    for value in values:
        point = sf(value, BINARY64)
        if admitted.admits(point):
            points[point.bits] = point
    return list(points.values())


def _applications(expr, config) -> dict[str, list]:
    """Each pass's rewrites, replaying the pipeline's fixed-point loop."""
    out: dict[str, list] = {}
    current = expr
    for _ in range(_MAX_ITERATIONS):
        previous = current
        for pass_ in enabled_passes(config):
            rewritten = pass_.apply(current, config)
            if rewritten != current:
                out.setdefault(pass_.name, []).append((current, rewritten))
                current = rewritten
        if current == previous:
            break
    return out


def _diverges(before, after, binding, config) -> bool:
    """Does the rewrite change the value or the flags, in strict
    evaluation (:func:`check_binding` on the strict config) or under
    ``config`` itself?  A pass verdict holds in both: the environment
    verdict compares the two semantics on the compiled form only."""
    strict = STRICT.replace(fmt=config.fmt)
    _, _, value_diverged, flags_diverged = check_binding(
        before, after, binding, strict)
    lhs = evaluate(before, binding, config)
    rhs = evaluate(after, binding, config)
    return value_diverged or flags_diverged \
        or not _same_value(lhs.value, rhs.value) or lhs.flags != rhs.flags


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("source", sorted(set(SOURCES)))
def test_flags_safe_applications_keep_value_and_flags(source, level):
    config = optimization_level(level)
    expr = parse_expr(source)
    rng = random.Random(f"{source}/{level}")
    names = expr_variables(expr)
    applications = _applications(expr, config)
    for _ in range(RANGE_DRAWS):
        ranges = {name: _draw_range(rng) for name in names}
        report = predict_pass_safety(expr, config, ranges)
        points = {name: _points(ranges[name], rng) for name in names}
        bindings = [
            {name: rng.choice(points[name]) for name in names}
            for _ in range(POINTS_PER_RANGE)
        ]
        for verdict in report.verdicts:
            if not (verdict.applied and verdict.flags_safe):
                continue
            for before, after in applications[verdict.pass_name]:
                for binding in bindings:
                    assert not _diverges(before, after, binding, config), (
                        verdict.describe(), binding)
        if report.flags_safe:
            for binding in bindings:
                _, _, value_diverged, flags_diverged = check_binding(
                    expr, report.compiled, binding, config)
                assert not (value_diverged or flags_diverged), (
                    report.describe(), binding)


def _rules(expr, config) -> dict[str, int]:
    """The flag rules that decided ``expr``'s rewrites, with counts."""
    with telemetry_session() as telemetry:
        predict_pass_safety(expr, config)
    prefix = "staticfp.pass_flags_rule{"
    return {
        name[len(prefix):-1]: metric["value"]
        for name, metric in telemetry.metrics.snapshot().items()
        if name.startswith(prefix)
    }


def _same_output(lhs, rhs) -> bool:
    """Bit-identical, or both quiet NaNs (a consumer raises the same
    flags for either)."""
    return lhs.flags == rhs.flags and (
        lhs.value.same_bits(rhs.value)
        or lhs.value.is_quiet_nan and rhs.value.is_quiet_nan
    )


def _literals(values) -> list[str]:
    """Source spellings of ``values`` but the signaling NaNs (the
    language spells a quiet NaN without its payload)."""
    spelled = {
        ("-nan" if value.sign else "nan") if value.is_nan
        else format_hex(value): None
        for value in values if not value.is_signaling_nan
    }
    return list(spelled)


def _table_instances():
    """Candidate table rewrites on TINY8, as ``(expr, pass)`` pairs."""
    instances = [(parse_expr("-(-x)"), IdentitySimplify()),
                 (parse_expr("abs(abs(x))"), IdentitySimplify())]
    for exponent in range(-4, 5):
        for sign in ("", "-"):
            divisor = Const(f"{sign}0x1p{exponent:+d}")
            instances.append((Binary(BinOp.DIV, Var("x"), divisor),
                              IdentitySimplify()))
    for literal in _literals(TINY8_VALUES):
        for op in (UnOp.NEG, UnOp.ABS):
            instances.append((Unary(op, Const(literal)), ConstantFold()))
    return instances


@pytest.mark.parametrize("config", CELLS, ids=CELL_IDS)
def test_table_entries_are_flag_identical_on_tiny8(config):
    checked = 0
    for expr, pass_ in _table_instances():
        rules = _rules(expr, config)
        if rules != {f"pass={pass_.name},rule=table": 1}:
            # x/1 is a unit factor; x/2^k with a subnormal constant on
            # either side is not an entry
            assert isinstance(expr, Binary), (str(expr), rules)
            continue
        rewritten = pass_.apply(expr, config)
        values = TINY8_VALUES if expr_variables(expr) else [None]
        for value in values:
            binding = {} if value is None else {"x": value}
            assert _same_output(evaluate(expr, binding, config),
                                evaluate(rewritten, binding, config)), (
                str(expr), str(rewritten), value)
        checked += 1
    # -(-x), abs(abs(x)); x/±2^k for k in -2..2 (TINY8's normal powers
    # of two with a normal reciprocal) except the unit x/1; and both
    # folds of each literal
    assert checked == 2 + (2 * 5 - 1) + 2 * len(_literals(TINY8_VALUES))


def test_subnormal_power_of_two_divisor_is_not_a_table_entry():
    """x / 2^-3 on TINY8 divides by a subnormal, which DAZ reads as
    zero; its rewrite to x * 8 is left to the removed-operation rule."""
    config = STRICT.replace(fmt=TINY8, ftz=True, daz=True)
    expr = parse_expr("x / 0x1p-3")
    assert _rules(expr, config) == {"pass=identity-simplify,rule=unsafe": 1}
    one = {"x": sf(1.0, TINY8)}
    assert evaluate(expr, one, config).value.is_inf
    assert not evaluate(IdentitySimplify().apply(expr, config), one,
                        config).value.is_inf


def _corner_mismatches(before, after) -> list:
    """``(level, x)`` pairs of binary64 corner values on which the two
    forms differ in value or flags, over the five levels."""
    out = []
    for level in LEVELS:
        config = optimization_level(level)
        for value in corner_values(BINARY64):
            binding = {"x": value}
            if not _same_output(evaluate(before, binding, config),
                                evaluate(after, binding, config)):
                out.append((level, value))
    return out


@pytest.mark.parametrize("source", ["x * 1.0", "1.0 * x", "x / 1.0"])
def test_unit_factor_counterexamples_on_binary64_corners(source):
    """Why ``x*1 -> x`` is conditional: the multiply raises
    DENORMAL_RESULT on a subnormal x, and INVALID on a signaling NaN."""
    mismatches = _corner_mismatches(parse_expr(source), parse_expr("x"))
    assert len(mismatches) == 20
    assert {level for level, _ in mismatches} == set(LEVELS)
    assert all(value.is_subnormal or value.is_signaling_nan
               for _, value in mismatches)
    unbound = predict_pass_safety(parse_expr(source), STRICT)
    assert unbound.value_safe and not unbound.flags_safe
    normal = predict_pass_safety(parse_expr(source), STRICT,
                                 {"x": ("1e-300", "1e300")})
    assert normal.flags_safe


@pytest.mark.parametrize("source,rewritten", [
    ("x / 2.0", "x * 0x1.0p-1"),
    ("x / 0x1p-1022", "x * 0x1.0p+1022"),
    ("x / 0x1p+1022", "x * 0x1.0p-1022"),
    ("-(-x)", "x"),
    ("abs(abs(x))", "abs(x)"),
])
def test_table_entries_have_no_binary64_corner_counterexample(
        source, rewritten):
    expr = parse_expr(source)
    assert IdentitySimplify().apply(expr, STRICT) == parse_expr(rewritten)
    assert _corner_mismatches(expr, parse_expr(rewritten)) == []


def test_literal_negation_has_no_binary64_corner_counterexample():
    for literal in _literals(corner_values(BINARY64)):
        for op in (UnOp.NEG, UnOp.ABS):
            expr = Unary(op, Const(literal))
            folded = ConstantFold().apply(expr, STRICT)
            assert _corner_mismatches(expr, folded) == [], str(expr)


def test_unit_factor_on_a_signaling_nan_is_not_flag_safe():
    report = predict_pass_safety(parse_expr("a * 1.0"), STRICT,
                                 {"a": "snan"})
    assert report.value_safe and not report.flags_safe
    _, _, _, flags_diverged = check_binding(
        report.expr, report.compiled, {"a": sf("snan", BINARY64)}, STRICT)
    assert flags_diverged


def test_a_table_entry_still_judges_its_rewritten_operand():
    """``(a * 1.0) / 2.0 -> a * 0.5`` in one application: the division
    is a table entry, but the unit factor inside it is not flag-safe for
    a subnormal ``a``."""
    report = predict_pass_safety(parse_expr("(a * 1.0) / 2.0"), STRICT)
    assert str(report.compiled) == "(a * 0x1.0p-1)"
    assert report.value_safe and not report.flags_safe
    _, _, _, flags_diverged = check_binding(
        report.expr, report.compiled, {"a": sf(5e-324, BINARY64)}, STRICT)
    assert flags_diverged


def test_daz_folding_a_subnormal_literal_is_not_flag_safe():
    """-Ofast folds ``0x1p-1070 * 2.0`` with DAZ reading the literal as
    zero: nothing is raised in the machine's semantics, but strict
    evaluation of the source raises DENORMAL_RESULT."""
    config = optimization_level("-Ofast")
    report = predict_pass_safety(parse_expr("0x1p-1070 * 2.0"), config)
    fold = next(v for v in report.verdicts if v.pass_name == "constant-fold")
    assert fold.applied and not fold.flags_safe
    _, _, _, flags_diverged = check_binding(
        report.expr, report.compiled, {}, config)
    assert flags_diverged


def test_folding_a_signaling_literal_is_not_flag_safe():
    """``-(snan)`` folds to a quiet NaN, so the addition consuming it no
    longer raises INVALID."""
    report = predict_pass_safety(parse_expr("-(snan) + a"), STRICT)
    assert report.value_safe and not report.flags_safe


@pytest.mark.parametrize("source,level", [
    ("0.1 + 0.2", "strict"),
    ("0.1 + 0.2", "-Ofast"),
    ("(a - b) / 2.0 + 0.1 * 3.0", "strict"),
])
def test_erased_inexact_stays_flags_unsafe(source, level):
    report = predict_pass_safety(parse_expr(source),
                                 optimization_level(level))
    assert report.value_safe and not report.flags_safe
