"""Soundness properties: the analyzer must bracket the evaluator.

For random expressions, random in-range bindings, and every machine
configuration flavor, three properties must hold:

- **value containment**: the concrete result is admitted by the root's
  abstract value;
- **may-completeness**: every sticky flag the evaluation raises is in
  the analysis's may set;
- **must-correctness**: every flag in the must set is raised.

Uses hypothesis when installed; otherwise a seeded in-repo generator
runs the same properties (minimal environments lose shrinking, not
coverage).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.optsim.ast import (
    FMA,
    Binary,
    BinOp,
    Const,
    Unary,
    UnOp,
    Var,
    expr_variables,
)
from repro.optsim.evaluator import evaluate
from repro.optsim.machine import STRICT
from repro.softfloat import (
    BINARY16,
    BINARY32,
    BINARY64,
    fp_add,
    fp_div,
    fp_lt,
    parse_softfloat,
)
from repro.softfloat.directed import probe_op
from repro.softfloat.formats import TINY8
from repro.softfloat.value import SoftFloat
from repro.staticfp import AbstractValue, analyze
from repro.staticfp.domain import AnalysisContext, transfer
from tests.strategies import forall_seeds

FORMATS = [BINARY16, BINARY32, BINARY64]
FORMAT_IDS = [f.name for f in FORMATS]
N_EXAMPLES = 150

CONFIG_FLAVORS = {
    "strict": lambda fmt: STRICT.replace(fmt=fmt),
    "ftz-daz": lambda fmt: STRICT.replace(fmt=fmt, ftz=True, daz=True),
    "rtz": lambda fmt: STRICT.replace(
        fmt=fmt, rounding=RoundingMode.TOWARD_ZERO
    ),
    "rtp": lambda fmt: STRICT.replace(
        fmt=fmt, rounding=RoundingMode.TOWARD_POSITIVE
    ),
}

_BINOPS = [BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.DIV, BinOp.MIN, BinOp.MAX]
_UNOPS = [UnOp.NEG, UnOp.ABS, UnOp.SQRT]
_LITERALS = [
    "0", "-0", "1", "2", "0.1", "1e3", "-3.5", "1e-40", "1e-310",
    "1e30", "inf", "-1", "5e-324", "0.5",
]


def _rand_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var(rng.choice(["a", "b"]))
        return Const(rng.choice(_LITERALS))
    shape = rng.random()
    if shape < 0.65:
        return Binary(
            rng.choice(_BINOPS),
            _rand_expr(rng, depth - 1),
            _rand_expr(rng, depth - 1),
        )
    if shape < 0.85:
        return Unary(rng.choice(_UNOPS), _rand_expr(rng, depth - 1))
    return FMA(
        _rand_expr(rng, depth - 1),
        _rand_expr(rng, depth - 1),
        _rand_expr(rng, depth - 1),
    )


def _rand_scenario(rng: random.Random, fmt):
    """An expression plus consistent (range, in-range point) bindings."""
    expr = _rand_expr(rng, rng.choice([1, 2, 3]))
    env = FPEnv()
    ranges = {}
    points = {}
    for name in expr_variables(expr):
        lo = parse_softfloat(rng.choice(_LITERALS), fmt, env)
        hi = parse_softfloat(rng.choice(_LITERALS), fmt, env)
        if fp_lt(hi, lo, FPEnv()):
            lo, hi = hi, lo
        ranges[name] = AbstractValue.from_range(lo, hi)
        candidates = [lo, hi]
        two = parse_softfloat("2", fmt, env)
        mid = fp_div(fp_add(lo, hi, FPEnv()), two, FPEnv())
        if not mid.is_nan and ranges[name].admits(mid):
            candidates.append(mid)
        points[name] = rng.choice(candidates)
    return expr, ranges, points


def _check_soundness(fmt, config, seed: int) -> None:
    rng = random.Random(seed)
    expr, ranges, points = _rand_scenario(rng, fmt)
    analysis = analyze(expr, ranges, config)
    result = evaluate(expr, points, config)
    context = (
        f"expr={expr} config={config.name} fmt={fmt.name} "
        f"bindings={ {k: str(v) for k, v in points.items()} }"
    )
    assert analysis.root.value.admits(result.value), (
        f"value containment violated: got {result.value}, abstract "
        f"{analysis.root.value.describe()} [{context}]"
    )
    unexpected = result.flags & ~analysis.may_flags
    assert not unexpected, (
        f"may-flags incomplete: raised {result.flags}, may only "
        f"{analysis.may_flags} [{context}]"
    )
    missing = analysis.must_flags & ~result.flags
    assert not missing, (
        f"must-flags wrong: promised {analysis.must_flags}, raised "
        f"{result.flags} [{context}]"
    )


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("flavor", sorted(CONFIG_FLAVORS))
@forall_seeds(n_examples=N_EXAMPLES)
def test_analysis_sound(fmt, flavor, seed):
    _check_soundness(fmt, CONFIG_FLAVORS[flavor](fmt), seed)


class TestRegressions:
    """Pinned scenarios that once looked like soundness traps."""

    def test_sqrt_of_negative_zero(self):
        expr = Unary(UnOp.SQRT, Var("a"))
        analysis = analyze(expr, {"a": "-0"})
        result = evaluate(expr, {"a": parse_softfloat("-0", BINARY64, FPEnv())},
                          STRICT)
        assert analysis.root.value.admits(result.value)
        assert analysis.must_flags == result.flags

    def test_division_by_zero_spanning_range(self):
        expr = Binary(BinOp.DIV, Const("1"), Var("a"))
        analysis = analyze(expr, {"a": ("-1", "1")})
        for point in ("1e-300", "-1e-300", "0", "-0", "1"):
            value = parse_softfloat(point, BINARY64, FPEnv())
            result = evaluate(expr, {"a": value}, STRICT)
            assert analysis.root.value.admits(result.value), point
            assert not result.flags & ~analysis.may_flags, point

    def test_exact_cancellation_zero_sign_rne(self):
        expr = Binary(BinOp.SUB, Var("a"), Var("a"))
        analysis = analyze(expr, {"a": ("1", "2")})
        result = evaluate(
            expr, {"a": parse_softfloat("1.5", BINARY64, FPEnv())}, STRICT
        )
        assert result.value.is_zero and not result.value.is_negative
        assert analysis.root.value.admits(result.value)

    def test_exact_cancellation_zero_sign_rtn(self):
        config = STRICT.replace(rounding=RoundingMode.TOWARD_NEGATIVE)
        expr = Binary(BinOp.SUB, Var("a"), Var("a"))
        analysis = analyze(expr, {"a": ("1", "2")}, config)
        result = evaluate(
            expr, {"a": parse_softfloat("1.5", BINARY64, FPEnv())}, config
        )
        assert result.value.is_zero and result.value.is_negative
        assert analysis.root.value.admits(result.value)

    def test_daz_flushes_subnormal_input(self):
        config = STRICT.replace(ftz=True, daz=True)
        expr = Binary(BinOp.SUB, Var("a"), Var("b"))
        bindings = {"a": ("2e-308", "3e-308"), "b": ("1e-308", "2e-308")}
        analysis = analyze(expr, bindings, config)
        env = FPEnv()
        points = {
            "a": parse_softfloat("2e-308", BINARY64, env),
            "b": parse_softfloat("2e-308", BINARY64, env),
        }
        result = evaluate(expr, points, config)
        assert analysis.root.value.admits(result.value)
        assert not result.flags & ~analysis.may_flags


class TestOverflowMustFlags:
    """When every corner probe overflows (the one rounding toward zero
    included) and the corners share one sign, every admitted result
    overflows: OVERFLOW|INEXACT are must-flags."""

    def test_overflow_on_every_corner_is_a_must_flag(self):
        expr = Binary(BinOp.MUL, Var("a"), Var("b"))
        analysis = analyze(expr, {"a": ("1e200", "1e300"),
                                  "b": ("-1e300", "-1e200")})
        assert analysis.root.must_flags \
            == FPFlag.OVERFLOW | FPFlag.INEXACT
        for a, b in (("1e200", "-1e200"), ("3e250", "-7e233"),
                     ("1e300", "-1e300")):
            result = evaluate(expr, {"a": parse_softfloat(a, BINARY64,
                                                          FPEnv()),
                                     "b": parse_softfloat(b, BINARY64,
                                                          FPEnv())},
                              STRICT)
            assert not analysis.root.must_flags & ~result.flags

    def test_corners_of_both_signs_make_no_must_flag(self):
        """``[-4, 4]`` (no zero member) times a huge range overflows at
        every corner, but not at ``1e-300`` inside."""
        fmt = BINARY64
        env = FPEnv()
        wide = AbstractValue(fmt, parse_softfloat("-4", fmt, env),
                             parse_softfloat("4", fmt, env))
        expr = Binary(BinOp.MUL, Var("a"), Var("b"))
        analysis = analyze(expr, {"a": wide, "b": ("1e308", "1.7e308")})
        assert analysis.root.must_flags == FPFlag.NONE

    def test_nan_inputs_make_no_must_flag(self):
        expr = Binary(BinOp.MUL, Var("a"), Var("a"))
        fmt = BINARY64
        env = FPEnv()
        maybe_nan = AbstractValue.from_range(
            parse_softfloat("1e200", fmt, env),
            parse_softfloat("1e300", fmt, env), maybe_nan=True)
        analysis = analyze(expr, {"a": maybe_nan})
        assert analysis.root.must_flags == FPFlag.NONE

    @pytest.mark.parametrize("cell", range(20))
    def test_tiny8_overflow_must_flags_hold(self, cell):
        """Every seeded pair (or triple, for fma) of small TINY8 ranges
        whose transfer promises OVERFLOW overflows on every admitted
        binding, in each (rounding mode, FTZ, DAZ) cell."""
        modes = list(RoundingMode)
        ctx = AnalysisContext(fmt=TINY8, rounding=modes[cell // 4],
                              ftz=bool(cell & 2), daz=bool(cell & 1))
        values = [SoftFloat(TINY8, bits) for bits in range(64)
                  if not SoftFloat(TINY8, bits).is_nan]
        values.sort(key=lambda v: (v.to_float(), not v.is_negative))
        rng = random.Random(f"overflow-must/{cell}")
        promised = 0
        for _ in range(400):
            op = rng.choice(("add", "sub", "mul", "div", "fma"))
            sides = []
            for _ in range(3 if op == "fma" else 2):
                lo = rng.randrange(len(values))
                hi = min(len(values) - 1, lo + rng.choice((0, 1, 2, 4)))
                sides.append(AbstractValue.from_range(values[lo],
                                                      values[hi]))
            result = transfer(op, tuple(sides), ctx)
            if not result.must & FPFlag.OVERFLOW:
                continue
            promised += 1
            members = [[v for v in values if side.admits(v)]
                       for side in sides]
            for operands in itertools.product(*members):
                _, flags = probe_op(op, *operands, env=ctx.concrete_env())
                assert not result.must & ~flags, (op, operands, ctx)
        assert promised
