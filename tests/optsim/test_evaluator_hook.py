"""``evaluate(..., hook=)`` against a fresh-environment-per-node reference.

The reference below runs every operation in its own fresh environment,
so each node's flags are trivially its own; the evaluator instead runs
one environment, setting the sticky flags aside around each operation.
Both must report the same per-node ``(node, flags)`` sequence, the same
value bits and the same sticky union, on every corpus expression and
its compiled form at every level, in every format, rounding mode and
FTZ/DAZ cell.
"""

import itertools
import random

import pytest

from repro.errors import OptimizationError
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.optsim import evaluate, optimization_level, optimize, parse_expr
from repro.optsim.ast import FMA, Binary, BinOp, Const, Unary, UnOp, Var
from repro.optsim.ast import expr_variables
from repro.softfloat import (
    BINARY16,
    BINARY32,
    BINARY64,
    SoftFloat,
    convert_format,
    fp_add,
    fp_div,
    fp_fma,
    fp_max,
    fp_min,
    fp_mul,
    fp_remainder,
    fp_sqrt,
    fp_sub,
    parse_softfloat,
)
from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS

LEVELS = ("strict", "-O2", "-O3", "--ffast-math", "-Ofast")
FORMATS = (BINARY16, BINARY32, BINARY64)
ENV_CELLS = tuple(itertools.product(RoundingMode, (False, True),
                                    (False, True)))
BINDINGS_PER_CELL = 2

_BINARY_FNS = {
    BinOp.ADD: fp_add,
    BinOp.SUB: fp_sub,
    BinOp.MUL: fp_mul,
    BinOp.DIV: fp_div,
    BinOp.REM: fp_remainder,
    BinOp.MIN: fp_min,
    BinOp.MAX: fp_max,
}


def reference_capture(expr, bindings, config):
    """Every operation in a fresh environment; returns the value, the
    sticky union and the per-node ``(node, flags)`` sequence."""
    total = FPFlag.NONE
    events = []

    def emit(node, flags):
        events.append((node, flags))

    def run(node):
        nonlocal total
        if isinstance(node, Const):
            return parse_softfloat(node.literal, config.fmt)
        if isinstance(node, Var):
            try:
                value = bindings[node.name]
            except KeyError:
                raise OptimizationError(f"unbound variable {node.name!r}")
            if value.fmt != config.fmt:
                env = config.fresh_env()
                value = convert_format(value, config.fmt, env)
                total |= env.flags
                emit(node, env.flags)
            return value
        if isinstance(node, Unary):
            operand = run(node.operand)
            if node.op is UnOp.NEG:
                return -operand
            if node.op is UnOp.ABS:
                return abs(operand)
            env = config.fresh_env()
            result = fp_sqrt(operand, env)
        elif isinstance(node, Binary):
            left = run(node.left)
            right = run(node.right)
            env = config.fresh_env()
            result = _BINARY_FNS[node.op](left, right, env)
        elif isinstance(node, FMA):
            a, b, c = run(node.a), run(node.b), run(node.c)
            env = config.fresh_env()
            result = fp_fma(a, b, c, env)
        else:
            raise OptimizationError(
                f"cannot evaluate node {type(node).__name__}"
            )
        total |= env.flags
        emit(node, env.flags)
        return result

    value = run(expr)
    return value, total, events


def _random_value(rng: random.Random, fmt) -> SoftFloat:
    """Uniform encodings, subnormals and specials in equal measure."""
    kind = rng.randrange(4)
    if kind == 0:
        return SoftFloat(fmt, rng.getrandbits(fmt.width))
    if kind == 1:
        sign = rng.getrandbits(1) << (fmt.width - 1)
        return SoftFloat(fmt, sign | rng.randrange(1, 1 << fmt.frac_bits))
    specials = (
        SoftFloat.zero(fmt, 0), SoftFloat.zero(fmt, 1),
        SoftFloat.inf(fmt, 0), SoftFloat.inf(fmt, 1),
        SoftFloat.nan(fmt), SoftFloat.min_subnormal(fmt),
        SoftFloat.min_normal(fmt), SoftFloat.max_finite(fmt),
    )
    return specials[rng.randrange(len(specials))]


def _bindings(rng, names, fmt):
    """Mostly in-format values; now and then a binary64 value, so the
    converting variable load (and its own flags) is exercised."""
    out = {}
    for name in names:
        load_fmt = BINARY64 if fmt is not BINARY64 and rng.random() < 0.25 \
            else fmt
        out[name] = _random_value(rng, load_fmt)
    return out


def _trees():
    """Every corpus expression and its compiled form at every level,
    deduplicated by rendering."""
    seen = {}
    for entry in GOTCHA_CORPUS + CLEAN_CORPUS:
        source = parse_expr(entry.expr)
        seen.setdefault(str(source), source)
        for level in LEVELS:
            compiled = optimize(source, optimization_level(level))
            seen.setdefault(str(compiled), compiled)
    return tuple(seen.values())


TREES = _trees()


def test_trees_cover_the_corpus_and_its_compiled_forms():
    entries = GOTCHA_CORPUS + CLEAN_CORPUS
    assert len(entries) == 22
    sources = {str(parse_expr(e.expr)) for e in entries}
    assert sources < {str(t) for t in TREES}
    assert any(isinstance(t, FMA) or "fma" in str(t) for t in TREES)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_hook_matches_fresh_env_reference(fmt):
    rng = random.Random(f"evaluator-hook:{fmt.name}")
    compared = 0
    for tree in TREES:
        names = sorted(expr_variables(tree))
        for mode, ftz, daz in ENV_CELLS:
            config = optimization_level("strict").replace(
                fmt=fmt, rounding=mode, ftz=ftz, daz=daz
            )
            for _ in range(BINDINGS_PER_CELL):
                binding = _bindings(rng, names, fmt)
                value, total, expected = reference_capture(
                    tree, binding, config
                )
                seen = []
                result = evaluate(
                    tree, binding, config,
                    hook=lambda node, flags: seen.append((node, flags)),
                )
                where = f"{tree} under {config} at {binding}"
                assert [(id(n), f) for n, f in seen] == \
                    [(id(n), f) for n, f in expected], where
                assert result.value.bits == value.bits, where
                assert result.flags == total, where
                compared += 1
    assert compared == len(TREES) * len(ENV_CELLS) * BINDINGS_PER_CELL


def test_hook_does_not_change_the_unhooked_result():
    """The hook only observes: sticky flags accumulated before the call
    survive it, and the result equals the hook-free evaluation."""
    config = optimization_level("-O3").replace(fmt=BINARY32)
    expr = parse_expr("a*b + c / d")
    rng = random.Random(7)
    for _ in range(50):
        binding = _bindings(rng, ("a", "b", "c", "d"), BINARY32)
        plain = evaluate(expr, binding, config)
        env = config.fresh_env()
        env.flags = FPFlag.INVALID
        hooked = evaluate(expr, binding, config, env,
                          hook=lambda node, flags: None)
        assert hooked.value.bits == plain.value.bits
        assert hooked.flags == plain.flags | FPFlag.INVALID
