"""Pinned outputs of every divergence-search front.

``find_divergence`` (random on every backend, guided, exhaustive) and
``find_witness`` (guided, random with admission bindings, exhaustive)
all walk candidates through one search core.  This table pins what each
front reports — verdict, candidates consumed, witness bits, outcome and
detail — so a change to the walk that moves any of them shows up here.
"""

import pytest

from repro.optsim import (
    FAST_MATH,
    O2,
    O3,
    OFAST,
    STRICT,
    find_divergence,
    optimize,
    parse_expr,
)
from repro.optsim.compliance import divergence_candidates, search
from repro.softfloat import TINY8, sf
from repro.softfloat.backend import BatchResult, ScalarBackend
from repro.staticfp.witness import find_witness

FTZ_DAZ = STRICT.replace(name="ftz", ftz=True, daz=True)
CONFIGS = {
    "O2": O2,
    "O3": O3,
    "Ofast": OFAST,
    "fast-math": FAST_MATH,
    "ftz": FTZ_DAZ,
    "tiny-strict": STRICT.replace(fmt=TINY8),
    "tiny-O3": O3.replace(fmt=TINY8),
    "tiny-Ofast": OFAST.replace(fmt=TINY8),
    "tiny-ftz": FTZ_DAZ.replace(fmt=TINY8),
}
CANCEL = {"t": ("1e8", "1e9"), "y": ("1e-8", "1e-7")}
NARROW = {"a": ("1", "2"), "b": ("1e-8", "1e-7")}
HUGE = {"t": ("1e300", "1e308")}
SUBNORMAL = {"a": ("1e-310", "1e-308")}
BINDINGS = {
    "none": None, "cancel": CANCEL, "narrow": NARROW, "huge": HUGE,
    "subnormal": SUBNORMAL,
}


def _bits(witness):
    if witness is None:
        return None
    return tuple(sorted((name, value.bits) for name, value in witness.items()))


def divergence_front(source, config, *, strategy, seed=754, backend=None,
                     trials=400, bindings="none"):
    report = find_divergence(
        parse_expr(source), CONFIGS[config], seed=seed, trials=trials,
        backend=backend, strategy=strategy, bindings=BINDINGS[bindings],
    )
    return (
        report.diverged, report.trials, _bits(report.witness),
        report.value_diverged, report.flags_diverged, report.exhausted,
    )


def witness_front(source, config, *, strategy, bindings="none", seed=754,
                  trials=2000, expect_safe=None):
    report = find_witness(
        parse_expr(source), CONFIGS[config], BINDINGS[bindings],
        strategy=strategy, seed=seed, trials=trials, expect_safe=expect_safe,
    )
    witness = report.witness
    sealed = None
    if witness is not None:
        sealed = (
            tuple(sorted(
                (name, entry["bits"]) for name, entry in witness.binding.items()
            )),
            witness.value_diverged, witness.flags_diverged, witness.evals,
            witness.verified, witness.localization.kind,
        )
    return (
        report.witnessed, report.evals, report.states, report.outcome,
        report.detail, sealed,
    )


#: (source, config, kwargs, find_divergence verdict) — the random walk
#: reports the same verdict on every backend.
RANDOM = [
    ('a*b + c',
     'O3',
     {'seed': 754},
     (True,
      2,
      (('a', 1), ('b', 13830554455654793216), ('c', 13830554455654793216)),
      False,
      True,
      False)),
    ('a*b + c',
     'O3',
     {'seed': 7},
     (True,
      1,
      (('a', 9218868437227405311),
       ('b', 4607182418800017409),
       ('c', 9218868437227405312)),
      False,
      True,
      False)),
    ('(a + b) + c',
     'Ofast',
     {'seed': 754},
     (True,
      2,
      (('a', 1), ('b', 13830554455654793216), ('c', 13830554455654793216)),
      False,
      True,
      False)),
    ('(a + b) + c',
     'Ofast',
     {'seed': 7},
     (True,
      1,
      (('a', 9218868437227405311),
       ('b', 4607182418800017409),
       ('c', 9218868437227405312)),
      False,
      True,
      False)),
    ('a * b',
     'ftz',
     {'seed': 754},
     (True, 46, (('a', 4607182418800017408), ('b', 1)), True, True, False)),
    ('a * b',
     'ftz',
     {'seed': 7},
     (True, 46, (('a', 4607182418800017408), ('b', 1)), True, True, False)),
    ('a + b', 'O2', {'seed': 754}, (False, 400, None, False, False, False)),
    ('a + b', 'O2', {'seed': 7}, (False, 400, None, False, False, False)),
    ('(a - b) / 2.0',
     'Ofast',
     {'seed': 754},
     (True, 6, (('a', 0), ('b', 1)), True, True, False)),
    ('(a - b) / 2.0',
     'Ofast',
     {'seed': 7},
     (True, 6, (('a', 0), ('b', 1)), True, True, False)),
    ('x / 3.0',
     'Ofast',
     {'seed': 754},
     (True, 3, (('x', 4607182418800017408),), False, True, False)),
    ('x / 3.0',
     'Ofast',
     {'seed': 7},
     (True, 3, (('x', 4607182418800017408),), False, True, False)),
    ('0.1 + 0.2', 'O2', {'seed': 754}, (True, 1, (), False, True, False)),
    ('0.1 + 0.2', 'O2', {'seed': 7}, (True, 1, (), False, True, False)),
    ('1.0 / 0.0', 'O2', {'seed': 754}, (True, 1, (), False, True, False)),
    ('1.0 / 0.0', 'O2', {'seed': 7}, (True, 1, (), False, True, False)),
    ('a + b + c + d',
     'Ofast',
     {'seed': 754},
     (True,
      2,
      (('a', 13830554455654793216),
       ('b', 13830554455654793216),
       ('c', 0),
       ('d', 4503599627370495)),
      False,
      True,
      False)),
    ('a + b + c + d',
     'Ofast',
     {'seed': 7},
     (True,
      5,
      (('a', 4607182418800017408),
       ('b', 4503599627370495),
       ('c', 4607182418800017408),
       ('d', 13830554455654793217)),
      False,
      True,
      False)),
    ('x * y + z * w',
     'fast-math',
     {'seed': 754},
     (True,
      1,
      (('w', 1),
       ('x', 1),
       ('y', 18444492273895866371),
       ('z', 4607182418800017409)),
      False,
      True,
      False)),
    ('x * y + z * w',
     'fast-math',
     {'seed': 7},
     (True,
      1,
      (('w', 9223372036854775808),
       ('x', 9218868437227405311),
       ('y', 4607182418800017409),
       ('z', 9218868437227405312)),
      False,
      True,
      False)),
    ('sqrt(a*a + b*b)',
     'O3',
     {'seed': 754},
     (True,
      93,
      (('a', 4607182418800017409), ('b', 9218868437227405312)),
      False,
      True,
      False)),
    ('sqrt(a*a + b*b)',
     'O3',
     {'seed': 7},
     (True,
      93,
      (('a', 4607182418800017409), ('b', 9218868437227405312)),
      False,
      True,
      False)),
    ('a * b', 'O3', {'seed': 754}, (False, 400, None, False, False, False)),
    ('a * b', 'O3', {'seed': 7}, (False, 400, None, False, False, False)),
]

#: guided and exhaustive find_divergence verdicts.
STRATEGIC = [
    ('a*b + c',
     'O3',
     {'strategy': 'guided'},
     (True, 6, (('a', 1), ('b', 1), ('c', 1)), False, True, False)),
    ('a + b',
     'O2',
     {'strategy': 'guided', 'trials': 300},
     (False, 300, None, False, False, False)),
    ('((t + y) - t) - y',
     'fast-math',
     {'strategy': 'guided', 'bindings': 'cancel'},
     (True,
      1,
      (('t', 4726483295884279808), ('y', 4487126258331716666)),
      True,
      True,
      False)),
    ('(a - b) / 2.0',
     'Ofast',
     {'strategy': 'guided', 'bindings': 'narrow', 'seed': 7},
     (False, 400, None, False, False, False)),
    ('a * b',
     'ftz',
     {'strategy': 'guided'},
     (True, 38, (('a', 4607182418800017408), ('b', 1)), True, True, False)),
    ('(a - b) / 2.0',
     'tiny-Ofast',
     {'strategy': 'exhaustive'},
     (True, 90, (('a', 59), ('b', 35)), False, True, False)),
    ('min(a, b)',
     'tiny-strict',
     {'strategy': 'exhaustive'},
     (False, 4096, None, False, False, True)),
    ('a * b',
     'tiny-ftz',
     {'strategy': 'exhaustive', 'backend': 'scalar'},
     (True, 26, (('a', 60), ('b', 35)), True, True, False)),
    ('a + b',
     'tiny-O3',
     {'strategy': 'exhaustive'},
     (False, 4096, None, False, False, True)),
]

#: find_witness reports on every strategy.
WITNESS = [
    ('a*b + c',
     'O3',
     {'strategy': 'guided'},
     (True,
      6,
      0,
      'witnessed',
      "goal 'base'",
      ((('a', '0x1'), ('b', '0x1'), ('c', '0x1')),
       False,
       True,
       6,
       True,
       'rewrite'))),
    ('0.1 + 0.2',
     'O2',
     {'strategy': 'guided'},
     (True,
      1,
      0,
      'witnessed',
      "goal 'base'",
      ((), False, True, 1, True, 'rewrite'))),
    ('(a - b) / 2.0',
     'fast-math',
     {'strategy': 'guided', 'bindings': 'narrow'},
     (False,
      2000,
      0,
      'unresolved',
      'no divergence in 2000 guided candidates',
      None)),
    ('((t + y) - t) - y',
     'fast-math',
     {'strategy': 'guided', 'bindings': 'cancel'},
     (True,
      1,
      0,
      'witnessed',
      "goal 'base'",
      ((('t', '0x4197d78400000000'), ('y', '0x3e45798ee2308c3a')),
       True,
       True,
       1,
       True,
       'rewrite'))),
    ('a * b',
     'ftz',
     {'strategy': 'guided'},
     (True,
      38,
      0,
      'witnessed',
      "goal 'base'",
      ((('a', '0x3ff0000000000000'), ('b', '0x1')),
       True,
       True,
       38,
       True,
       'environment'))),
    ('a + b',
     'O2',
     {'strategy': 'guided', 'trials': 200},
     (False,
      200,
      0,
      'unresolved',
      'no divergence in 200 guided candidates',
      None)),
    ('a*b + c',
     'O3',
     {'strategy': 'random'},
     (True,
      2,
      0,
      'witnessed',
      '',
      ((('a', '0x1'),
        ('b', '0xbff0000000000000'),
        ('c', '0xbff0000000000000')),
       False,
       True,
       2,
       True,
       'rewrite'))),
    ('(a - b) / 2.0',
     'fast-math',
     {'strategy': 'random', 'bindings': 'narrow', 'trials': 300},
     (False,
      400,
      0,
      'unresolved',
      'no divergence in 400 random candidates',
      None)),
    ('((t + y) - t) - y',
     'fast-math',
     {'strategy': 'random', 'bindings': 'cancel', 'trials': 300},
     (False,
      400,
      0,
      'unresolved',
      'no divergence in 400 random candidates',
      None)),
    ('a + b',
     'O2',
     {'strategy': 'random', 'trials': 300},
     (False,
      400,
      0,
      'unresolved',
      'no divergence in 400 random candidates',
      None)),
    ('a * b',
     'ftz',
     {'strategy': 'random', 'seed': 7},
     (True,
      46,
      0,
      'witnessed',
      '',
      ((('a', '0x3ff0000000000000'), ('b', '0x1')),
       True,
       True,
       46,
       True,
       'environment'))),
    ('(a - b) / 2.0',
     'tiny-Ofast',
     {'strategy': 'exhaustive', 'expect_safe': False},
     (True,
      90,
      4096,
      'witnessed',
      '',
      ((('a', '0x3b'), ('b', '0x23')), False, True, 90, True, 'environment'))),
    ('min(a, b)',
     'tiny-strict',
     {'strategy': 'exhaustive', 'expect_safe': True},
     (False,
      4096,
      4096,
      'proved-safe',
      'all 4096 admitted operand combinations of tiny8 evaluate identically',
      None)),
    ('a + b',
     'tiny-O3',
     {'strategy': 'exhaustive', 'expect_safe': False},
     (False,
      4096,
      4096,
      'refuted',
      'all 4096 admitted operand combinations of tiny8 evaluate identically',
      None)),
    ('a * b',
     'tiny-ftz',
     {'strategy': 'exhaustive'},
     (True,
      26,
      4096,
      'witnessed',
      '',
      ((('a', '0x3c'), ('b', '0x23')), True, True, 26, True, 'environment'))),
    ('a / 3.0 + b',
     'fast-math',
     {'strategy': 'guided', 'bindings': 'narrow'},
     (True,
      6,
      0,
      'witnessed',
      "goal 'base'",
      ((('a', '0x3ff0000000000001'), ('b', '0x3e45798ee2308c3a')),
       True,
       False,
       6,
       True,
       'rewrite'))),
    ('(t * 3.0) / 3.0',
     'fast-math',
     {'strategy': 'guided', 'bindings': 'huge'},
     (True,
      2,
      0,
      'witnessed',
      "goal 'base'",
      ((('t', '0x7fe1ccf385ebc8a0'),), True, True, 2, True, 'rewrite'))),
    ('(t * 3.0) / 3.0',
     'fast-math',
     {'strategy': 'random', 'bindings': 'huge'},
     (True,
      245,
      0,
      'witnessed',
      '',
      ((('t', '0x7ee8a824612bc8e6'),), True, True, 245, True, 'rewrite'))),
    ('a * b + 1.0',
     'ftz',
     {'strategy': 'guided', 'bindings': 'subnormal'},
     (True,
      3,
      0,
      'witnessed',
      "goal 'base'",
      ((('a', '0x12688b70e62b'), ('b', '0x3ff0000000000000')),
       False,
       True,
       3,
       True,
       'environment'))),
]


def _ids(rows):
    return [
        f"{source}@{config}:" + ",".join(f"{k}={v}" for k, v in kw.items())
        for source, config, kw, _ in rows
    ]


@pytest.mark.parametrize("backend", [None, "batch", "auto", "scalar"])
@pytest.mark.parametrize("source,config,kwargs,expected", RANDOM,
                         ids=_ids(RANDOM))
def test_random_divergence_front(source, config, kwargs, expected, backend):
    assert divergence_front(
        source, config, strategy="random", backend=backend, **kwargs
    ) == expected


@pytest.mark.parametrize("source,config,kwargs,expected", STRATEGIC,
                         ids=_ids(STRATEGIC))
def test_strategic_divergence_front(source, config, kwargs, expected):
    assert divergence_front(source, config, **kwargs) == expected


@pytest.mark.parametrize("source,config,kwargs,expected", WITNESS,
                         ids=_ids(WITNESS))
def test_witness_front(source, config, kwargs, expected):
    assert witness_front(source, config, **kwargs) == expected


@pytest.mark.parametrize("source,config", [
    ("a*b + c", "O3"),
    ("(a - b) / 2.0", "Ofast"),
    ("a + b", "O2"),
    ("x * y + z * w", "fast-math"),
])
def test_batched_random_walk_equals_scalar_walk(source, config):
    """The lane-parallel walk reports exactly what the serial walk does,
    down to the rendered proof."""
    expr = parse_expr(source)
    serial = find_divergence(expr, CONFIGS[config])
    batched = find_divergence(expr, CONFIGS[config], backend="batch")
    assert batched.trials == serial.trials
    assert _bits(batched.witness) == _bits(serial.witness)
    assert batched.describe() == serial.describe()


class FlipOneLane(ScalarBackend):
    """The scalar backend with one corrupted lane: bit 0 of lane 0 of
    every ``fma`` result is flipped."""

    name = "flip-one-lane"

    def __init__(self):
        self.flips = 0

    def run_packed(self, op, fmt, operands, mode, ftz, daz, dst_fmt=None):
        result = super().run_packed(op, fmt, operands, mode, ftz, daz, dst_fmt)
        if op != "fma":
            return result
        self.flips += 1
        bits = result.bits.copy()
        bits[0] ^= 1
        return BatchResult(bits, result.flags)


class TestSearchCore:
    EXPR = parse_expr("a*b + c")

    def candidates(self):
        # 1*2 + 3 is exact with or without contraction: lane 0 is clean
        # until the backend corrupts it.
        clean = {"a": sf(1.0), "b": sf(2.0), "c": sf(3.0)}
        rest = divergence_candidates(self.EXPR, O3, seed=754, trials=400)
        return [(binding, None) for binding in [clean, *rest]]

    def walk(self, **kwargs):
        return search(
            self.EXPR, optimize(self.EXPR, O3), O3, self.candidates(),
            check_flags=True, **kwargs,
        )

    def test_lane_hit_is_rechecked_and_walked_past(self):
        backend = FlipOneLane()
        lanes = self.walk(backend=backend)
        serial = self.walk()
        assert backend.flips == 1
        assert lanes.evals == serial.evals == 3
        assert _bits(lanes.witness) == _bits(serial.witness)
        assert (lanes.value_diverged, lanes.flags_diverged) == \
            (serial.value_diverged, serial.flags_diverged)
        assert lanes.strict_result == serial.strict_result
        assert lanes.optimized_result == serial.optimized_result

    @pytest.mark.parametrize("backend", [None, "batch"])
    def test_rejected_candidates_still_count(self, backend):
        """Rejecting the first witness sends the walk on to the next hit,
        and the rejected candidates count toward ``evals``."""
        first = self.walk(backend=backend)
        witness_bits = _bits(first.witness)
        skipped = self.walk(
            backend=backend,
            admit=lambda binding: _bits(binding) != witness_bits,
        )
        assert first.evals == 3
        assert skipped.witness is not None
        assert _bits(skipped.witness) != witness_bits
        assert skipped.evals > first.evals
        if backend is not None:
            serial = self.walk(
                admit=lambda binding: _bits(binding) != witness_bits
            )
            assert skipped.evals == serial.evals
            assert _bits(skipped.witness) == _bits(serial.witness)
