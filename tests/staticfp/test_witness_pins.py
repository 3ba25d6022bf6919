"""Witnessed lint reports, pinned byte for byte.

Each input is one corpus expression under one optimization level, with
a seeded binding range per variable whose magnitudes are log-uniform in
one of four log10 bands: ordinary, wide, subnormal and near-overflow.
Every input goes through ``lint(..., witness=True, witness_trials=400)``
and the sha256 of its canonical report JSON is compared with the pin in
``witness_pins.json``.  A change to how the guided search picks or
orders its candidates moves ``evals``, witnesses or coverage maps, and
so moves these pins; a pure speed-up must leave every one of them.

Regenerate after an intended change with::

    PYTHONPATH=src python tests/staticfp/test_witness_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.optsim.ast import Var, walk_unique
from repro.optsim.machine import optimization_level
from repro.optsim.parser import parse_expr
from repro.staticfp import lint
from repro.staticfp.corpus import CLEAN_CORPUS, GOTCHA_CORPUS

PINS_PATH = Path(__file__).with_name("witness_pins.json")
LEVELS = ("strict", "-O2", "-O3", "--ffast-math", "-Ofast")
#: log10 magnitude bands a binding range is drawn from
BANDS = ((-3.0, 3.0), (-30.0, 30.0), (-320.0, -300.0), (290.0, 308.2))
ROUNDS = 3
TRIALS = 400


def _draw_range(rng: random.Random) -> tuple[str, str]:
    lo_exp, hi_exp = BANDS[rng.randrange(len(BANDS))]
    low = rng.uniform(lo_exp, hi_exp)
    high = min(hi_exp, low + rng.uniform(0.0, 4.0))
    lo, hi = 10.0 ** low, 10.0 ** high
    if rng.random() < 0.25:
        lo, hi = -hi, (lo if rng.random() < 0.5 else hi)
    return repr(lo), repr(hi)


def pinned_inputs() -> list[tuple[str, str, str, dict]]:
    """``(key, expr, level, bindings)`` for every pinned input."""
    out = []
    for round_index in range(ROUNDS):
        rng = random.Random(f"witness-pins:{round_index}")
        for entry in GOTCHA_CORPUS + CLEAN_CORPUS:
            names = sorted({node.name
                            for node in walk_unique(parse_expr(entry.expr))
                            if isinstance(node, Var)})
            for level in LEVELS:
                bindings = {name: _draw_range(rng) for name in names}
                out.append((f"r{round_index}/{entry.key}/{level}",
                            entry.expr, level, bindings))
    return out


def report_digest(expr: str, level: str, bindings: dict) -> str:
    report = lint(expr, optimization_level(level), bindings or None,
                  witness=True, witness_trials=TRIALS)
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


INPUTS = pinned_inputs()
PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_every_input_is_pinned():
    assert sorted(PINS) == sorted(key for key, *_ in INPUTS)


@pytest.mark.parametrize("key,expr,level,bindings", INPUTS,
                         ids=[key for key, *_ in INPUTS])
def test_report_matches_its_pin(key, expr, level, bindings):
    assert report_digest(expr, level, bindings) == PINS.get(key), bindings


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_witness_pins.py --write")
    pins = {key: report_digest(expr, level, bindings)
            for key, expr, level, bindings in INPUTS}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
