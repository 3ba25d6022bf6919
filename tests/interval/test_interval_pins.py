"""Interval results, pinned by one digest per operation.

Each input is a seeded pair of intervals in binary64, binary32 or
binary16 whose endpoints are drawn from signed zeros, infinities,
subnormals, small integers and random finite encodings, with some
point intervals among them.  Every operation (``+ - * / sqrt abs hull
intersect``; the unary ones take the pair's first interval) is run on
every pair, and one record per pair keeps the result's *numeric*
endpoints (exact fractions or ``±inf``) or ``IntervalError``.  The
sha256 of an operation's records is compared with its pin in
``interval_pins.json``.  A refactor of how the endpoints are computed
must leave the pins; zero signs are not pinned, since ``-0`` and ``+0``
enclose the same reals.

Regenerate after an intended change with::

    PYTHONPATH=src python tests/interval/test_interval_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.interval import Interval, IntervalError
from repro.softfloat import (
    BINARY16,
    BINARY32,
    BINARY64,
    SoftFloat,
    fp_lt,
    sf,
)
from repro.softfloat.formats import FloatFormat

PINS_PATH = Path(__file__).with_name("interval_pins.json")
FORMATS = (BINARY64, BINARY32, BINARY16)
PAIRS = 2000

OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "sqrt": lambda x, y: x.sqrt(),
    "abs": lambda x, y: x.abs(),
    "hull": lambda x, y: x.hull(y),
    "intersect": lambda x, y: x.intersect(y),
}


def _endpoint(rng: random.Random, fmt: FloatFormat) -> SoftFloat:
    sign = rng.randrange(2)
    kind = rng.randrange(8)
    if kind == 0:
        return SoftFloat.zero(fmt, sign)
    if kind == 1:
        return SoftFloat.inf(fmt, sign)
    if kind == 2:
        frac = rng.randrange(1, 1 << fmt.frac_bits)
        return SoftFloat(fmt, fmt.pack(sign, 0, frac))
    if kind == 3:
        return sf(rng.randint(-8, 8), fmt)
    biased = rng.randrange(1, fmt.max_biased_exp)
    frac = rng.randrange(1 << fmt.frac_bits)
    return SoftFloat(fmt, fmt.pack(sign, biased, frac))


def _interval(rng: random.Random, fmt: FloatFormat) -> Interval:
    a = _endpoint(rng, fmt)
    if rng.random() < 0.15:
        return Interval(a, a)
    b = _endpoint(rng, fmt)
    return Interval(b, a) if fp_lt(b, a) else Interval(a, b)


def pinned_pairs() -> list[tuple[str, int, Interval, Interval]]:
    """``(format name, index, x, y)`` for every pinned pair."""
    out = []
    for fmt in FORMATS:
        rng = random.Random(f"interval-pins:{fmt.name}")
        for index in range(PAIRS):
            out.append((fmt.name, index, _interval(rng, fmt),
                        _interval(rng, fmt)))
    return out


def _number(value: SoftFloat) -> str:
    if value.is_inf:
        return "-inf" if value.sign else "inf"
    return str(value.to_fraction())


def record(op: str, x: Interval, y: Interval) -> str:
    """One pair's pinned outcome: numeric endpoints or the error."""
    try:
        result = OPS[op](x, y)
    except IntervalError:
        return "IntervalError"
    return f"{_number(result.lo)} {_number(result.hi)}"


def records(op: str) -> list[str]:
    return [f"{name} {index} {record(op, x, y)}"
            for name, index, x, y in PAIRS_BY_INPUT]


def digest(op: str) -> str:
    return hashlib.sha256("\n".join(records(op)).encode()).hexdigest()


PAIRS_BY_INPUT = pinned_pairs()
PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_every_op_is_pinned():
    assert sorted(PINS) == sorted(OPS)


@pytest.mark.parametrize("op", sorted(OPS))
def test_results_match_pin(op):
    assert digest(op) == PINS[op], op


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        pins = {op: digest(op) for op in sorted(OPS)}
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                             + "\n")
        print(f"wrote {len(pins)} pins to {PINS_PATH}")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
