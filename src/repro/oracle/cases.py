"""Test-case generation for the conformance runner.

Three sources, combined per operation:

- **exhaustive**: every bit pattern (only sane for tiny formats);
- **boundary lattice**: the deterministic corner set every floating
  point bug report eventually names — signed zeros, the subnormal
  range's edges, the normal range's edges, infinities, NaN payloads,
  and the halfway-ulp neighbors around each landmark where rounding
  decisions flip;
- **random stream**: seeded uniform bit patterns, so binary32/64 runs
  are reproducible from ``--seed`` alone.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Iterator

from repro.softfloat.formats import FloatFormat

__all__ = [
    "exhaustive_operands",
    "boundary_operands",
    "random_operands",
    "generate_cases",
    "EXHAUSTIVE_WIDTH_LIMIT",
]

#: Formats at most this wide get exhaustive operand enumeration.
EXHAUSTIVE_WIDTH_LIMIT = 8


def exhaustive_operands(fmt: FloatFormat) -> list[int]:
    """Every encoding of the format, as raw bit patterns."""
    return list(range(1 << fmt.width))


def _neighbors(fmt: FloatFormat, bits: int) -> list[int]:
    """The encodings one ulp either side of a finite landmark — where
    every halfway case lives."""
    out = []
    sign, biased_exp, frac = fmt.unpack(bits)
    if biased_exp >= fmt.max_biased_exp:
        return out
    if bits & ((1 << (fmt.width - 1)) - 1):  # magnitude > 0: step down
        out.append(bits - 1)
    up = bits + 1
    _, up_exp, _ = fmt.unpack(up & ((1 << fmt.width) - 1))
    if up < (1 << fmt.width) and up_exp < fmt.max_biased_exp:
        out.append(up)
    return out


@functools.lru_cache(maxsize=32)
def boundary_operands(fmt: FloatFormat) -> tuple[int, ...]:
    """The deterministic corner lattice (deduplicated, stable order),
    built once per format: every op slice of a run draws on it."""
    landmarks = []
    for sign in (0, 1):
        landmarks.extend([
            fmt.zero_bits(sign),
            fmt.min_subnormal_bits(sign),
            fmt.pack(sign, 0, fmt.sig_mask),       # max subnormal
            fmt.min_normal_bits(sign),
            fmt.one_bits(sign),
            fmt.max_finite_bits(sign),
            fmt.inf_bits(sign),
        ])
    seen: dict[int, None] = {}
    for bits in landmarks:
        seen.setdefault(bits, None)
        for nb in _neighbors(fmt, bits):
            seen.setdefault(nb, None)
    # NaNs: default quiet, quiet with payload, signaling (both signs).
    for sign in (0, 1):
        seen.setdefault(fmt.quiet_nan_bits(sign), None)
        if fmt.quiet_bit > 1:
            seen.setdefault(fmt.quiet_nan_bits(sign, 1), None)
            seen.setdefault(fmt.signaling_nan_bits(sign, 1), None)
            if fmt.frac_bits > 2:
                seen.setdefault(
                    fmt.signaling_nan_bits(sign, fmt.quiet_bit >> 1), None)
    return tuple(seen)


def random_operands(fmt: FloatFormat, rng: random.Random) -> Iterator[int]:
    """An endless seeded stream of uniform bit patterns."""
    return map(rng.getrandbits, itertools.repeat(fmt.width))


def generate_cases(
    fmt: FloatFormat, arity: int, budget: int, seed: int,
    *, rng: random.Random | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield up to ``budget`` operand tuples for an operation of the
    given arity: boundary-lattice combinations first (exhaustively for
    unary/binary ops, seeded samples for ternary), then random fill.

    For formats within :data:`EXHAUSTIVE_WIDTH_LIMIT` the boundary phase
    is replaced by full enumeration when it fits the budget.

    All randomness comes from the injectable ``rng`` (freshly seeded
    from ``seed`` when omitted, and never shared module state), so the
    stream for a given ``(fmt, arity, budget, seed)`` is reproducible
    anywhere — including inside engine worker processes replaying a
    slice of the same stream.  Draws happen lazily, in stream order: a
    ternary lattice case draws its third corner when it is reached, and
    each random case draws its operands left to right.
    """
    rng = rng or random.Random(seed)
    budget = max(budget, 0)

    if fmt.width <= EXHAUSTIVE_WIDTH_LIMIT:
        space = (1 << fmt.width) ** arity
        if space <= budget:
            return itertools.product(exhaustive_operands(fmt), repeat=arity)

    corners = boundary_operands(fmt)
    if arity <= 2:
        lattice: Iterator[tuple[int, ...]] = itertools.product(
            corners, repeat=arity)
    else:
        pairs = itertools.product(corners, repeat=2)
        lattice = ((a, b, rng.choice(corners)) for a, b in pairs)
    n_lattice = min(budget, len(corners) ** min(arity, 2))
    # zip pulls its arguments in order, so each case takes the next
    # ``arity`` draws of the one stream, left to right.
    fill = zip(*[random_operands(fmt, rng)] * arity)
    return itertools.chain(itertools.islice(lattice, n_lattice),
                           itertools.islice(fill, budget - n_lattice))
