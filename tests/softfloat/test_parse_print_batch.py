"""Parse/print round-trips over batch-generated encodings.

The printing contract is shortest-round-trip: ``format_softfloat``
(and the exact ``format_hex``) must produce strings that parse back to
the identical bit pattern.  Rather than hand-picking inputs, this suite
harvests its encoding corpus from the *batch backend's outputs* — the
results of vectorized add/mul/div/sqrt over random and boundary
operands under many environment cells — so the round-trip law is
checked on exactly the bit patterns the batched pipeline produces:
NaNs with propagated payloads, signed zeros from directed rounding and
FTZ, and subnormals under both tininess-detection conventions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fpenv.rounding import RoundingMode
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.softfloat import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    TINY8,
    SoftFloat,
    get_backend,
    parse_softfloat,
)
from repro.softfloat.printing import format_hex, format_softfloat
from tests.strategies import HARDWARE_DEFAULT, special_bits

BATCH = get_backend("batch")

FORMATS = [TINY8, BINARY16, BFLOAT16, BINARY32]
FORMAT_IDS = [f.name for f in FORMATS]

#: Environment cells chosen to force sign-sensitive and flush-sensitive
#: outputs: directed rounding makes exact cancellation yield -0, and
#: FTZ turns tiny results into signed zeros.
_HARVEST_ENVS = [
    HARDWARE_DEFAULT,
    (RoundingMode.TOWARD_NEGATIVE, False, False),
    (RoundingMode.TOWARD_ZERO, True, True),
]


def _batch_corpus(fmt, *, n_random: int = 256, seed: int = 20260809):
    """Unique result encodings from batch ops over random + boundary
    operands: the suite's inputs are the backend's outputs."""
    rng = np.random.default_rng(seed)
    mask = (1 << fmt.width) - 1
    randoms = rng.integers(0, mask + 1, size=n_random, dtype=np.uint64)
    specials = np.array(special_bits(fmt), dtype=np.uint64)
    a = np.concatenate([randoms, np.repeat(specials, specials.shape[0])])
    b = np.concatenate([np.roll(randoms, 7),
                        np.tile(specials, specials.shape[0])])
    out: set[int] = set(int(x) for x in a) | set(int(x) for x in b)
    for op in ("add", "mul", "div"):
        for mode, ftz, daz in _HARVEST_ENVS:
            result = BATCH.run_packed(op, fmt, [a, b], mode, ftz, daz)
            out.update(int(x) for x in result.bits)
    sqrt_res = BATCH.run_packed(
        "sqrt", fmt, [a], HARDWARE_DEFAULT[0], False, False)
    out.update(int(x) for x in sqrt_res.bits)
    return sorted(out)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
def test_decimal_roundtrip_over_batch_outputs(fmt):
    """Shortest decimal form parses back bit-identically — including
    NaN payload spellings and the sign of zero."""
    for bits in _batch_corpus(fmt):
        x = SoftFloat(fmt, bits)
        text = format_softfloat(x)
        back = parse_softfloat(text, fmt)
        assert back.bits == bits, (fmt.name, hex(bits), text,
                                   hex(back.bits))


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
def test_hex_roundtrip_over_batch_outputs(fmt):
    """C99 %a rendering is exact: every harvested encoding survives."""
    for bits in _batch_corpus(fmt):
        x = SoftFloat(fmt, bits)
        text = format_hex(x)
        back = parse_softfloat(text, fmt)
        assert back.bits == bits, (fmt.name, hex(bits), text,
                                   hex(back.bits))


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
def test_signed_zero_outputs_roundtrip(fmt):
    """Batch ops that manufacture signed zeros (exact cancellation
    under round-toward-negative, FTZ flushing) print with the sign and
    parse back to the same encoding."""
    one = np.array([fmt.one_bits(0)], dtype=np.uint64)
    cancel = BATCH.run_packed("sub", fmt, [one, one],
                              RoundingMode.TOWARD_NEGATIVE, False, False)
    neg_zero = int(cancel.bits[0])
    assert SoftFloat(fmt, neg_zero).is_zero
    assert SoftFloat(fmt, neg_zero).sign == 1
    assert format_softfloat(SoftFloat(fmt, neg_zero)) == "-0.0"
    assert parse_softfloat("-0.0", fmt).bits == neg_zero

    tiny = np.array([SoftFloat.min_normal(fmt, 1).bits], dtype=np.uint64)
    half = np.array([fmt.pack(0, fmt.bias - 1, 0)], dtype=np.uint64)
    flushed = BATCH.run_packed("mul", fmt, [tiny, half],
                               RoundingMode.NEAREST_EVEN, True, False)
    y = SoftFloat(fmt, int(flushed.bits[0]))
    assert y.is_zero and y.sign == 1
    assert parse_softfloat(format_hex(y), fmt).bits == y.bits


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
def test_nan_payloads_roundtrip(fmt):
    """Every representable quiet payload (exhaustive for narrow
    formats, sampled for binary32) and both signs round-trip through
    the ``nan(0x…)``/``snan(0x…)`` spellings, and batch-propagated NaN
    results keep a parseable spelling."""
    max_payload = fmt.quiet_bit - 1
    payloads = (range(max_payload + 1) if max_payload <= 1 << 10
                else [0, 1, 2, 3, max_payload // 2, max_payload])
    for sign in (0, 1):
        for payload in payloads:
            q = SoftFloat(fmt, fmt.quiet_nan_bits(sign, payload))
            assert parse_softfloat(format_softfloat(q), fmt).bits == q.bits
            if payload >= 1:
                s = SoftFloat.signaling_nan(fmt, sign, payload)
                got = parse_softfloat(format_softfloat(s), fmt)
                assert got.bits == s.bits
                assert got.is_signaling_nan

    nan_ops = np.array(
        [fmt.quiet_nan_bits(1, min(3, max_payload)),
         SoftFloat.signaling_nan(fmt).bits,
         fmt.one_bits(0)], dtype=np.uint64)
    partners = np.array([fmt.one_bits(0), fmt.one_bits(1),
                         SoftFloat.inf(fmt, 0).bits], dtype=np.uint64)
    result = BATCH.run_packed("mul", fmt, [nan_ops, partners],
                              RoundingMode.NEAREST_EVEN, False, False)
    for lane_bits in result.bits:
        x = SoftFloat(fmt, int(lane_bits))
        assert parse_softfloat(format_softfloat(x), fmt).bits == x.bits


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("tininess", ["before", "after"])
def test_subnormal_outputs_roundtrip_both_tininess(fmt, tininess):
    """Subnormal products under each tininess-detection convention.

    Tininess before/after rounding changes *when underflow is flagged*,
    never the delivered value — so the oracle's subnormal outputs under
    both conventions must agree bit-for-bit with the batch backend and
    round-trip through both renderers."""
    rng = np.random.default_rng(754 + fmt.width)
    # Products of a subnormal with a modest normal land back in (or
    # near) the subnormal range, exercising the tininess boundary.
    subs = [SoftFloat.min_subnormal(fmt, s).bits for s in (0, 1)]
    subs += [fmt.pack(0, 0, fmt.sig_mask), fmt.pack(1, 0, 1)]
    subs += [int(x) for x in
             rng.integers(1, fmt.sig_mask + 1, size=24, dtype=np.uint64)]
    scales = [fmt.one_bits(0), fmt.pack(0, fmt.bias - 1, 0),
              fmt.pack(0, fmt.bias + 1, 0),
              fmt.pack(0, fmt.bias, fmt.sig_mask)]
    a = np.array([s for s in subs for _ in scales], dtype=np.uint64)
    b = np.array([c for _ in subs for c in scales], dtype=np.uint64)
    batch_res = BATCH.run_packed("mul", fmt, [a, b],
                                 RoundingMode.NEAREST_EVEN, False, False)
    cfg = OracleConfig(tininess=tininess)
    seen_subnormal = False
    for lane in range(a.shape[0]):
        oracle = oracle_operation(
            "mul", fmt, cfg, int(a[lane]), int(b[lane]))
        assert oracle.bits == int(batch_res.bits[lane]), (
            tininess, hex(int(a[lane])), hex(int(b[lane])))
        x = SoftFloat(fmt, oracle.bits)
        seen_subnormal = seen_subnormal or x.is_subnormal
        assert parse_softfloat(format_softfloat(x), fmt).bits == x.bits
        assert parse_softfloat(format_hex(x), fmt).bits == x.bits
    assert seen_subnormal, "corpus failed to produce any subnormal result"
