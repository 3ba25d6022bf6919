"""Exhaustive tiny-format cross-backend sweep (``slow`` marker).

TINY8 is 6 bits wide — 64 encodings, 4096 ordered pairs — so *every*
(a, b, op, rounding mode, FTZ/DAZ) combination is tractable.  This
suite proves full-domain bit-identity (packed result and sticky flags):

- **batch vs scalar** on the entire two-operand domain for every
  arithmetic and comparison op, under all 20 environment cells;
- **batch vs the exact-rounding oracle** on the same full domain for
  the oracle-covered ops, under every rounding mode with FTZ/DAZ off
  and on together (the quiz's two hardware flavors);
- **fma** over all 4096 products crossed with the boundary corpus of
  addends;
- **every cell in one call**: per op, the full domain under all 20
  environment cells as one lane-environment call on batch and on
  scalar, against the per-cell scalar results.

Where the property tier samples, this tier enumerates — there is no
unexercised encoding left in the format.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.softfloat import TINY8, BatchResult, ScalarBackend, get_backend
from repro.softfloat.backend import MODE_CODES
from tests.strategies import ENV_MATRIX, special_bits

pytestmark = pytest.mark.slow

SCALAR = ScalarBackend()
BATCH = get_backend("batch")

#: FTZ/DAZ flavors driven against the oracle (hardware default + both
#: flush modes on, the two configurations the paper's quiz contrasts).
ORACLE_ENVS = [(False, False), (True, True)]


def _full_domain() -> np.ndarray:
    return np.arange(1 << TINY8.width, dtype=np.uint64)


def _full_pairs() -> tuple[np.ndarray, np.ndarray]:
    domain = _full_domain()
    n = domain.shape[0]
    return np.repeat(domain, n), np.tile(domain, n)


def _assert_equal(op, mode, ftz, daz, lanes, want, got, other="batch"):
    mismatch = (want.bits != got.bits) | (want.flags != got.flags)
    if mismatch.any():
        lane = int(np.argmax(mismatch))
        operands = [hex(int(arr[lane])) for arr in lanes]
        raise AssertionError(
            f"scalar vs {other}: {op} mode={mode.value} ftz={ftz} daz={daz} "
            f"operands={operands}: "
            f"(bits={int(want.bits[lane]):#x}, flags={int(want.flags[lane])})"
            f" vs (bits={int(got.bits[lane]):#x},"
            f" flags={int(got.flags[lane])})"
        )


@pytest.mark.parametrize(
    "op", ["add", "sub", "mul", "div", "compare_quiet", "compare_signaling"]
)
def test_exhaustive_pairs_batch_vs_scalar(op):
    """All 4096 ordered pairs under all 20 environment cells."""
    a, b = _full_pairs()
    lanes = [a, b]
    for mode, ftz, daz in ENV_MATRIX:
        want = SCALAR.run_packed(op, TINY8, lanes, mode, ftz, daz)
        got = BATCH.run_packed(op, TINY8, lanes, mode, ftz, daz)
        _assert_equal(op, mode, ftz, daz, lanes, want, got)


def test_exhaustive_sqrt_batch_vs_scalar():
    lanes = [_full_domain()]
    for mode, ftz, daz in ENV_MATRIX:
        want = SCALAR.run_packed("sqrt", TINY8, lanes, mode, ftz, daz)
        got = BATCH.run_packed("sqrt", TINY8, lanes, mode, ftz, daz)
        _assert_equal("sqrt", mode, ftz, daz, lanes, want, got)


def test_exhaustive_fma_batch_vs_scalar():
    """All 4096 (a, b) products crossed with the boundary corpus of
    addends, under every environment cell."""
    a, b = _full_pairs()
    for c_bits in special_bits(TINY8):
        c = np.full(a.shape[0], c_bits, dtype=np.uint64)
        lanes = [a, b, c]
        for mode, ftz, daz in ENV_MATRIX:
            want = SCALAR.run_packed("fma", TINY8, lanes, mode, ftz, daz)
            got = BATCH.run_packed("fma", TINY8, lanes, mode, ftz, daz)
            _assert_equal("fma", mode, ftz, daz, lanes, want, got)


@pytest.mark.parametrize("op", ["add", "mul", "div"])
def test_exhaustive_pairs_batch_vs_oracle(op):
    """Full-domain agreement with the exact-rounding oracle: value bits
    and the complete sticky-flag footprint, every rounding mode."""
    a, b = _full_pairs()
    lanes = [a, b]
    for mode in RoundingMode:
        for ftz, daz in ORACLE_ENVS:
            got = BATCH.run_packed(op, TINY8, lanes, mode, ftz, daz)
            cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz,
                               tininess="before")
            for lane in range(a.shape[0]):
                oracle = oracle_operation(
                    op, TINY8, cfg, int(a[lane]), int(b[lane]))
                assert int(got.bits[lane]) == oracle.bits, (
                    op, mode.value, ftz, daz,
                    hex(int(a[lane])), hex(int(b[lane])))
                assert FPFlag(int(got.flags[lane])) == oracle.flags, (
                    op, mode.value, ftz, daz,
                    hex(int(a[lane])), hex(int(b[lane])))


def test_exhaustive_sqrt_batch_vs_oracle():
    domain = _full_domain()
    for mode in RoundingMode:
        for ftz, daz in ORACLE_ENVS:
            got = BATCH.run_packed("sqrt", TINY8, [domain], mode, ftz, daz)
            cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz,
                               tininess="before")
            for lane in range(domain.shape[0]):
                oracle = oracle_operation(
                    "sqrt", TINY8, cfg, int(domain[lane]))
                assert int(got.bits[lane]) == oracle.bits
                assert FPFlag(int(got.flags[lane])) == oracle.flags


def _fma_lanes() -> list[np.ndarray]:
    """All 4096 (a, b) products, each lane's addend cycling through the
    boundary corpus."""
    a, b = _full_pairs()
    corpus = np.array(special_bits(TINY8), dtype=np.uint64)
    return [a, b, corpus[np.arange(a.shape[0]) % corpus.shape[0]]]


@pytest.mark.parametrize(
    "op", ["add", "sub", "mul", "div", "fma", "sqrt", "compare_quiet",
           "compare_signaling"]
)
def test_exhaustive_all_cells_in_one_call(op):
    """The whole domain under all 20 cells in one lane-environment call
    (batch and scalar) equals the per-cell scalar calls."""
    if op == "sqrt":
        lanes = [_full_domain()]
    elif op == "fma":
        lanes = _fma_lanes()
    else:
        lanes = list(_full_pairs())
    n = lanes[0].shape[0]
    cells = len(ENV_MATRIX)
    tiled = [np.tile(lane, cells) for lane in lanes]
    env = (
        np.repeat(np.array([MODE_CODES[m] for m, _, _ in ENV_MATRIX],
                           dtype=np.uint8), n),
        np.repeat(np.array([ftz for _, ftz, _ in ENV_MATRIX]), n),
        np.repeat(np.array([daz for _, _, daz in ENV_MATRIX]), n),
    )
    per_cell = [SCALAR.run_packed(op, TINY8, lanes, *cell)
                for cell in ENV_MATRIX]
    for backend in (BATCH, SCALAR):
        got = backend.run_packed(op, TINY8, tiled, *env)
        for i, ((mode, ftz, daz), want) in enumerate(zip(ENV_MATRIX, per_cell)):
            lane_slice = slice(i * n, (i + 1) * n)
            _assert_equal(op, mode, ftz, daz, lanes, want,
                          BatchResult(got.bits[lane_slice], got.flags[lane_slice]),
                          other=f"{backend.name} (one call)")
