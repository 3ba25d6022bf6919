"""The cross-backend differential harness.

Every backend implementing the :class:`~repro.softfloat.SoftFloatBackend`
protocol must produce **bit-identical packed results and sticky flags**
— against the scalar reference on arbitrary inputs, and against the
exact-rounding oracle on the boundary corpus.  Three input tiers drive
the equivalence:

- *property*: random encodings via :func:`tests.strategies.forall_bits`
  (hypothesis when installed, seeded sampler otherwise);
- *corpus*: all ordered pairs of the boundary-value corpus under the
  full rounding × FTZ/DAZ environment lattice;
- *mixed environment*: one call whose lanes each carry their own
  (mode, FTZ, DAZ) cell must equal the per-cell calls lane for lane;
- *exhaustive*: the full tiny-format domain lives in
  ``test_backends_exhaustive.py`` under the ``slow`` marker.

On a mismatch the failing lane is shrunk toward a minimal witness with
:func:`repro.oracle.shrink.shrink_case` before the assertion fires, so
a red run hands you the simplest diverging operands, not a random lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.exact import OracleConfig, oracle_operation
from repro.oracle.shrink import shrink_case
from repro.softfloat import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    E4M3,
    TINY8,
    AutoBackend,
    BatchResult,
    ScalarBackend,
    SoftFloat,
    available_backends,
    get_backend,
)
from repro.softfloat.backend import (
    BACKEND_OP_ARITY,
    BACKEND_OPS,
    MODE_CODES,
    MODES_BY_CODE,
    ORD_EQUAL,
    ORD_GREATER,
    ORD_LESS,
    ORD_UNORDERED,
)
from repro.softfloat.nativefast import (
    BATCH_SPECIALS_ABOVE,
    NativeBackend,
    host_fastpath_ok,
    host_fastpath_report,
)
from repro.telemetry import telemetry_session
from tests.strategies import (
    ENV_MATRIX,
    HARDWARE_DEFAULT,
    forall_bits,
    forall_seeds,
    special_bits,
    special_pairs,
)

FORMATS = [TINY8, E4M3, BINARY16, BFLOAT16, BINARY32, BINARY64]
FORMAT_IDS = [f.name for f in FORMATS]
ARITH_OPS = ["add", "sub", "mul", "div", "fma", "sqrt"]
COMPARE_OPS = ["compare_quiet", "compare_signaling"]

SCALAR = ScalarBackend()
BATCH = get_backend("batch")
NATIVE = get_backend("native")


def _operand_lanes(op: str, pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """Spread two-operand pairs across an op's arity (fma reuses the
    first operand as the addend; sqrt takes the first only)."""
    arity = BACKEND_OP_ARITY[op]
    a = np.array([p[0] for p in pairs], dtype=np.uint64)
    b = np.array([p[1] for p in pairs], dtype=np.uint64)
    if arity == 1:
        return [a]
    if arity == 2:
        return [a, b]
    return [a, b, np.roll(a, 1)]


def _shrunk_witness(op, fmt, operands, mode, ftz, daz, backend) -> tuple:
    """Minimize one diverging lane: shrink while backend != scalar."""

    def fails(trial: tuple[int, ...]) -> bool:
        lanes = [np.array([t], dtype=np.uint64) for t in trial]
        want = SCALAR.run_packed(op, fmt, lanes, mode, ftz, daz)
        got = backend.run_packed(op, fmt, lanes, mode, ftz, daz)
        return bool(want.bits[0] != got.bits[0]
                    or want.flags[0] != got.flags[0])

    if not fails(tuple(operands)):  # pragma: no cover - flaky lane guard
        return tuple(operands)
    return shrink_case(fails, tuple(operands), fmt)


def _assert_backend_matches_scalar(op, fmt, lanes, mode, ftz, daz, backend):
    """The core differential assertion, with witness shrinking."""
    want = SCALAR.run_packed(op, fmt, lanes, mode, ftz, daz)
    got = backend.run_packed(op, fmt, lanes, mode, ftz, daz)
    mismatch = (want.bits != got.bits) | (want.flags != got.flags)
    if not mismatch.any():
        return
    lane = int(np.argmax(mismatch))
    operands = tuple(int(arr[lane]) for arr in lanes)
    witness = _shrunk_witness(op, fmt, operands, mode, ftz, daz, backend)
    shrunk = [np.array([w], dtype=np.uint64) for w in witness]
    ref = SCALAR.run_packed(op, fmt, shrunk, mode, ftz, daz)
    bad = backend.run_packed(op, fmt, shrunk, mode, ftz, daz)
    raise AssertionError(
        f"{backend.name} diverges from scalar on {op}/{fmt.name} "
        f"mode={mode.value} ftz={ftz} daz={daz}: shrunk witness "
        f"{[hex(w) for w in witness]} -> scalar "
        f"(bits={int(ref.bits[0]):#x}, flags={int(ref.flags[0])}) vs "
        f"{backend.name} (bits={int(bad.bits[0]):#x}, "
        f"flags={int(bad.flags[0])})"
    )


# ----------------------------------------------------------------------
# property tier: random encodings, every op, every environment
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@forall_bits(2, n_examples=120)
def test_batch_matches_scalar_property(fmt, a_bits, b_bits):
    """Random pairs: batch == scalar on every op and environment cell
    the batch backend supports."""
    pairs = [(a_bits, b_bits)]
    for op in ARITH_OPS + COMPARE_OPS:
        lanes = _operand_lanes(op, pairs)
        for mode, ftz, daz in ENV_MATRIX:
            if not BATCH.supports(op, fmt, mode, ftz, daz):
                continue
            _assert_backend_matches_scalar(
                op, fmt, lanes, mode, ftz, daz, BATCH)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
@forall_bits(2, n_examples=120)
def test_native_matches_scalar_property(fmt, a_bits, b_bits):
    """Random pairs: the native fast path == scalar wherever the host
    probe lets it run (hardware default environment only)."""
    mode, ftz, daz = HARDWARE_DEFAULT
    pairs = [(a_bits, b_bits)]
    for op in ARITH_OPS:
        if not NATIVE.supports(op, fmt, mode, ftz, daz):
            continue
        lanes = _operand_lanes(op, pairs)
        _assert_backend_matches_scalar(op, fmt, lanes, mode, ftz, daz, NATIVE)


# ----------------------------------------------------------------------
# mixed-environment tier: every cell in one call
# ----------------------------------------------------------------------

def _mixed_env_lanes(fmt, n, rng) -> tuple[list[np.ndarray], tuple]:
    """``n`` lanes of three operands each drawn from the boundary corpus,
    the subnormal band or the whole encoding space, every lane in a
    random one of the 20 (mode, FTZ, DAZ) cells."""
    corpus = np.array(special_bits(fmt), dtype=np.uint64)
    sign_and_fraction = np.uint64(fmt.sig_mask | (1 << (fmt.width - 1)))
    operands = []
    for _ in range(3):
        anything = rng.integers(0, 1 << fmt.width, size=n, dtype=np.uint64)
        subnormal = anything & sign_and_fraction
        kind = rng.integers(0, 3, size=n)
        operands.append(np.where(
            kind == 0, corpus[rng.integers(0, len(corpus), size=n)],
            np.where(kind == 1, subnormal, anything)))
    cells = rng.integers(0, len(ENV_MATRIX), size=n)
    modes, ftzs, dazs = zip(*ENV_MATRIX)
    env = (
        np.array([MODE_CODES[mode] for mode in modes], dtype=np.uint8)[cells],
        np.array(ftzs)[cells],
        np.array(dazs)[cells],
    )
    return operands, env


def _assert_lane_env_matches_cells(backend, op, fmt, operands, env):
    """One lane-environment call == one call per cell, lane for lane."""
    lanes = operands[:BACKEND_OP_ARITY[op]]
    got = backend.run_packed(op, fmt, lanes, *env)
    modes, ftzs, dazs = env
    for mode, ftz, daz in ENV_MATRIX:
        cell = (modes == MODE_CODES[mode]) & (ftzs == ftz) & (dazs == daz)
        if not cell.any():
            continue
        want = backend.run_packed(
            op, fmt, [lane[cell] for lane in lanes], mode, ftz, daz)
        where = f"{backend.name} {op}/{fmt.name} {mode.value} ftz={ftz} daz={daz}"
        np.testing.assert_array_equal(got.bits[cell], want.bits,
                                      err_msg=f"{where}: bits")
        np.testing.assert_array_equal(got.flags[cell], want.flags,
                                      err_msg=f"{where}: flags")


@pytest.mark.parametrize("backend_name", ["batch", "scalar", "auto"])
@pytest.mark.parametrize(
    "fmt", [BINARY16, BINARY32, BINARY64, BFLOAT16],
    ids=["binary16", "binary32", "binary64", "bfloat16"])
@forall_seeds(n_examples=4)
def test_lane_env_call_matches_per_cell_calls(backend_name, fmt, seed):
    """A call whose lanes span all 20 environment cells returns, bits
    and flags, what one call per cell returns."""
    backend = get_backend(backend_name)
    operands, env = _mixed_env_lanes(fmt, 200, np.random.default_rng(seed))
    for op in ARITH_OPS + COMPARE_OPS:
        _assert_lane_env_matches_cells(backend, op, fmt, operands, env)


def _native_sqrt_scalar_lanes(radicands: np.ndarray) -> int:
    """Run binary32 sqrt on native, assert it equals scalar in bits and
    flags, and return how many lanes native handed to scalar."""
    lanes = [radicands]
    with telemetry_session() as session:
        got = NATIVE.run_packed("sqrt", BINARY32, lanes, *HARDWARE_DEFAULT)
    want = SCALAR.run_packed("sqrt", BINARY32, lanes, *HARDWARE_DEFAULT)
    np.testing.assert_array_equal(got.bits, want.bits)
    np.testing.assert_array_equal(got.flags, want.flags)
    key = "softfloat.scalar_fallback_lanes_total{format=binary32,op=sqrt}"
    return session.metrics.snapshot().get(key, {"value": 0})["value"]


@pytest.mark.skipif(not host_fastpath_ok(), reason="native path disabled")
def test_native_special_lanes_go_to_batch_above_the_crossover():
    """4096 random binary32 radicands (half negative): the special
    lanes run on batch and none reach scalar; at the crossover itself
    they stay on scalar."""
    rng = np.random.default_rng(7)
    assert _native_sqrt_scalar_lanes(
        rng.integers(0, 1 << 32, size=4096, dtype=np.uint64)) == 0
    at_crossover = np.array(
        [BINARY32.one_bits(1)] * BATCH_SPECIALS_ABOVE + [BINARY32.one_bits(0)],
        dtype=np.uint64)
    assert _native_sqrt_scalar_lanes(at_crossover) == BATCH_SPECIALS_ABOVE


# ----------------------------------------------------------------------
# corpus tier: boundary pairs under the full environment lattice
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("op", ARITH_OPS + COMPARE_OPS)
def test_batch_matches_scalar_corpus(fmt, op):
    pairs = special_pairs(fmt)
    lanes = _operand_lanes(op, pairs)
    for mode, ftz, daz in ENV_MATRIX:
        if not BATCH.supports(op, fmt, mode, ftz, daz):
            continue
        _assert_backend_matches_scalar(op, fmt, lanes, mode, ftz, daz, BATCH)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("op", ARITH_OPS)
def test_native_matches_scalar_corpus(fmt, op):
    mode, ftz, daz = HARDWARE_DEFAULT
    if not NATIVE.supports(op, fmt, mode, ftz, daz):
        pytest.skip(f"native fast path does not cover {op}/{fmt.name}")
    lanes = _operand_lanes(op, special_pairs(fmt))
    _assert_backend_matches_scalar(op, fmt, lanes, mode, ftz, daz, NATIVE)


@pytest.mark.parametrize(
    "fmt", [TINY8, BINARY16, BINARY32, BINARY64],
    ids=["tiny8", "binary16", "binary32", "binary64"])
@pytest.mark.parametrize("backend_name", ["scalar", "batch", "auto"])
def test_backends_match_oracle_corpus(fmt, backend_name):
    """Every backend agrees with the PR 1 exact-rounding oracle (value
    and flags) on the boundary corpus across the environment lattice —
    the differential anchor that keeps 'bit-identical to scalar' from
    meaning 'identically wrong'."""
    backend = get_backend(backend_name)
    pairs = special_pairs(fmt)
    for op in ("add", "mul", "div", "sqrt", "fma"):
        lanes = _operand_lanes(op, pairs)
        for mode, ftz, daz in ENV_MATRIX:
            if not backend.supports(op, fmt, mode, ftz, daz):
                continue
            result = backend.run_packed(op, fmt, lanes, mode, ftz, daz)
            cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz,
                               tininess="before")
            for lane in range(len(pairs)):
                operands = tuple(int(arr[lane]) for arr in lanes)
                oracle = oracle_operation(op, fmt, cfg, *operands)
                assert int(result.bits[lane]) == oracle.bits, (
                    f"{backend_name} vs oracle bits: {op}/{fmt.name} "
                    f"mode={mode.value} ftz={ftz} daz={daz} "
                    f"operands={[hex(o) for o in operands]}"
                )
                assert FPFlag(int(result.flags[lane])) == oracle.flags, (
                    f"{backend_name} vs oracle flags: {op}/{fmt.name} "
                    f"mode={mode.value} ftz={ftz} daz={daz} "
                    f"operands={[hex(o) for o in operands]}"
                )


# ----------------------------------------------------------------------
# steered binary64 tier: the two-limb kernels' hard cases
# ----------------------------------------------------------------------

_B64_BIAS = BINARY64.bias
_B64_TOP = BINARY64.max_biased_exp - 1  # largest finite biased exponent


def _b64(sign: int, biased_exp: int, frac: int) -> int:
    return BINARY64.pack(sign, int(np.clip(biased_exp, 0, _B64_TOP)), frac)


def _frac(rng, keep: int = 52) -> int:
    """A random trailing significand with only its top ``keep`` bits
    free (few significant bits make exact results and exact ties)."""
    return int(rng.integers(0, 1 << keep)) << (52 - keep)


def _rne(op: str, *operands: int) -> int:
    lanes = [np.array([o], dtype=np.uint64) for o in operands]
    mode, ftz, daz = HARDWARE_DEFAULT
    return int(SCALAR.run_packed(op, BINARY64, lanes, mode, ftz, daz).bits[0])


def _steered_binary64(op: str, rng, per_kind: int = 32) -> list[np.ndarray]:
    """Operand lanes aimed at the binary64 mul/div/fma/sqrt corners:
    results in the subnormal band or a few ulps from overflow, exact
    ties and exact results, perfect squares, fma cancellation and fma
    addends far from the product."""
    rows: list[tuple[int, ...]] = []

    def sign() -> int:
        return int(rng.integers(0, 2))

    for _ in range(per_kind):
        ea = int(rng.integers(1, _B64_BIAS + 1))
        few_a, few_b = _frac(rng, int(rng.integers(1, 27))), _frac(
            rng, int(rng.integers(1, 27)))
        if op == "mul":
            # product exponent in the subnormal band, then near overflow
            t = int(rng.integers(-54, 3))
            rows.append((_b64(sign(), ea, _frac(rng)),
                         _b64(sign(), t + _B64_BIAS - ea, _frac(rng))))
            eb = int(rng.integers(_B64_BIAS, _B64_TOP + 1))
            t = int(rng.integers(_B64_TOP - 2, _B64_TOP + 3))
            rows.append((_b64(sign(), t + _B64_BIAS - eb, _frac(rng)),
                         _b64(sign(), eb, _frac(rng))))
            rows.append((_b64(sign(), 0, _frac(rng)), _b64(sign(), eb, _frac(rng))))
            rows.append((_b64(sign(), int(rng.integers(1, _B64_TOP)), few_a),
                         _b64(sign(), int(rng.integers(1, _B64_TOP)), few_b)))
        elif op == "div":
            t = int(rng.integers(-54, 3))
            rows.append((_b64(sign(), ea, _frac(rng)),
                         _b64(sign(), ea - t + _B64_BIAS, _frac(rng))))
            t = int(rng.integers(_B64_TOP - 2, _B64_TOP + 3))
            eb = int(rng.integers(1, _B64_BIAS))
            rows.append((_b64(sign(), t + eb - _B64_BIAS, _frac(rng)),
                         _b64(sign(), eb, _frac(rng))))
            # exact quotient: (b * q) / b, and a short significand divided
            # by a power of two into the subnormal band (exact ties)
            b = _b64(sign(), int(rng.integers(900, 1100)), few_a)
            q = _b64(sign(), int(rng.integers(900, 1100)), few_b)
            rows.append((_rne("mul", b, q), b))
            rows.append((_b64(sign(), int(rng.integers(1, 60)), few_a),
                         _b64(0, _B64_BIAS + int(rng.integers(1, 60)), 0)))
        elif op == "sqrt":
            r = _b64(0, int(rng.integers(_B64_BIAS - 500, _B64_BIAS + 500)), few_a)
            rows.append((_rne("mul", r, r),))  # perfect square
            rows.append((_b64(0, 0, _frac(rng)),))  # subnormal radicand
            rows.append((_b64(0, int(rng.integers(1, _B64_TOP + 1)), _frac(rng)),))
            rows.append((_b64(0, int(rng.integers(1, _B64_TOP + 1)), few_b),))
        else:  # fma
            a = _b64(sign(), int(rng.integers(800, 1200)), few_a)
            b = _b64(sign(), int(rng.integers(800, 1200)), few_b)
            rows.append((a, b, _rne("mul", a, b) ^ (1 << 63)))  # exact cancel
            a = _b64(sign(), int(rng.integers(800, 1200)), _frac(rng))
            b = _b64(sign(), int(rng.integers(800, 1200)), _frac(rng))
            rows.append((a, b, _rne("mul", a, b) ^ (1 << 63)))  # near cancel
            ep = int(rng.integers(800, 1200)) + int(rng.integers(800, 1200)) - _B64_BIAS
            gap = int(rng.integers(54, 400))
            rows.append((_b64(sign(), ep - 1000 + _B64_BIAS, _frac(rng)),
                         _b64(sign(), 1000, _frac(rng)),
                         _b64(sign(), max(ep - gap, 0), _frac(rng))))  # sticky only
            rows.append((_b64(sign(), ea, _frac(rng)),
                         _b64(sign(), int(rng.integers(-54, 3)) + _B64_BIAS - ea,
                              _frac(rng)),
                         _b64(sign(), int(rng.integers(0, 3)), _frac(rng))))
    return [np.array(col, dtype=np.uint64) for col in zip(*rows)]


@pytest.mark.parametrize("op", ["mul", "div", "fma", "sqrt"])
def test_batch_matches_scalar_binary64_steered(op):
    """binary64 batch == scalar on the exponent-steered corners of the
    two-limb kernels, under all 20 environment cells."""
    lanes = _steered_binary64(op, np.random.default_rng(754))
    for mode, ftz, daz in ENV_MATRIX:
        assert BATCH.supports(op, BINARY64, mode, ftz, daz)
        _assert_backend_matches_scalar(
            op, BINARY64, lanes, mode, ftz, daz, BATCH)


@pytest.mark.parametrize("src", [BINARY16, BINARY32, E4M3], ids=["binary16", "binary32", "e4m3"])
@pytest.mark.parametrize("dst", [TINY8, BFLOAT16, BINARY64], ids=["tiny8", "bfloat16", "binary64"])
def test_batch_convert_matches_scalar(src, dst):
    """Format conversion: batch == scalar over the boundary corpus plus
    random encodings, both directions, all rounding modes."""
    from tests.strategies import special_bits

    rng = np.random.default_rng(754)
    bits = np.array(
        special_bits(src)
        + [int(x) & ((1 << src.width) - 1)
           for x in rng.integers(0, 2**63, size=200)],
        dtype=np.uint64,
    )
    for mode in RoundingMode:
        for ftz in (False, True):
            want = SCALAR.run_packed(
                "convert", src, [bits], mode, ftz, False, dst_fmt=dst)
            got = BATCH.run_packed(
                "convert", src, [bits], mode, ftz, False, dst_fmt=dst)
            np.testing.assert_array_equal(want.bits, got.bits)
            np.testing.assert_array_equal(want.flags, got.flags)


# ----------------------------------------------------------------------
# protocol mechanics
# ----------------------------------------------------------------------

class TestProtocol:
    def test_available_backends(self):
        assert available_backends() == ("scalar", "batch", "native", "auto")

    def test_get_backend_roundtrips_names_and_instances(self):
        for name in available_backends():
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(backend) is backend
        assert get_backend("batch") is get_backend("batch")  # cached

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            get_backend("vectorized-maybe")

    def test_backend_op_tables(self):
        assert set(BACKEND_OP_ARITY) == set(BACKEND_OPS)
        assert BACKEND_OP_ARITY["fma"] == 3
        assert BACKEND_OP_ARITY["sqrt"] == 1
        assert BACKEND_OP_ARITY["convert"] == 1

    def test_batch_result_shape_checked(self):
        with pytest.raises(ValueError):
            BatchResult(np.zeros(3, dtype=np.uint64),
                        np.zeros(4, dtype=np.uint8))

    def test_scalar_backend_supports_everything(self):
        for op in BACKEND_OPS:
            for mode, ftz, daz in ENV_MATRIX:
                assert SCALAR.supports(op, BINARY64, mode, ftz, daz,
                                       dst_fmt=BINARY16)

    def test_auto_backend_prefers_fast_paths(self):
        auto = get_backend("auto")
        assert isinstance(auto, AutoBackend)
        mode, ftz, daz = HARDWARE_DEFAULT
        chosen = auto.select("add", BINARY32, mode, ftz, daz)
        if host_fastpath_report()["ok"]:
            assert isinstance(chosen, NativeBackend)
        # Directed rounding disqualifies native; batch takes over.
        chosen = auto.select(
            "add", BINARY32, RoundingMode.TOWARD_ZERO, False, False)
        assert chosen.name == "batch"

    def test_auto_puts_binary64_arithmetic_on_batch(self):
        auto = get_backend("auto")
        for op in ("mul", "div", "fma", "sqrt"):
            for mode, ftz, daz in ENV_MATRIX:
                chosen = auto.select(op, BINARY64, mode, ftz, daz)
                assert chosen.name == "batch", (op, mode, ftz, daz)

    def test_batch_refuses_binary128(self):
        for op in ARITH_OPS + COMPARE_OPS:
            for mode, ftz, daz in ENV_MATRIX:
                assert not BATCH.supports(op, BINARY128, mode, ftz, daz)

    def test_native_refuses_unsupported_cells(self):
        mode, _, _ = HARDWARE_DEFAULT
        assert not NATIVE.supports("fma", BINARY32, mode, False, False)
        assert not NATIVE.supports("add", BINARY32, mode, True, False)
        assert not NATIVE.supports(
            "add", BINARY32, RoundingMode.TOWARD_POSITIVE, False, False)
        with pytest.raises(ValueError):
            NATIVE.run_packed(
                "fma", BINARY32,
                [np.zeros(1, dtype=np.uint64)] * 3, mode, False, False)

    def test_mode_codes_round_trip(self):
        assert set(MODE_CODES) == set(RoundingMode)
        for mode, code in MODE_CODES.items():
            assert MODES_BY_CODE[code] is mode

    def test_lane_envs_route_past_native(self):
        mode, ftz, daz = HARDWARE_DEFAULT
        uniform = (np.full(4, MODE_CODES[mode], dtype=np.uint8),
                   np.zeros(4, dtype=bool), np.zeros(4, dtype=bool))
        for lane_env in (uniform, (mode, uniform[1], daz),
                         (mode, ftz, uniform[2])):
            assert not NATIVE.supports("add", BINARY32, *lane_env)
        auto = get_backend("auto")
        assert auto.select("add", BINARY32, *uniform).name == "batch"
        assert auto.select("add", BINARY128, *uniform).name == "scalar"

    @pytest.mark.parametrize("backend_name", ["scalar", "batch"])
    def test_lane_env_length_checked(self, backend_name):
        lanes = [np.zeros(3, dtype=np.uint64)] * 2
        with pytest.raises(ValueError):
            get_backend(backend_name).run_packed(
                "add", BINARY16, lanes, RoundingMode.NEAREST_EVEN,
                np.zeros(2, dtype=bool), False)

    def test_host_probe_reports_all_hazards(self):
        report = host_fastpath_report()
        assert set(report) == {
            "double_rounding_free", "ftz_off", "daz_off", "rne_default", "ok",
        }
        assert report["ok"] == all(
            v for k, v in report.items() if k != "ok")

    def test_compare_codes_cover_the_lattice(self):
        one = BINARY16.one_bits(0)
        lanes = [
            np.array([one, one, 0, BINARY16.quiet_nan_bits()],
                     dtype=np.uint64),
            np.array([0, one, one, one], dtype=np.uint64),
        ]
        mode, ftz, daz = HARDWARE_DEFAULT
        got = BATCH.run_packed("compare_quiet", BINARY16, lanes, mode, ftz, daz)
        assert list(got.bits) == [ORD_GREATER, ORD_EQUAL, ORD_LESS,
                                  ORD_UNORDERED]
        assert not got.flags.any()  # quiet compare of quiet NaN: no invalid

    def test_scalar_backend_matches_direct_kernels(self):
        env = FPEnv()
        a = SoftFloat(BINARY16, 0x3C00)  # 1.0
        b = SoftFloat(BINARY16, 0x3555)  # ~0.333
        from repro.softfloat import fp_add

        want = fp_add(a, b, env)
        mode, ftz, daz = HARDWARE_DEFAULT
        got = SCALAR.run_packed(
            "add", BINARY16,
            [np.array([a.bits], dtype=np.uint64),
             np.array([b.bits], dtype=np.uint64)],
            mode, ftz, daz)
        assert int(got.bits[0]) == want.bits
        assert FPFlag(int(got.flags[0])) == env.flags
