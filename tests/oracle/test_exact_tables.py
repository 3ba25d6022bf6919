"""The oracle's per-config tables, per-format landmarks and result builder.

The exact oracle makes every config-only decision once, in
:class:`OracleConfig`, and reads landmark encodings from a per-format
table.  These tests hold each table to the definition it replaces:
:func:`_rounds_up` for the rounding decision, the per-direction
overflow rule, and :class:`FloatFormat`'s landmark methods.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.errors import FormatError
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.cases import boundary_operands
from repro.oracle.exact import (
    _ABOVE_HALF,
    _EXACT,
    OP_ARITY,
    OracleConfig,
    OracleResult,
    _landmarks,
    _overflow_bits,
    _rounds_up,
    oracle_operation,
)
from repro.oracle.runner import FORMATS_BY_NAME
from repro.softfloat.formats import BINARY16, FloatFormat

MODES = tuple(RoundingMode)
FORMATS = tuple(FORMATS_BY_NAME.values())


def _overflow_by_direction(fmt: FloatFormat, mode: RoundingMode,
                           sign: int) -> int:
    """Overflow delivery, one branch per rounding direction."""
    if mode in (RoundingMode.NEAREST_EVEN, RoundingMode.NEAREST_AWAY):
        return fmt.inf_bits(sign)
    if mode is RoundingMode.TOWARD_ZERO:
        return fmt.max_finite_bits(sign)
    if mode is RoundingMode.TOWARD_POSITIVE:
        return fmt.inf_bits(0) if sign == 0 else fmt.max_finite_bits(1)
    return fmt.inf_bits(1) if sign == 1 else fmt.max_finite_bits(0)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_round_up_table_is_rounds_up(mode):
    cfg = OracleConfig(rounding=mode)
    assert len(cfg._round_up) == 16
    for sign, odd, state in itertools.product((0, 1), (0, 1),
                                              range(_EXACT, _ABOVE_HALF + 1)):
        assert (cfg._round_up[sign << 3 | odd << 2 | state]
                == _rounds_up(mode, sign, odd, state)), (sign, odd, state)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_config_decisions(mode):
    for tininess in ("before", "after"):
        cfg = OracleConfig(rounding=mode, tininess=tininess)
        assert cfg._tiny_before is (tininess == "before")
        assert cfg._cancel_sign == (mode is RoundingMode.TOWARD_NEGATIVE)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_overflow_choice_matches_each_direction(fmt, mode):
    cfg = OracleConfig(rounding=mode)
    for sign in (0, 1):
        assert (_overflow_bits(fmt, cfg, sign)
                == _overflow_by_direction(fmt, mode, sign)), sign


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_landmark_tables_match_the_format(fmt):
    table = _landmarks(fmt)
    assert _landmarks(fmt) is table
    for sign in (0, 1):
        assert table.inf[sign] == fmt.inf_bits(sign)
        assert table.zero[sign] == fmt.zero_bits(sign)
        assert table.max_finite[sign] == fmt.max_finite_bits(sign)
        assert table.quiet_nan[sign] == fmt.quiet_nan_bits(sign)


def test_landmark_table_of_an_equal_format_built_later():
    """A format rebuilt from the same geometry gets its own table with
    the same encodings."""
    twin = FloatFormat(BINARY16.exp_bits, BINARY16.precision, "twin16")
    assert _landmarks(twin) is not _landmarks(BINARY16)
    assert _landmarks(twin).inf == _landmarks(BINARY16).inf


@pytest.mark.parametrize("op", sorted(OP_ARITY))
def test_results_are_oracle_results(op):
    """Every return path, special operands included, builds a real
    :class:`OracleResult`."""
    fmt = BINARY16
    corners = boundary_operands(fmt)[::3]
    configs = (OracleConfig(),
               OracleConfig(rounding=RoundingMode.TOWARD_NEGATIVE,
                            ftz=True, daz=True, tininess="after"))
    for cfg in configs:
        for operands in itertools.product(corners, repeat=OP_ARITY[op]):
            result = oracle_operation(op, fmt, cfg, *operands)
            assert type(result) is OracleResult
            assert result == (result.bits, result.flags)
            assert isinstance(result.flags, FPFlag)
            assert result.value(fmt).bits == result.bits
            assert result._asdict() == {"bits": result.bits,
                                        "flags": result.flags}


def test_replace_and_equality_ignore_private_fields():
    base = OracleConfig()
    moved = dataclasses.replace(base, rounding=RoundingMode.TOWARD_NEGATIVE,
                                tininess="after")
    fresh = OracleConfig(rounding=RoundingMode.TOWARD_NEGATIVE,
                         tininess="after")
    assert moved == fresh and hash(moved) == hash(fresh)
    for name in ("_round_up", "_tiny_before", "_cancel_sign",
                 "_overflow_to_inf"):
        assert getattr(moved, name) == getattr(fresh, name), name
    assert moved._cancel_sign == 1 and not moved._tiny_before
    assert OracleConfig() == base and hash(OracleConfig()) == hash(base)
    assert "_round_up" not in repr(base)
    with pytest.raises(ValueError):
        dataclasses.replace(base, _cancel_sign=1)


@pytest.mark.parametrize("bits", [-1, -(1 << 15), 1 << 16, 1 << 70])
def test_out_of_range_encodings_are_refused(bits):
    with pytest.raises(FormatError):
        oracle_operation("add", BINARY16, OracleConfig(), bits, 0)
    with pytest.raises(FormatError):
        oracle_operation("sqrt", BINARY16, OracleConfig(), bits)


@pytest.mark.parametrize("rounding", ["roundTiesToEven", None, 0])
def test_rounding_must_be_a_mode(rounding):
    with pytest.raises(ValueError, match="RoundingMode"):
        OracleConfig(rounding=rounding)
