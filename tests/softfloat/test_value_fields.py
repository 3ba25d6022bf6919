"""The masked-magnitude classification, the flag table and the magnitude
comparison agree with their field-by-field definitions.

``SoftFloat`` classifies from one magnitude ``bits & abs_mask``; here
every property is checked against the definition built from
``fmt.unpack`` — over every encoding of the narrow formats, and over
seeded random and landmark encodings of the wide ones.  Flag sets
combine through ``FLAGS_BY_VALUE``, checked against the ``enum.Flag``
operators for every pair of sets, and ``_ordered_compare`` against the
``(biased_exp, frac)`` key rule it replaced.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import FormatError
from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
from repro.softfloat import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    E4M3,
    E5M2,
    TINY8,
    SoftFloat,
)
from repro.softfloat.compare import Ordering, _ordered_compare
from repro.softfloat.landmarks import special_bits


def _defined(fmt, bits: int) -> tuple:
    """Every classification, the sign and the finite value of ``bits``,
    from the unpacked fields alone."""
    sign, exp, frac = fmt.unpack(bits)
    top = fmt.max_biased_exp
    nan = exp == top and frac != 0
    if exp == top:
        value = FormatError
    elif exp == 0:
        value = (frac, fmt.emin - fmt.frac_bits)
    else:
        value = (frac | fmt.hidden_bit, exp - fmt.bias - fmt.frac_bits)
    return (
        nan,
        nan and bool(frac & fmt.quiet_bit),
        nan and not frac & fmt.quiet_bit,
        exp == top and frac == 0,
        exp == 0 and frac == 0,
        exp == 0 and frac != 0,
        0 < exp < top,
        exp < top,
        sign == 1,
        sign,
        value,
    )


def _observed(x: SoftFloat) -> tuple:
    try:
        value = x.significand_value()
    except FormatError:
        value = FormatError
    return (
        x.is_nan,
        x.is_quiet_nan,
        x.is_signaling_nan,
        x.is_inf,
        x.is_zero,
        x.is_subnormal,
        x.is_normal,
        x.is_finite,
        x.is_negative,
        x.sign,
        value,
    )


def _check(fmt, encodings) -> None:
    for bits in encodings:
        observed = _observed(SoftFloat(fmt, bits))
        # type-exact: a property must return a bool, not a truthy int
        assert [type(v) for v in observed[:9]] == [bool] * 9, hex(bits)
        assert observed == _defined(fmt, bits), (fmt.name, hex(bits))


def test_derived_masks():
    for fmt in (TINY8, E4M3, E5M2, BFLOAT16, BINARY16, BINARY32, BINARY64,
                BINARY128):
        assert fmt.sign_shift == fmt.width - 1
        assert fmt.abs_mask == (1 << (fmt.width - 1)) - 1
        assert fmt.inf_mag == fmt.inf_bits(0)
        assert fmt.inf_mag == fmt.abs_mask & fmt.inf_bits(1)


@pytest.mark.parametrize("fmt", [TINY8, E4M3, E5M2, BFLOAT16, BINARY16],
                         ids=lambda f: f.name)
def test_every_encoding_classifies_like_its_fields(fmt):
    _check(fmt, range(1 << fmt.width))


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64, BINARY128],
                         ids=lambda f: f.name)
def test_wide_encodings_classify_like_their_fields(fmt):
    rng = random.Random(f"value-fields-{fmt.name}")
    top = fmt.max_biased_exp
    encodings = list(special_bits(fmt))
    for _ in range(3000):
        encodings.append(rng.getrandbits(fmt.width))
        # every class boundary: exponent field 0, 1, top-1 and top
        exp = rng.choice((0, 1, top - 1, top))
        frac = rng.choice((0, 1, fmt.quiet_bit, fmt.sig_mask,
                           rng.getrandbits(fmt.frac_bits)))
        encodings.append(fmt.pack(rng.getrandbits(1), exp, frac))
    _check(fmt, encodings)


def test_flag_table_matches_the_enum_operators():
    members = list(FLAGS_BY_VALUE)
    assert len(members) == 64
    assert FLAGS_BY_VALUE[0] is FPFlag.NONE
    assert FLAGS_BY_VALUE[FPFlag.ALL.value] is FPFlag.ALL
    assert FLAGS_BY_VALUE[FPFlag.IEEE.value] is FPFlag.IEEE
    for a in members:
        for b in members:
            assert FLAGS_BY_VALUE[a.value | b.value] is a | b
            assert FLAGS_BY_VALUE[a.value & ~b.value] is a & ~b


def test_env_combines_flags_into_canonical_members():
    members = list(FLAGS_BY_VALUE)
    for a in members:
        for b in members:
            env = FPEnv(flags=a)
            env.raise_flags(b)
            assert env.flags is a | b
            env = FPEnv(flags=a)
            env.clear_flags(b)
            assert env.flags is a & ~b


def _key_rule(a: SoftFloat, b: SoftFloat) -> Ordering:
    """The comparison by ``(biased_exp, frac)`` keys that the magnitude
    comparison replaced."""
    if a.is_zero and b.is_zero:
        return Ordering.EQUAL
    if a.sign != b.sign:
        return Ordering.LESS if a.sign else Ordering.GREATER
    ka, kb = (a.biased_exp, a.frac), (b.biased_exp, b.frac)
    if ka == kb:
        return Ordering.EQUAL
    smaller_mag = ka < kb
    if a.sign:
        return Ordering.GREATER if smaller_mag else Ordering.LESS
    return Ordering.LESS if smaller_mag else Ordering.GREATER


def test_ordered_compare_matches_the_key_rule_on_tiny8():
    values = [SoftFloat(TINY8, bits) for bits in range(1 << TINY8.width)]
    non_nan = [x for x in values if not x.is_nan]
    assert len(non_nan) == 2 * (TINY8.inf_mag + 1)
    for a in non_nan:
        for b in non_nan:
            assert _ordered_compare(a, b) is _key_rule(a, b), (a.bits, b.bits)
