"""FloatFormat geometry and landmark encodings."""

import pytest

from repro.errors import FormatError
from repro.softfloat.formats import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    STANDARD_FORMATS,
    TINY8,
    FloatFormat,
)


class TestGeometry:
    def test_binary64_dimensions(self):
        assert BINARY64.exp_bits == 11
        assert BINARY64.precision == 53
        assert BINARY64.frac_bits == 52
        assert BINARY64.width == 64
        assert BINARY64.bias == 1023
        assert BINARY64.emax == 1023
        assert BINARY64.emin == -1022

    def test_binary32_dimensions(self):
        assert BINARY32.width == 32
        assert BINARY32.bias == 127
        assert BINARY32.emin == -126

    def test_binary16_dimensions(self):
        assert BINARY16.width == 16
        assert BINARY16.bias == 15

    def test_binary128_dimensions(self):
        assert BINARY128.width == 128
        assert BINARY128.precision == 113

    def test_bfloat16_shares_binary32_exponent_range(self):
        assert BFLOAT16.exp_bits == BINARY32.exp_bits
        assert BFLOAT16.width == 16

    def test_standard_formats_widths_are_powers_of_two(self):
        assert [f.width for f in STANDARD_FORMATS] == [16, 32, 64, 128]

    def test_derived_masks(self):
        assert BINARY64.sig_mask == (1 << 52) - 1
        assert BINARY64.hidden_bit == 1 << 52
        assert BINARY64.quiet_bit == 1 << 51
        assert BINARY64.max_biased_exp == 2047

    def test_auto_name(self):
        assert FloatFormat(4, 4).name == "E4M3"

    def test_invalid_formats_rejected(self):
        with pytest.raises(FormatError):
            FloatFormat(1, 8)
        with pytest.raises(FormatError):
            FloatFormat(8, 1)


class TestPackUnpack:
    def test_pack_unpack_roundtrip(self):
        bits = BINARY64.pack(1, 1023, 42)
        assert BINARY64.unpack(bits) == (1, 1023, 42)

    def test_pack_rejects_out_of_range_fields(self):
        with pytest.raises(FormatError):
            BINARY64.pack(2, 0, 0)
        with pytest.raises(FormatError):
            BINARY64.pack(0, 2048, 0)
        with pytest.raises(FormatError):
            BINARY64.pack(0, 0, 1 << 52)

    def test_unpack_rejects_out_of_range_bits(self):
        with pytest.raises(FormatError):
            BINARY64.unpack(1 << 64)

    def test_one_bits_matches_host(self):
        import struct

        host_bits = struct.unpack("<Q", struct.pack("<d", 1.0))[0]
        assert BINARY64.one_bits() == host_bits

    def test_landmark_bits_match_host_double(self):
        import struct

        for value, bits_fn in [
            (float("inf"), lambda: BINARY64.inf_bits(0)),
            (-float("inf"), lambda: BINARY64.inf_bits(1)),
            (0.0, lambda: BINARY64.zero_bits(0)),
            (-0.0, lambda: BINARY64.zero_bits(1)),
            (1.7976931348623157e308, lambda: BINARY64.max_finite_bits()),
            (2.2250738585072014e-308, lambda: BINARY64.min_normal_bits()),
            (5e-324, lambda: BINARY64.min_subnormal_bits()),
        ]:
            host = struct.unpack("<Q", struct.pack("<d", value))[0]
            assert bits_fn() == host, value

    def test_signaling_nan_payload_validation(self):
        with pytest.raises(FormatError):
            BINARY64.signaling_nan_bits(payload=0)
        with pytest.raises(FormatError):
            BINARY64.signaling_nan_bits(payload=BINARY64.quiet_bit)


class TestLandmarkValues:
    def test_max_finite_value_binary64(self):
        mant, exp2 = BINARY64.max_finite_value
        assert mant * 2.0**exp2 == 1.7976931348623157e308

    def test_min_subnormal_value_binary64(self):
        mant, exp2 = BINARY64.min_subnormal_value
        assert mant * 2.0**exp2 == 5e-324

    def test_ulp_of_one_is_machine_epsilon(self):
        mant, exp2 = BINARY64.ulp_of_one
        assert mant * 2.0**exp2 == 2.0**-52

    def test_tiny_format_is_exhaustible(self):
        assert 1 << TINY8.width == 64


class TestPrecomputedGeometry:
    """The derived geometry is stored once per instance; it must equal
    its defining formula and stay invisible to identity."""

    FORMATS = (*STANDARD_FORMATS, FloatFormat(6, 37))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_fields_match_their_formulas(self, fmt):
        w, p = fmt.exp_bits, fmt.precision
        bias = 2 ** (w - 1) - 1
        assert fmt.frac_bits == p - 1
        assert fmt.width == 1 + w + (p - 1)
        assert fmt.bias == bias
        assert fmt.emax == bias
        assert fmt.emin == 1 - bias
        assert fmt.max_biased_exp == 2**w - 1
        assert fmt.sig_mask == 2 ** (p - 1) - 1
        assert fmt.quiet_bit == 2 ** (p - 2)
        assert fmt.hidden_bit == 2 ** (p - 1)

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_pickle_round_trip(self, fmt):
        import pickle

        again = pickle.loads(pickle.dumps(fmt))
        assert again == fmt
        assert hash(again) == hash(fmt)
        assert again.sig_mask == fmt.sig_mask and again.width == fmt.width

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_identity_is_exp_bits_precision_name(self, fmt):
        import dataclasses

        fresh = FloatFormat(fmt.exp_bits, fmt.precision, fmt.name)
        assert fresh == fmt and hash(fresh) == hash(fmt)
        assert repr(fresh) == repr(fmt)
        assert FloatFormat(fmt.exp_bits, fmt.precision, "other") != fmt
        wider = dataclasses.replace(fmt, exp_bits=fmt.exp_bits + 1)
        assert wider.bias == 2**fmt.exp_bits - 1
        assert wider.width == fmt.width + 1
