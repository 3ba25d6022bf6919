"""Binary interchange format descriptions.

A :class:`FloatFormat` is fully determined by its exponent width and its
precision (significand bits *including* the hidden bit).  The standard
IEEE 754 binary formats are provided as module constants, along with
``bfloat16`` (widely used in ML hardware and relevant to the paper's
point about proliferating precisions) and a couple of tiny formats that
are small enough for exhaustive testing.
"""

from __future__ import annotations

import dataclasses

from repro.errors import FormatError

__all__ = [
    "FloatFormat",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "BINARY128",
    "BFLOAT16",
    "E4M3",
    "E5M2",
    "TINY8",
    "STANDARD_FORMATS",
]


def _derived():
    return dataclasses.field(init=False, repr=False, compare=False)


@dataclasses.dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754-style binary floating point format.

    Parameters
    ----------
    exp_bits:
        Width of the biased exponent field (``w`` in the standard).
    precision:
        Number of significand bits including the implicit leading bit
        (``p`` in the standard).  ``binary64`` has ``precision=53``.
    name:
        Display name.
    """

    exp_bits: int
    precision: int
    name: str = ""

    # Derived geometry, computed once in ``__post_init__`` (every kernel
    # reads these per operation).  Excluded from init, repr, equality
    # and hash, so a format is still identified by (w, p, name) alone.
    #: Width of the stored trailing significand field (``p - 1``).
    frac_bits: int = _derived()
    #: Total encoding width in bits (sign + exponent + fraction).
    width: int = _derived()
    #: Exponent bias, ``2**(w-1) - 1``.
    bias: int = _derived()
    #: Largest unbiased exponent of a finite normal number.
    emax: int = _derived()
    #: Smallest unbiased exponent of a normal number (``1 - emax``).
    emin: int = _derived()
    #: The all-ones biased exponent (reserved for inf/NaN).
    max_biased_exp: int = _derived()
    #: Bit mask of the trailing significand field.
    sig_mask: int = _derived()
    #: The NaN quiet bit: the MSB of the trailing significand.
    quiet_bit: int = _derived()
    #: The implicit leading significand bit value, ``2**(p-1)``.
    hidden_bit: int = _derived()
    #: Shift that brings the sign bit down to bit 0 (``width - 1``).
    sign_shift: int = _derived()
    #: Mask of every bit but the sign: ``bits & abs_mask`` is the
    #: magnitude, which orders encodings within one sign.
    abs_mask: int = _derived()
    #: Magnitude of infinity: above it lie the NaNs, below it the finite
    #: values; ``hidden_bit`` splits those into subnormals and normals.
    inf_mag: int = _derived()

    def __post_init__(self) -> None:
        if self.exp_bits < 2:
            raise FormatError(f"exponent field needs >= 2 bits, got {self.exp_bits}")
        if self.precision < 2:
            raise FormatError(f"precision needs >= 2 bits, got {self.precision}")
        frac_bits = self.precision - 1
        bias = (1 << (self.exp_bits - 1)) - 1
        width = 1 + self.exp_bits + frac_bits
        derived = {
            "frac_bits": frac_bits,
            "width": width,
            "bias": bias,
            "emax": bias,
            "emin": 1 - bias,
            "max_biased_exp": (1 << self.exp_bits) - 1,
            "sig_mask": (1 << frac_bits) - 1,
            "quiet_bit": 1 << (frac_bits - 1),
            "hidden_bit": 1 << frac_bits,
            "sign_shift": width - 1,
            "abs_mask": (1 << (width - 1)) - 1,
            "inf_mag": ((1 << self.exp_bits) - 1) << frac_bits,
        }
        if not self.name:
            derived["name"] = f"E{self.exp_bits}M{frac_bits}"
        for field_name, value in derived.items():
            object.__setattr__(self, field_name, value)

    # ------------------------------------------------------------------
    # Landmark encodings
    # ------------------------------------------------------------------
    def pack(self, sign: int, biased_exp: int, frac: int) -> int:
        """Assemble an encoding from raw fields (no validation of ranges
        beyond masking errors; use for landmark constants)."""
        if sign not in (0, 1):
            raise FormatError(f"sign must be 0 or 1, got {sign}")
        if not 0 <= biased_exp <= self.max_biased_exp:
            raise FormatError(f"biased exponent {biased_exp} out of range")
        if not 0 <= frac <= self.sig_mask:
            raise FormatError(f"fraction {frac} out of range")
        return (sign << (self.width - 1)) | (biased_exp << self.frac_bits) | frac

    def unpack(self, bits: int) -> tuple[int, int, int]:
        """Split an encoding into ``(sign, biased_exp, frac)`` fields."""
        if not 0 <= bits < (1 << self.width):
            raise FormatError(f"bit pattern 0x{bits:x} out of range for {self.name}")
        sign = bits >> (self.width - 1)
        biased_exp = (bits >> self.frac_bits) & self.max_biased_exp
        frac = bits & self.sig_mask
        return sign, biased_exp, frac

    def inf_bits(self, sign: int = 0) -> int:
        """Encoding of ±infinity."""
        return self.pack(sign, self.max_biased_exp, 0)

    def quiet_nan_bits(self, sign: int = 0, payload: int = 0) -> int:
        """Encoding of a quiet NaN with the given payload."""
        return self.pack(sign, self.max_biased_exp, self.quiet_bit | payload)

    def signaling_nan_bits(self, sign: int = 0, payload: int = 1) -> int:
        """Encoding of a signaling NaN; payload must be nonzero."""
        if payload == 0 or payload & self.quiet_bit:
            raise FormatError("signaling NaN payload must be nonzero w/o quiet bit")
        return self.pack(sign, self.max_biased_exp, payload)

    def zero_bits(self, sign: int = 0) -> int:
        """Encoding of ±0."""
        return self.pack(sign, 0, 0)

    def max_finite_bits(self, sign: int = 0) -> int:
        """Encoding of the largest finite magnitude."""
        return self.pack(sign, self.max_biased_exp - 1, self.sig_mask)

    def min_normal_bits(self, sign: int = 0) -> int:
        """Encoding of the smallest positive normal magnitude."""
        return self.pack(sign, 1, 0)

    def min_subnormal_bits(self, sign: int = 0) -> int:
        """Encoding of the smallest positive subnormal magnitude."""
        return self.pack(sign, 0, 1)

    def one_bits(self, sign: int = 0) -> int:
        """Encoding of ±1.0."""
        return self.pack(sign, self.bias, 0)

    # ------------------------------------------------------------------
    # Landmark values (exact, as integers scaled by powers of two)
    # ------------------------------------------------------------------
    @property
    def max_finite_value(self) -> tuple[int, int]:
        """Largest finite magnitude as ``(mantissa, exponent2)``:
        value = mantissa * 2**exponent2."""
        mant = (1 << self.precision) - 1
        return mant, self.emax - self.frac_bits

    @property
    def min_subnormal_value(self) -> tuple[int, int]:
        """Smallest positive magnitude as ``(mantissa, exponent2)``."""
        return 1, self.emin - self.frac_bits

    @property
    def ulp_of_one(self) -> tuple[int, int]:
        """ULP at 1.0 as ``(mantissa, exponent2)`` (machine epsilon)."""
        return 1, -self.frac_bits

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return (
            f"FloatFormat(exp_bits={self.exp_bits}, precision={self.precision},"
            f" name={self.name!r})"
        )


#: IEEE 754 binary16 (half precision).
BINARY16 = FloatFormat(5, 11, "binary16")
#: IEEE 754 binary32 (single precision; C ``float``).
BINARY32 = FloatFormat(8, 24, "binary32")
#: IEEE 754 binary64 (double precision; C ``double``, Python ``float``).
BINARY64 = FloatFormat(11, 53, "binary64")
#: IEEE 754 binary128 (quadruple precision).
BINARY128 = FloatFormat(15, 113, "binary128")
#: Google brain float: binary32's exponent range with 8 significand bits.
BFLOAT16 = FloatFormat(8, 8, "bfloat16")
#: OCP 8-bit FP8 E4M3 variant (IEEE-style interpretation, with infinities).
E4M3 = FloatFormat(4, 4, "e4m3")
#: OCP 8-bit FP8 E5M2 variant.
E5M2 = FloatFormat(5, 3, "e5m2")
#: A deliberately tiny format (6 bits total) for exhaustive testing.
TINY8 = FloatFormat(3, 3, "tiny8")

STANDARD_FORMATS: tuple[FloatFormat, ...] = (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
)
