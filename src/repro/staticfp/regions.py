"""Feasible divergence regions: abstract facts turned into bit spaces.

This is the bridge from PR 3's abstract interpretation to witness
search.  A :class:`BitRegion` is a set of packed encodings of one
format, stored as intervals in *ordered-key* space — a bijection from
the non-NaN encodings onto ``0..total_keys-1`` that sorts by numeric
value (``-inf`` first, ``-0`` then ``+0`` in the middle, ``+inf``
last).  In that space an :class:`~repro.staticfp.domain.AbstractValue`
hull is a contiguous span, region intersection is interval clipping,
uniform sampling is one ``randrange``, and exhaustive enumeration is a
counter — which is exactly what the guided and exhaustive strategies
of :func:`repro.optsim.find_divergence` need.

:func:`refine_toward` runs the interval domain *backward*: given a
desired result set at one node (say "the subtraction lands in the
subnormal band", the precondition for an FTZ flush), it inverts the
arithmetic interval-wise — probing real softfloat operations under
directed rounding, the same discipline the forward transfer functions
use — to compute per-variable sets that can reach it.  Inversion is
steering, not proof: where an inverse is ill-defined (divisor spanning
zero, ``min``/``rem``) the operand keeps its forward value, and every
computed bound is widened outward, so a region never *excludes* a real
witness reachable through the refined path.

:func:`goal_stream` packages the refinements per hazard: one
:class:`SearchGoal` per candidate pass or exception flow (cancellation
sites for reassociation, subnormal bands for FTZ/DAZ, overflow/
invalid/divide-by-zero preconditions per node), each carrying the
per-variable bit regions a guided search should sample from.  Where a
hazard has measure zero — a contraction whose product absorbs its
addend diverges only on a rounding tie — the goal carries bindings
built in integers instead (:func:`_tie_candidates`).

Goals are derived on demand.  The hazards are listed up front, each
with its backward refinement deferred; a :class:`GoalStream` refines a
hazard only when an iteration first reaches it, so a search that ends
on the admitted-range lattice refines nothing.  Built candidates come
first in a search, so :meth:`GoalStream.built` reads the tie goals off
the contraction sites without refining the FTZ/DAZ goals ahead of them,
unless the ``max_goals`` cap could drop one: then it derives every goal
in order.  :func:`divergence_goals` is the stream, drained.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache, partial

from repro.fpenv.env import FPEnv
from repro.fpenv.flags import FPFlag
from repro.optsim.ast import Binary, BinOp, Const, Expr, Var, expr_variables
from repro.optsim.machine import MachineConfig
from repro.softfloat import SoftFloat, next_down, next_up, special_values
from repro.softfloat.directed import probe_op
from repro.softfloat.formats import FloatFormat
from repro.staticfp.analyze import (
    Analysis,
    as_abstract,
    extend_analysis,
    reuse_analysis,
)
from repro.staticfp.domain import (
    AbstractValue,
    AnalysisContext,
    _le,
    _lt,
    _materialize_zeros,
    _max_sf,
    _min_sf,
    _probe_corners,
    _transfer_neg,
)

__all__ = [
    "BitRegion",
    "GoalStream",
    "SearchGoal",
    "bits_of_key",
    "divergence_goals",
    "goal_stream",
    "key_of_bits",
    "refine_toward",
    "total_keys",
    "variable_regions",
]


# ----------------------------------------------------------------------
# Ordered keys: a value-sorted bijection over the non-NaN encodings
# ----------------------------------------------------------------------
def _inf_magnitude(fmt: FloatFormat) -> int:
    """The magnitude field of an infinity (largest non-NaN magnitude)."""
    return fmt.max_biased_exp << fmt.frac_bits


def total_keys(fmt: FloatFormat) -> int:
    """Number of non-NaN encodings of ``fmt``."""
    return 2 * _inf_magnitude(fmt) + 2


def key_of_bits(fmt: FloatFormat, bits: int) -> int:
    """Map a non-NaN encoding to its ordered key.

    Keys ascend in numeric value: ``-inf`` is 0, ``-0`` is
    ``total/2 - 1``, ``+0`` is ``total/2``, ``+inf`` is ``total - 1``.
    """
    inf_m = _inf_magnitude(fmt)
    sign = bits >> (fmt.width - 1)
    magnitude = bits & (inf_m | fmt.sig_mask)
    if magnitude > inf_m:
        raise ValueError(f"NaN encoding {bits:#x} has no ordered key")
    return inf_m - magnitude if sign else inf_m + 1 + magnitude


def bits_of_key(fmt: FloatFormat, key: int) -> int:
    """Inverse of :func:`key_of_bits`."""
    inf_m = _inf_magnitude(fmt)
    if not 0 <= key <= 2 * inf_m + 1:
        raise ValueError(f"key {key} out of range for {fmt.name}")
    if key <= inf_m:
        return (1 << (fmt.width - 1)) | (inf_m - key)
    return key - inf_m - 1


def _key_of_value(x: SoftFloat) -> int:
    return key_of_bits(x.fmt, x.bits)


def _all_nan_bits(fmt: FloatFormat) -> tuple[int, ...]:
    """Every NaN encoding (small formats only — exhaustive sweeps)."""
    if fmt.frac_bits > 12:
        raise ValueError(
            f"{fmt.name}: refusing to enumerate 2^{fmt.frac_bits + 1} NaNs"
        )
    out = []
    for sign in (0, 1):
        for frac in range(1, fmt.sig_mask + 1):
            out.append(fmt.pack(sign, fmt.max_biased_exp, frac))
    return tuple(sorted(out))


def _canonical_nan_bits(fmt: FloatFormat, *, snan: bool) -> tuple[int, ...]:
    bits = [SoftFloat.nan(fmt).bits, fmt.quiet_nan_bits(1, 0)]
    if snan:
        bits.append(SoftFloat.signaling_nan(fmt).bits)
    return tuple(sorted(set(bits)))


@dataclasses.dataclass(frozen=True)
class BitRegion:
    """A set of packed encodings: value-ordered key spans plus an
    explicit (small) list of NaN encodings.

    Spans are inclusive ``(lo_key, hi_key)`` pairs, normalized to be
    sorted, disjoint, and non-adjacent; all set operations and the
    index-addressable :meth:`select` run directly on them.
    """

    fmt: FloatFormat
    spans: tuple[tuple[int, int], ...]
    nan_bits: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_spans(
        cls,
        fmt: FloatFormat,
        spans: list[tuple[int, int]] | tuple[tuple[int, int], ...],
        nan_bits: tuple[int, ...] | list[int] = (),
    ) -> "BitRegion":
        limit = total_keys(fmt) - 1
        clipped = sorted(
            (max(0, lo), min(hi, limit)) for lo, hi in spans if lo <= hi
        )
        merged: list[tuple[int, int]] = []
        for lo, hi in clipped:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(fmt, tuple(merged), tuple(sorted(set(nan_bits))))

    @classmethod
    def empty(cls, fmt: FloatFormat) -> "BitRegion":
        return cls(fmt, ())

    @classmethod
    def full(
        cls, fmt: FloatFormat, *, nan: str | bool = False
    ) -> "BitRegion":
        """All non-NaN encodings; ``nan="canonical"`` adds the canonical
        quiet/signaling NaNs, ``nan="all"`` every NaN encoding (small
        formats only — the exhaustive-proof domain)."""
        if nan == "all":
            nans: tuple[int, ...] = _all_nan_bits(fmt)
        elif nan == "canonical" or nan is True:
            nans = _canonical_nan_bits(fmt, snan=True)
        else:
            nans = ()
        return cls(fmt, ((0, total_keys(fmt) - 1),), nans)

    @classmethod
    def from_abstract(
        cls, value: AbstractValue, *, nan: bool = True
    ) -> "BitRegion":
        """The encodings an abstract value admits (its hull, attainable
        signed zeros, and — when ``nan`` — canonical NaNs)."""
        value = _materialize_zeros(value)
        fmt = value.fmt
        spans: list[tuple[int, int]] = []
        if value.lo is not None:
            spans.append((_key_of_value(value.lo), _key_of_value(value.hi)))
        if value.pos_zero:
            k = _key_of_value(SoftFloat.zero(fmt, 0))
            spans.append((k, k))
        if value.neg_zero:
            k = _key_of_value(SoftFloat.zero(fmt, 1))
            spans.append((k, k))
        nans: tuple[int, ...] = ()
        if nan and value.maybe_nan:
            nans = _canonical_nan_bits(fmt, snan=value.maybe_snan)
        return cls.from_spans(fmt, spans, nans)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.spans) + len(self.nan_bits)

    @property
    def is_empty(self) -> bool:
        return not self.spans and not self.nan_bits

    def contains(self, bits: int) -> bool:
        if bits in self.nan_bits:
            return True
        try:
            key = key_of_bits(self.fmt, bits)
        except ValueError:
            return False
        return any(lo <= key <= hi for lo, hi in self.spans)

    def select(self, index: int) -> int:
        """The ``index``-th member encoding (spans in key order, then
        NaN encodings) — the exhaustive sweep's address decoder."""
        if index < 0:
            raise IndexError(index)
        for lo, hi in self.spans:
            width = hi - lo + 1
            if index < width:
                return bits_of_key(self.fmt, lo + index)
            index -= width
        if index < len(self.nan_bits):
            return self.nan_bits[index]
        raise IndexError("region index out of range")

    def sample(self, rng: random.Random) -> int:
        return self.select(rng.randrange(self.size))

    def intersect(self, other: "BitRegion") -> "BitRegion":
        out: list[tuple[int, int]] = []
        for alo, ahi in self.spans:
            for blo, bhi in other.spans:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        nans = tuple(b for b in self.nan_bits if b in other.nan_bits)
        return BitRegion.from_spans(self.fmt, out, nans)

    def union(self, other: "BitRegion") -> "BitRegion":
        return BitRegion.from_spans(
            self.fmt,
            list(self.spans) + list(other.spans),
            self.nan_bits + other.nan_bits,
        )

    def to_dict(self) -> dict:
        return {
            "fmt": self.fmt.name,
            "spans": [list(s) for s in self.spans],
            "nan_bits": list(self.nan_bits),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BitRegion":
        from repro.oracle import FORMATS_BY_NAME

        fmt = FORMATS_BY_NAME[data["fmt"]]
        return cls.from_spans(
            fmt,
            [tuple(s) for s in data["spans"]],
            tuple(data["nan_bits"]),
        )

    def describe(self) -> str:
        parts = []
        for lo, hi in self.spans:
            a = SoftFloat(self.fmt, bits_of_key(self.fmt, lo))
            b = SoftFloat(self.fmt, bits_of_key(self.fmt, hi))
            parts.append(f"[{a!s}, {b!s}]" if lo != hi else f"{{{a!s}}}")
        if self.nan_bits:
            parts.append(f"{len(self.nan_bits)} NaN")
        return " ∪ ".join(parts) if parts else "(empty)"

    def lattice_points(self, *, max_interior: int = 3) -> list[int]:
        """The deterministic probe tier of this region: landmark corpus
        members it admits, every span endpoint, and span midpoints."""
        out: list[int] = []
        seen: set[int] = set()

        def add(bits: int) -> None:
            if bits not in seen:
                seen.add(bits)
                out.append(bits)

        for value in special_values(self.fmt):
            if self.contains(value.bits):
                add(value.bits)
        for lo, hi in self.spans:
            add(bits_of_key(self.fmt, lo))
            add(bits_of_key(self.fmt, hi))
            width = hi - lo + 1
            for i in range(1, min(max_interior, width - 1) + 1):
                add(bits_of_key(self.fmt, lo + width * i // (max_interior + 1)))
        for bits in self.nan_bits:
            add(bits)
        return out


# ----------------------------------------------------------------------
# Backward refinement over the interval domain
# ----------------------------------------------------------------------
_ENV = FPEnv()


def _widen_outward(
    lo: SoftFloat, hi: SoftFloat, steps: int = 2
) -> tuple[SoftFloat, SoftFloat]:
    """Pad an inverted hull by a few ulps so inversion slop never
    excludes a reachable witness."""
    for _ in range(steps):
        if not (lo.is_inf and lo.is_negative):
            lo = next_down(lo, _ENV)
        if not (hi.is_inf and not hi.is_negative):
            hi = next_up(hi, _ENV)
    return lo, hi


def _hull_from_probes(
    op: str, point_sets: list[list[SoftFloat]]
) -> tuple[SoftFloat, SoftFloat] | None:
    """The non-NaN extremes of ``op`` probed over every corner
    combination under both directed roundings: the inverted hull."""
    ctx = AnalysisContext(point_sets[0][0].fmt)
    results, _, _ = _probe_corners(op, point_sets, ctx)
    if not results:
        return None
    return _min_sf(results), _max_sf(results)


def _points(value: AbstractValue) -> list[SoftFloat]:
    pts = _materialize_zeros(value).corner_points()
    return pts if pts else [SoftFloat.zero(value.fmt)]


def _spans_zero(value: AbstractValue) -> bool:
    value = _materialize_zeros(value)
    if value.lo is None:
        return False
    zero = SoftFloat.zero(value.fmt)
    return _le(value.lo, zero) and _le(zero, value.hi)


def _ranged(
    fmt: FloatFormat,
    hull: tuple[SoftFloat, SoftFloat] | None,
    *,
    maybe_nan: bool = False,
) -> AbstractValue | None:
    if hull is None:
        return None
    lo, hi = _widen_outward(*hull)
    return AbstractValue.from_range(lo, hi, maybe_nan=maybe_nan)


def _inverse_operand(
    op: str,
    index: int,
    desired: AbstractValue,
    operand_values: list[AbstractValue],
) -> AbstractValue | None:
    """The set of values operand ``index`` should take for ``op`` to
    land in ``desired``, given the other operands' forward sets — or
    ``None`` when no sound steering inversion exists."""
    fmt = desired.fmt
    y = _points(desired)
    if op == "neg":
        return _transfer_neg(desired).value
    if op == "abs":
        hull = _hull_from_probes("sub", [[SoftFloat.zero(fmt)], y])
        if hull is None:
            return None
        lo, hi = hull
        lo = _min_sf([lo] + y)
        hi = _max_sf([hi] + y)
        return _ranged(fmt, (lo, hi), maybe_nan=desired.maybe_nan)
    if op == "sqrt":
        # x = y*y, plus the sign carried by sqrt(±0) = ±0.
        out = _ranged(fmt, _hull_from_probes("mul", [y, y]),
                      maybe_nan=desired.maybe_nan)
        if out is not None and desired.neg_zero:
            out = dataclasses.replace(out, neg_zero=True)
        return out
    if op in ("add", "sub"):
        other = operand_values[1 - index]
        s = _points(other)
        if op == "add":
            return _ranged(fmt, _hull_from_probes("sub", [y, s]))
        if index == 0:  # x - s = y  =>  x = y + s
            return _ranged(fmt, _hull_from_probes("add", [y, s]))
        return _ranged(fmt, _hull_from_probes("sub", [s, y]))
    if op == "mul":
        other = operand_values[1 - index]
        if _spans_zero(other) or other.can_zero:
            return None  # unbounded inverse: no refinement
        return _ranged(fmt, _hull_from_probes("div", [y, _points(other)]))
    if op == "div":
        if index == 0:  # x / b = y  =>  x = y * b
            return _ranged(
                fmt, _hull_from_probes("mul", [y, _points(operand_values[1])])
            )
        if _spans_zero(desired) or desired.can_zero:
            return None
        return _ranged(
            fmt, _hull_from_probes("div", [_points(operand_values[0]), y])
        )
    if op == "fma":
        a, b, c = operand_values
        if index == 2:  # c = y - a*b
            product = _hull_from_probes("mul", [_points(a), _points(b)])
            if product is None:
                return None
            plo, phi = product
            return _ranged(fmt, _hull_from_probes("sub", [y, [plo, phi]]))
        other = b if index == 0 else a
        if _spans_zero(other) or other.can_zero:
            return None
        diff = _hull_from_probes("sub", [y, _points(c)])
        if diff is None:
            return None
        dlo, dhi = diff
        return _ranged(fmt, _hull_from_probes("div", [[dlo, dhi],
                                                      _points(other)]))
    return None  # min/max/rem and anything else: forward value only


def refine_toward(
    analysis: Analysis, node: Expr, desired: AbstractValue
) -> dict[str, AbstractValue]:
    """Per-variable value sets that can steer ``node`` into ``desired``.

    Walks from ``node`` to its leaves, inverting each operation
    interval-wise against the forward facts; a variable reached through
    several paths keeps the intersection of its constraints (falling
    back to the less-refined one when they conflict — refinement is
    steering, so a sound fallback beats an empty region).
    """
    out: dict[str, AbstractValue] = {}

    def walk(node: Expr, desired: AbstractValue) -> None:
        fact = analysis.fact(node)
        met = desired.meet(fact.value)
        if met is None:
            met = fact.value
        if isinstance(node, Var):
            prev = out.get(node.name)
            if prev is None:
                out[node.name] = met
            else:
                both = prev.meet(met)
                if both is not None:
                    out[node.name] = both
            return
        if isinstance(node, Const):
            return
        children = node.children()
        child_values = [analysis.fact(c).value for c in children]
        for index, child in enumerate(children):
            inverted = _inverse_operand(fact.op, index, met, child_values)
            walk(child, inverted if inverted is not None
                 else child_values[index])

    walk(node, desired)
    return out


# ----------------------------------------------------------------------
# Search goals: one per candidate hazard
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SearchGoal:
    """One hazard a guided search should chase: a name (for coverage
    reporting), the per-variable bit regions to sample, and a human
    explanation of why these regions."""

    name: str
    regions: tuple[tuple[str, BitRegion], ...]
    detail: str = ""
    #: Bindings built rather than sampled, as ``(name, bits)`` pairs;
    #: the search tries them before anything else (variables they leave
    #: out take their region's first lattice point)
    candidates: tuple[tuple[tuple[str, int], ...], ...] = ()

    def region_map(self) -> dict[str, BitRegion]:
        return dict(self.regions)

    def describe(self) -> str:
        parts = ", ".join(
            f"{name} ∈ {region.describe()}" for name, region in self.regions
        )
        return f"{self.name}: {parts or 'admitted ranges'}"


def variable_regions(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    nan: bool = False,
) -> dict[str, BitRegion]:
    """The admitted sampling space per variable: the binding's abstract
    hull when bound, the whole format otherwise."""
    fmt = config.fmt
    out: dict[str, BitRegion] = {}
    for name in expr_variables(expr):
        if bindings is not None and name in bindings:
            av = as_abstract(bindings[name], fmt)
            out[name] = BitRegion.from_abstract(av, nan=nan)
        else:
            out[name] = BitRegion.full(
                fmt, nan="canonical" if nan else False
            )
    return out


def _pow2(fmt: FloatFormat, k: int) -> SoftFloat:
    """``2^k`` clamped into ``fmt`` (steering scale factor)."""
    biased = k + fmt.bias
    if biased >= fmt.max_biased_exp:
        return SoftFloat.max_finite(fmt)
    if biased < 1:
        return SoftFloat.min_subnormal(fmt)
    return SoftFloat(fmt, fmt.pack(0, biased, 0))


@cache
def _subnormal_band(fmt: FloatFormat) -> AbstractValue:
    edge = next_down(SoftFloat.min_normal(fmt), _ENV)
    return AbstractValue.from_range(-edge, edge)


@cache
def _zero_band(fmt: FloatFormat) -> AbstractValue:
    tiny = SoftFloat.min_subnormal(fmt)
    return AbstractValue.from_range(-tiny, tiny)


@cache
def _overflow_bands(fmt: FloatFormat) -> tuple[AbstractValue, ...]:
    from repro.softfloat.directed import down_env

    half, _ = probe_op(
        "mul", SoftFloat.max_finite(fmt), _pow2(fmt, -1), env=down_env()
    )
    return (
        AbstractValue.from_range(half, SoftFloat.inf(fmt, 0)),
        AbstractValue.from_range(SoftFloat.inf(fmt, 1), -half),
    )


def _goal_regions(
    var_map: Mapping[str, AbstractValue],
    base: Mapping[str, BitRegion],
) -> tuple[tuple[str, BitRegion], ...] | None:
    """Intersect refined per-variable sets with the admitted base
    regions; drop vacuous constraints, reject infeasible goals."""
    out: list[tuple[str, BitRegion]] = []
    for name, value in sorted(var_map.items()):
        if name not in base:
            continue
        region = BitRegion.from_abstract(value, nan=False).intersect(
            base[name]
        )
        if region.is_empty:
            return None  # this hazard cannot fire on admitted inputs
        if region.size < base[name].size:
            out.append((name, region))
    return tuple(out)


def divergence_goals(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    safety=None,
    analysis: Analysis | None = None,
    max_goals: int = 32,
) -> tuple[SearchGoal, ...]:
    """The guided search's goal list for one expression/config: every
    goal of :func:`goal_stream`, derived."""
    return tuple(goal_stream(expr, config, bindings, safety=safety,
                             analysis=analysis, max_goals=max_goals))


def goal_stream(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    safety=None,
    analysis: Analysis | None = None,
    max_goals: int = 32,
) -> "GoalStream":
    """The guided search's goals for one expression/config, each derived
    only when an iteration first reaches it.

    Goals come from three analyses: the environment (FTZ flush and DAZ
    preconditions — results or inputs in the subnormal band), the
    applied value-changing passes (cancellation/absorption sites for
    reassociation, the whole admitted space for contraction — any
    inexact product exposes the removed rounding — led by built rounding
    ties where the product absorbs the addend), and the exception
    flows (per-node OVERFLOW / UNDERFLOW / DIV_BY_ZERO / INVALID
    preconditions, backward-refined to the variables).  ``analysis``
    (of ``expr`` under ``config``) is reused, not redone.
    """
    from repro.staticfp.safety import predict_pass_safety

    analysis = reuse_analysis(analysis, expr, bindings, config)
    if safety is None:
        safety = predict_pass_safety(expr, config, bindings,
                                     analysis=analysis)
    base = variable_regions(expr, config, bindings)
    return GoalStream(tuple(_hazards(config, safety, analysis, base)),
                      max_goals)


#: a goal's constrained variables and their regions
_Regions = tuple[tuple[str, BitRegion], ...]


@dataclasses.dataclass(frozen=True)
class _Hazard:
    """A goal before its derivation: ``regions()`` backward-refines it
    (``None``: the hazard cannot fire on admitted inputs)."""

    name: str
    detail: str
    regions: Callable[[], _Regions | None]
    candidates: tuple[tuple[tuple[str, int], ...], ...] = ()


def _admitted() -> _Regions:
    """The regions of a goal that samples the admitted ranges."""
    return ()


def _refined(
    analysis: Analysis, node: Expr, desired: AbstractValue,
    base: Mapping[str, BitRegion],
) -> _Regions | None:
    return _goal_regions(refine_toward(analysis, node, desired), base)


def _cancellation_regions(
    analysis: Analysis, node: Expr, base: Mapping[str, BitRegion],
) -> _Regions | None:
    """Steer the sum at ``node`` to within an ulp-scaled band of zero."""
    from repro.softfloat.directed import up_env

    fmt = analysis.config.fmt
    mag = analysis.fact(node).value.max_magnitude()
    if mag.is_zero or mag.is_inf:
        band = _zero_band(fmt)
    else:
        t, _ = probe_op("mul", mag, _pow2(fmt, -(fmt.precision - 1)),
                        env=up_env())
        band = AbstractValue.from_range(-t, t)
    return _refined(analysis, node, band, base)


def _invalid_regions(
    analysis: Analysis, node: Expr, base: Mapping[str, BitRegion],
) -> _Regions | None:
    var_map = _invalid_preconditions(analysis, node, analysis.config.fmt)
    return _goal_regions(var_map, base) if var_map else None


def _hazards(
    config: MachineConfig,
    safety,
    analysis: Analysis,
    base: Mapping[str, BitRegion],
):
    """Every hazard in goal order, its refinement deferred."""
    fmt = config.fmt
    subnormal = _subnormal_band(fmt)

    # --- environment hazards -----------------------------------------
    if config.daz:
        for name in sorted(base):
            fact_value = analysis.bindings.get(name)
            if fact_value is not None and not fact_value.can_subnormal:
                continue
            yield _Hazard(f"daz:{name}",
                          f"DAZ reads a subnormal {name} as zero",
                          partial(_goal_regions, {name: subnormal}, base))
    if config.ftz:
        tiny = FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
        for node in analysis.order:
            fact = analysis.fact(node)
            if fact.op in ("const", "var") or not (fact.may_flags & tiny):
                continue
            yield _Hazard(f"ftz:{node}",
                          f"FTZ flushes a subnormal result of '{node}'",
                          partial(_refined, analysis, node, subnormal, base))

    # --- value-changing pass applications ----------------------------
    for verdict in safety.value_changing_applied:
        before_analysis = extend_analysis(analysis, verdict.before)
        if verdict.pass_name == "fma-contraction":
            for node in before_analysis.order:
                candidates = _tie_candidates(node, before_analysis, base)
                if candidates:
                    yield _Hazard(
                        f"midpoint:{node}",
                        f"the product in '{node}' absorbs its addend: on a"
                        " rounding tie the fused form rounds toward the"
                        " addend, the unfused one to even",
                        _admitted, candidates)
            yield _Hazard(f"contract:{verdict.before}",
                          "contraction removes the product rounding; any"
                          " inexact admitted product exposes it", _admitted)
            continue
        for node in before_analysis.order:
            fact = before_analysis.fact(node)
            info = fact.cancellation
            if info is not None and info.possible:
                yield _Hazard(
                    f"cancel:{verdict.pass_name}:{node}",
                    f"{verdict.pass_name} reorders a cancellation-prone"
                    f" sum at '{node}'",
                    partial(_cancellation_regions, before_analysis, node,
                            base))
            if fact.absorption is not None and fact.absorption.possible:
                yield _Hazard(f"absorb:{verdict.pass_name}:{node}",
                              f"{verdict.pass_name} reorders an"
                              f" absorption-prone sum at '{node}'",
                              _admitted)

    # --- exception flows ----------------------------------------------
    for node in analysis.order:
        fact = analysis.fact(node)
        if fact.op in ("const", "var"):
            continue
        if fact.may_flags & FPFlag.OVERFLOW:
            for i, band in enumerate(_overflow_bands(fmt)):
                yield _Hazard(f"overflow{'-+'[1 - i]}:{node}",
                              f"'{node}' can overflow",
                              partial(_refined, analysis, node, band, base))
        if fact.may_flags & FPFlag.UNDERFLOW:
            yield _Hazard(f"underflow:{node}", f"'{node}' can underflow",
                          partial(_refined, analysis, node, subnormal, base))
        if fact.may_flags & FPFlag.DIV_BY_ZERO and isinstance(node, Binary) \
                and node.op is BinOp.DIV:
            yield _Hazard(f"divzero:{node}",
                          f"the divisor of '{node}' can be zero",
                          partial(_refined, analysis, node.right,
                                  _zero_band(fmt), base))
        if fact.may_flags & FPFlag.INVALID:
            yield _Hazard(f"invalid:{node}", f"'{node}' can raise INVALID",
                          partial(_invalid_regions, analysis, node, base))


class GoalStream:
    """The search goals of one expression/config, derived on demand.

    Iteration yields the goals in order; a goal's regions are
    backward-refined only when an iteration first reaches it, and kept
    for the next one.  :meth:`_derive` is the one derivation: goals are
    named uniquely (the first feasible hazard of a name wins), a
    hazard that cannot fire on admitted inputs is dropped, and at most
    ``max_goals`` goals are kept.
    """

    def __init__(self, hazards: tuple[_Hazard, ...], max_goals: int):
        self._hazards = hazards
        self._max_goals = max_goals
        self._pending = self._derive()
        #: the goals derived so far, in order
        self.derived: list[SearchGoal] = []

    def _derive(self):
        seen: set[str] = set()
        for hazard in self._hazards:
            if len(seen) >= self._max_goals:
                return
            if hazard.name in seen:
                continue
            regions = hazard.regions()
            if regions is None:
                continue
            seen.add(hazard.name)
            yield SearchGoal(name=hazard.name, regions=regions,
                             detail=hazard.detail,
                             candidates=hazard.candidates)

    def __iter__(self):
        index = 0
        while True:
            if index == len(self.derived):
                goal = next(self._pending, None)
                if goal is None:
                    return
                self.derived.append(goal)
            yield self.derived[index]
            index += 1

    def built(self) -> tuple[SearchGoal, ...]:
        """The goals that carry built candidates, in order.

        Such a goal samples the admitted ranges, so it is always
        feasible, and only its own kind of hazard shares its name: while
        the hazards up to the last of them carry at most ``max_goals``
        names, the cap cannot drop one, and they are read off the
        hazards without deriving the goals ahead of them.  Otherwise
        every goal is derived in order.
        """
        last = max((i for i, hazard in enumerate(self._hazards)
                    if hazard.candidates), default=-1)
        ahead = self._hazards[:last + 1]
        if len({hazard.name for hazard in ahead}) > self._max_goals:
            return tuple(goal for goal in self if goal.candidates)
        out: dict[str, SearchGoal] = {}
        for hazard in ahead:
            if hazard.candidates and hazard.name not in out:
                out[hazard.name] = SearchGoal(
                    name=hazard.name, regions=hazard.regions(),
                    detail=hazard.detail, candidates=hazard.candidates)
        return tuple(out.values())


def _tie_candidates(
    node: Expr,
    analysis: Analysis,
    base: Mapping[str, BitRegion],
    limit: int = 4,
) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Bindings that put the exact product of a contraction site
    ``x*y ± z`` on a rounding tie, with ``z`` breaking the tie away from
    round-to-even: the unfused form rounds the product to the even
    neighbour and then absorbs ``z``; the fused form lands on the odd
    one.

    Built only where the product surely absorbs the addend (``|z|``
    below a quarter ulp of the smallest ``|x*y|``), where uniform
    sampling can find nothing else, and only for distinct variables
    ``x`` and ``y`` and a variable or literal ``z``.  The tie is solved
    in integers inside the binding ranges: ``x = OX * 2^sx`` and ``y =
    OY * 2^sy`` with odd ``OX`` of ``a`` bits and odd ``OY`` of ``p+1-a``
    or ``p+2-a`` bits such that ``OX*OY`` has exactly ``p+1`` bits, whose
    last one is then the half-ulp of a tie.  Balanced widths come first:
    they need the least room in either range.
    """
    if not (isinstance(node, Binary) and node.op in (BinOp.ADD, BinOp.SUB)):
        return ()
    if isinstance(node.left, Binary) and node.left.op is BinOp.MUL:
        product, addend = node.left, node.right
    elif isinstance(node.right, Binary) and node.right.op is BinOp.MUL:
        product, addend = node.right, node.left
    else:
        return ()
    x, y = product.left, product.right
    if not (isinstance(x, Var) and isinstance(y, Var)) or x.name == y.name \
            or isinstance(addend, Var) and addend.name in (x.name, y.name) \
            or not isinstance(addend, (Var, Const)):
        return ()
    p_fact = analysis.fact(product).value
    z_fact = analysis.fact(addend).value
    if p_fact.maybe_nan or p_fact.can_inf or z_fact.maybe_nan \
            or z_fact.can_inf or z_fact.lo is None:
        return ()
    smallest = p_fact.min_magnitude()
    if smallest.is_zero or 4 * z_fact.max_magnitude().to_fraction() \
            >= Fraction(2) ** smallest.significand_value()[1]:
        return ()
    fmt = analysis.config.fmt
    p = fmt.precision
    # the addend enters the sum negated in x*y - z and z - x*y
    addend_sign = -1 if node.op is BinOp.SUB else 1
    widths = sorted(range(2, p), key=lambda a: (abs(2 * a - p - 1), a))
    out: list[tuple[tuple[str, int], ...]] = []
    for (xs, xe, xlo, xhi), (ys, ye, ylo, yhi) in itertools.product(
            _significand_spans(analysis.fact(x).value),
            _significand_spans(analysis.fact(y).value)):
        for a in widths:
            ox = _odd_between(-(-xlo >> (p - a)), xhi >> (p - a))
            for b in (p + 1 - a, p + 2 - a):
                if ox is None or not 2 <= b <= p:
                    continue
                oy = _odd_between(
                    max(-(-ylo >> (p - b)), -(-(1 << p) // ox)),
                    min(yhi >> (p - b), ((2 << p) - 1) // ox))
                half_ulp = xe + p - a + ye + p - b
                if oy is None or not fmt.emin <= half_ulp + p < fmt.emax:
                    continue
                tie = ox * oy
                # RNE keeps the even neighbour: the lower one when the
                # kept significand is even, else the upper; z must push
                # the exact sum toward the other
                toward = 1 if (tie >> 1) % 2 == 0 else -1
                sign = (-1) ** (xs ^ ys) * toward * addend_sign
                z = _tie_breaker(addend, z_fact, sign, half_ulp, fmt)
                if z is None:
                    continue
                binding = [
                    (x.name, fmt.pack(xs, xe + p - 1 + fmt.bias,
                                      (ox << (p - a)) & fmt.sig_mask)),
                    (y.name, fmt.pack(ys, ye + p - 1 + fmt.bias,
                                      (oy << (p - b)) & fmt.sig_mask)),
                ]
                if isinstance(addend, Var):
                    binding.append((addend.name, z.bits))
                if all(base[name].contains(bits) for name, bits in binding):
                    out.append(tuple(binding))
                    if len(out) >= limit:
                        return tuple(out)
    return tuple(out)


def _significand_spans(value: AbstractValue) -> list[tuple[int, int, int, int]]:
    """``(sign, exp2, lo, hi)``: the normal members of ``value`` are
    ``±m * 2^exp2`` for ``p``-bit integers ``lo <= m <= hi``; for each
    sign, the spans of its lowest, middle and highest binades."""
    fmt = value.fmt
    top = (1 << fmt.precision) - 1
    spans = []
    if value.lo is None:
        return spans
    for sign in (0, 1):
        lo, hi = value.lo, value.hi
        if sign:
            lo, hi = -hi, -lo
        if not _lt(SoftFloat.zero(fmt), hi):
            continue
        lo = _max_sf([lo, SoftFloat.min_normal(fmt)])
        hi = _min_sf([hi, SoftFloat.max_finite(fmt)])
        if _lt(hi, lo):
            continue
        lo_mant, lo_exp = lo.significand_value()
        hi_mant, hi_exp = hi.significand_value()
        for exp2 in sorted({lo_exp, (lo_exp + hi_exp) // 2, hi_exp}):
            spans.append((sign, exp2,
                          lo_mant if exp2 == lo_exp else top // 2 + 1,
                          hi_mant if exp2 == hi_exp else top))
    return spans


def _odd_between(lo: int, hi: int) -> int | None:
    """An odd integer in ``[lo, hi]`` near its middle, or None."""
    middle = (lo + hi) // 2 | 1
    if middle > hi:
        middle -= 2
    return middle if middle >= lo else None


def _tie_breaker(
    addend: Expr, value: AbstractValue, sign: int, half_ulp: int,
    fmt: FloatFormat,
) -> SoftFloat | None:
    """An admitted addend of ``sign`` below the tie's half-ulp
    ``2^half_ulp`` in magnitude (a quarter ulp when the range allows),
    or None."""
    if isinstance(addend, Const):
        z = value.lo
        return z if not z.is_zero and (-1) ** z.sign == sign \
            and z.to_fraction() * sign < Fraction(2) ** half_ulp else None
    lo, hi = value.lo.to_fraction(), value.hi.to_fraction()
    if sign < 0:
        lo, hi = -hi, -lo
    target = min(max(Fraction(2) ** (half_ulp - 1), lo), hi)
    if target <= 0 or target >= Fraction(2) ** half_ulp:
        return None
    z = SoftFloat.from_fraction(sign * target, fmt)
    return z if value.admits(z) and not z.is_zero else None


def _invalid_preconditions(
    analysis: Analysis, node: Expr, fmt: FloatFormat
) -> dict[str, AbstractValue]:
    """Steer toward the operand combination that makes ``node`` raise
    INVALID (0×inf, 0/0, inf−inf, sqrt of negative)."""
    from repro.optsim.ast import FMA, Unary, UnOp

    fact = analysis.fact(node)
    zero = _zero_band(fmt)
    inf_pos = AbstractValue.from_range(
        SoftFloat.max_finite(fmt), SoftFloat.inf(fmt, 0)
    )
    inf_neg = _transfer_neg(inf_pos).value
    out: dict[str, AbstractValue] = {}

    def merge(refined: Mapping[str, AbstractValue]) -> None:
        for name, value in refined.items():
            prev = out.get(name)
            if prev is None:
                out[name] = value
            else:
                both = prev.meet(value)
                if both is not None:
                    out[name] = both

    if isinstance(node, Unary) and node.op is UnOp.SQRT:
        operand = analysis.fact(node.operand).value
        if operand.lo is not None and operand.can_neg:
            band = AbstractValue.from_range(
                SoftFloat.inf(fmt, 1), -SoftFloat.min_subnormal(fmt)
            )
            merge(refine_toward(analysis, node.operand, band))
    elif isinstance(node, Binary) and node.op is BinOp.DIV:
        merge(refine_toward(analysis, node.left, zero))
        merge(refine_toward(analysis, node.right, zero))
    elif isinstance(node, Binary) and node.op is BinOp.MUL:
        left = analysis.fact(node.left).value
        right = analysis.fact(node.right).value
        if left.can_zero or _spans_zero(left):
            merge(refine_toward(analysis, node.left, zero))
            band = inf_pos if right.can_pinf else inf_neg
            merge(refine_toward(analysis, node.right, band))
        elif right.can_zero or _spans_zero(right):
            merge(refine_toward(analysis, node.right, zero))
            band = inf_pos if left.can_pinf else inf_neg
            merge(refine_toward(analysis, node.left, band))
    elif isinstance(node, Binary) and node.op in (BinOp.ADD, BinOp.SUB):
        left = analysis.fact(node.left).value
        merge(refine_toward(
            analysis, node.left, inf_pos if left.can_pinf else inf_neg
        ))
        want = inf_neg if left.can_pinf else inf_pos
        if node.op is BinOp.SUB:
            want = _transfer_neg(want).value
        merge(refine_toward(analysis, node.right, want))
    elif isinstance(node, FMA):
        a = analysis.fact(node.a).value
        if a.can_zero or _spans_zero(a):
            merge(refine_toward(analysis, node.a, zero))
    return out
