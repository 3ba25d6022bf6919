"""Abstract interpretation of optsim expressions.

:func:`analyze` runs the three cooperating domains of
:mod:`repro.staticfp` over an expression in one memoized pass:

- the interval domain (:class:`repro.staticfp.domain.AbstractValue`)
  bounds each node's value set with directed-rounding probes;
- the exception-reachability domain collects, per node and for the
  whole expression, which sticky flags *may* and *must* be raised;
- the condition-number domain annotates additive nodes with
  catastrophic-cancellation and absorption possibilities.

Traversal uses :func:`repro.optsim.ast.walk_unique`, so a subtree
shared between several parents (a DAG produced by the rewrite passes)
is analyzed — and later diagnosed — exactly once.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from fractions import Fraction

from repro.errors import OptimizationError
from repro.fpenv.flags import FPFlag, flag_names
from repro.optsim.ast import (
    FMA,
    Binary,
    BinOp,
    Const,
    Expr,
    Unary,
    UnOp,
    Var,
    walk_unique,
)
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import SoftFloat, sf
from repro.softfloat.formats import FloatFormat
from repro.staticfp.domain import (
    AbstractValue,
    AnalysisContext,
    TransferResult,
    transfer,
    transfer_literal,
)
from repro.telemetry import get_telemetry

__all__ = [
    "Analysis",
    "NodeFact",
    "CancellationInfo",
    "AbsorptionInfo",
    "analyze",
    "as_abstract",
    "extend_analysis",
    "reuse_analysis",
]

_BINOP_NAMES = {
    BinOp.ADD: "add",
    BinOp.SUB: "sub",
    BinOp.MUL: "mul",
    BinOp.DIV: "div",
    BinOp.REM: "rem",
    BinOp.MIN: "min",
    BinOp.MAX: "max",
}
_UNOP_NAMES = {UnOp.NEG: "neg", UnOp.ABS: "abs", UnOp.SQRT: "sqrt"}


@dataclasses.dataclass(frozen=True)
class CancellationInfo:
    """Subtractive-cancellation verdict for an additive node."""

    possible: bool
    bits_lost: int  # worst-case significant bits lost (<= precision)
    precision: int  # the format's significand width, for the threshold

    @property
    def catastrophic(self) -> bool:
        """At least half the significand can vanish."""
        return self.possible and 2 * self.bits_lost >= self.precision


@dataclasses.dataclass(frozen=True)
class AbsorptionInfo:
    """Can one addend be entirely absorbed by the other (``x + y == x``
    with ``y`` nonzero)?"""

    left_absorbs_right: bool
    right_absorbs_left: bool

    @property
    def possible(self) -> bool:
        return self.left_absorbs_right or self.right_absorbs_left


@dataclasses.dataclass(frozen=True)
class NodeFact:
    """Everything the domains concluded about one IR node."""

    node: Expr
    op: str  # "const", "var", or a transfer-function name
    value: AbstractValue
    may_flags: FPFlag
    must_flags: FPFlag
    cancellation: CancellationInfo | None = None
    absorption: AbsorptionInfo | None = None


@dataclasses.dataclass(frozen=True)
class Analysis:
    """The result of abstractly interpreting one expression."""

    expr: Expr
    config: MachineConfig
    context: AnalysisContext
    order: tuple[Expr, ...]  # unique nodes, pre-order
    _facts: dict[int, NodeFact]
    bindings: Mapping[str, AbstractValue]
    assume_nan_inputs: bool = False

    def fact(self, node: Expr) -> NodeFact:
        """The fact computed for a node object of this expression."""
        return self._facts[id(node)]

    @property
    def root(self) -> NodeFact:
        return self._facts[id(self.expr)]

    @property
    def may_flags(self) -> FPFlag:
        """Flags the whole evaluation may leave set (sticky union)."""
        out = FPFlag.NONE
        for node in self.order:
            out |= self._facts[id(node)].may_flags
        return out

    @property
    def must_flags(self) -> FPFlag:
        """Flags every admitted evaluation is guaranteed to raise."""
        out = FPFlag.NONE
        for node in self.order:
            out |= self._facts[id(node)].must_flags
        return out

    def describe(self) -> str:
        """Multi-line per-node report (pre-order)."""
        lines = [
            f"analysis of '{self.expr}' under {self.config.name}"
            f" ({self.config.fmt.name})"
        ]
        for node in self.order:
            fact = self._facts[id(node)]
            flags = ",".join(flag_names(fact.may_flags)) or "none"
            must = ",".join(flag_names(fact.must_flags))
            line = f"  {node!s}: {fact.value.describe()}  may[{flags}]"
            if must:
                line += f" must[{must}]"
            if fact.cancellation and fact.cancellation.catastrophic:
                line += f" cancel[{fact.cancellation.bits_lost}b]"
            if fact.absorption and fact.absorption.possible:
                line += " absorb"
            lines.append(line)
        may = ",".join(flag_names(self.may_flags)) or "none"
        must = ",".join(flag_names(self.must_flags)) or "none"
        lines.append(f"  overall: may[{may}] must[{must}]")
        return "\n".join(lines)


def as_abstract(value: object, fmt: FloatFormat) -> AbstractValue:
    """Coerce a binding into an :class:`AbstractValue` in ``fmt``.

    Accepts an AbstractValue, an :class:`~repro.interval.Interval`, a
    ``(lo, hi)`` pair, or any single value :func:`repro.softfloat.sf`
    accepts (a point).
    """
    if isinstance(value, AbstractValue):
        if value.fmt != fmt:
            raise OptimizationError(
                f"binding format {value.fmt.name} != analysis {fmt.name}"
            )
        return value
    from repro.interval import Interval

    if isinstance(value, Interval):
        return AbstractValue.from_range(sf(value.lo, fmt), sf(value.hi, fmt))
    if isinstance(value, tuple):
        lo, hi = value
        return AbstractValue.from_range(sf(lo, fmt), sf(hi, fmt))
    return AbstractValue.point(sf(value, fmt))


def analyze(
    expr: Expr,
    bindings: Mapping[str, object] | None = None,
    config: MachineConfig = STRICT,
    *,
    assume_nan_inputs: bool = False,
) -> Analysis:
    """Abstractly interpret ``expr`` under ``config``.

    Unbound variables default to "any real of the format": the full
    finite range plus both infinities and both signed zeros, but *no*
    NaN (set ``assume_nan_inputs`` to include NaN inputs) — so a
    NaN-possible verdict on the default bindings always points at the
    node that *introduces* NaN, not at a NaN that was fed in.
    """
    telemetry = get_telemetry()
    ctx = AnalysisContext.from_config(config)
    abstract_bindings = {
        name: as_abstract(value, ctx.fmt)
        for name, value in (bindings or {}).items()
    }
    with telemetry.tracer.span(
        "staticfp.analyze", expr=str(expr), config=config.name
    ) as span:
        analysis = _run(expr, abstract_bindings, config, ctx,
                        assume_nan_inputs)
        span.set("nodes", len(analysis.order))
        telemetry.metrics.counter(
            "staticfp.nodes_analyzed_total", config=config.name
        ).inc(len(analysis.order))
        return analysis


def reuse_analysis(
    analysis: Analysis | None,
    expr: Expr,
    bindings: Mapping[str, object] | None,
    config: MachineConfig,
) -> Analysis:
    """``analysis`` if it was computed for this very tree object under a
    config with ``config``'s analysis context, else :func:`analyze`.

    Facts are keyed on node identity, so never reuse by tree equality;
    the caller vouches for ``bindings``.  The facts depend on a config
    only through its :class:`AnalysisContext` (format, rounding, FTZ,
    DAZ), so an analysis under ``-O3`` serves a strict question too; it
    keeps naming the config it was computed under.
    """
    if analysis is not None and analysis.expr is expr \
            and analysis.context == AnalysisContext.from_config(config):
        return analysis
    return analyze(expr, bindings, config)


def extend_analysis(analysis: Analysis, expr: Expr) -> Analysis:
    """The analysis of ``expr`` (a rewrite of ``analysis.expr``) under
    the same config, bindings and NaN assumption.

    A node's fact depends only on its subtree, and the rewrite passes
    keep every untouched subtree object, so the facts of nodes
    ``analysis`` has already seen are reused by identity and only the
    nodes the rewrite built are transferred: the result equals
    :func:`analyze` of ``expr``, at the cost of the new nodes alone.
    """
    if expr is analysis.expr:
        return analysis
    return _run(expr, analysis.bindings, analysis.config, analysis.context,
                analysis.assume_nan_inputs, dict(analysis._facts))


def _run(
    expr: Expr,
    bindings: Mapping[str, AbstractValue],
    config: MachineConfig,
    ctx: AnalysisContext,
    assume_nan_inputs: bool,
    facts: dict[int, NodeFact] | None = None,
) -> Analysis:
    default = AbstractValue.top(ctx.fmt, nan=assume_nan_inputs)
    facts = {} if facts is None else facts

    def visit(node: Expr) -> NodeFact:
        known = facts.get(id(node))
        if known is not None:
            return known
        cancellation = None
        absorption = None
        if isinstance(node, Const):
            op = "const"
            result = transfer_literal(node.literal, ctx.fmt)
        elif isinstance(node, Var):
            op = "var"
            value = bindings.get(node.name, default)
            result = TransferResult(value, FPFlag.NONE, FPFlag.NONE)
        elif isinstance(node, Unary):
            op = _UNOP_NAMES[node.op]
            operand = visit(node.operand).value
            result = transfer(op, (operand,), ctx)
        elif isinstance(node, Binary):
            op = _BINOP_NAMES[node.op]
            left = visit(node.left).value
            right = visit(node.right).value
            result = transfer(op, (left, right), ctx)
            if node.op in (BinOp.ADD, BinOp.SUB):
                cancellation = _cancellation_info(
                    left, right, subtract=node.op is BinOp.SUB
                )
                absorption = _absorption_info(left, right, ctx.fmt)
        elif isinstance(node, FMA):
            op = "fma"
            a = visit(node.a).value
            b = visit(node.b).value
            c = visit(node.c).value
            result = transfer(op, (a, b, c), ctx)
        else:  # pragma: no cover - exhaustive over the IR
            raise OptimizationError(
                f"cannot analyze node {type(node).__name__}"
            )
        fact = NodeFact(
            node=node,
            op=op,
            value=result.value,
            may_flags=result.may,
            must_flags=result.must,
            cancellation=cancellation,
            absorption=absorption,
        )
        facts[id(node)] = fact
        return fact

    visit(expr)
    order = tuple(walk_unique(expr))
    return Analysis(
        expr=expr,
        config=config,
        context=ctx,
        order=order,
        _facts=facts,
        bindings=bindings,
        assume_nan_inputs=assume_nan_inputs,
    )


# ----------------------------------------------------------------------
# Condition-number / cancellation domain
# ----------------------------------------------------------------------
def _finite_fraction(x: SoftFloat) -> Fraction | None:
    if x.is_inf or x.is_nan:
        return None
    return x.to_fraction()


def _cancellation_info(
    left: AbstractValue, right: AbstractValue, *, subtract: bool
) -> CancellationInfo:
    """Worst-case significant-bit loss for ``left ± right``.

    Cancellation needs effectively-opposite addends: when the value
    sets overlap (after negating the addend for subtraction), the
    difference can be arbitrarily small next to the operands and the
    full precision is lost; when they are separated by a gap, the loss
    is bounded by ``log2(magnitude / gap)``.
    """
    fmt = left.fmt
    neg_right = right if subtract else _negate(right)
    if left.lo is None or neg_right.lo is None:
        return CancellationInfo(False, 0, fmt.precision)
    if _overlaps_nonzero_finite(left, neg_right):
        return CancellationInfo(True, fmt.precision, fmt.precision)
    lo_l, hi_l = _finite_fraction(left.lo), _finite_fraction(left.hi)
    lo_r, hi_r = _finite_fraction(neg_right.lo), _finite_fraction(neg_right.hi)
    if None in (lo_l, hi_l, lo_r, hi_r):
        return CancellationInfo(False, 0, fmt.precision)
    # Disjoint ranges: loss peaks where the intervals come closest
    # (moving either operand away from the gap grows the difference as
    # fast as the magnitude), so compare the gap against the magnitude
    # at the near edges, not the intervals' global extremes.
    if hi_l < lo_r:
        gap = lo_r - hi_l
        magnitude = max(abs(hi_l), abs(lo_r))
    elif hi_r < lo_l:
        gap = lo_l - hi_r
        magnitude = max(abs(lo_l), abs(hi_r))
    else:
        return CancellationInfo(True, fmt.precision, fmt.precision)
    if magnitude == 0:
        return CancellationInfo(False, 0, fmt.precision)
    ratio = magnitude / gap
    bits = 0
    while ratio >= 2 and bits < fmt.precision:
        ratio /= 2
        bits += 1
    return CancellationInfo(bits > 0, bits, fmt.precision)


def _negate(v: AbstractValue) -> AbstractValue:
    from repro.staticfp.domain import _transfer_neg

    return _transfer_neg(v).value


def _overlaps_nonzero_finite(a: AbstractValue, b: AbstractValue) -> bool:
    from repro.staticfp.domain import _cancellation_possible

    return _cancellation_possible(a, _negate(b))


def _absorption_info(
    left: AbstractValue, right: AbstractValue, fmt: FloatFormat
) -> AbsorptionInfo:
    return AbsorptionInfo(
        left_absorbs_right=_can_absorb(left, right, fmt),
        right_absorbs_left=_can_absorb(right, left, fmt),
    )


def _can_absorb(
    big: AbstractValue, small: AbstractValue, fmt: FloatFormat
) -> bool:
    """Can some nonzero ``small`` member vanish entirely when added to
    some ``big`` member (``big + small == big``)?"""
    if not small.can_nonzero_finite:
        return False
    if big.can_inf:
        return True  # inf + x == inf for any finite x
    if big.lo is None:
        return False
    big_mag = _finite_fraction(big.max_magnitude())
    small_mag = _finite_fraction(small.min_nonzero_magnitude())
    if big_mag is None or small_mag is None or small_mag == 0:
        return False
    # |small| < ulp(|big|)/2 guarantees round-to-nearest absorbs it;
    # ratio >= 2^(p+1) is a sufficient (format-exact) condition.
    return big_mag >= small_mag * (1 << (fmt.precision + 1))
