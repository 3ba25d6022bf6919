"""Static pass-safety prediction.

For a given expression, machine configuration, and (optional) variable
ranges, classify every optsim pass application as value-preserving or
possibly-value-changing *without running a divergence search* — then
let the differential tests hold the verdicts against
:func:`repro.optsim.compliance.find_divergence`.

The contract is one-directional by design: a ``value_safe`` verdict is
a *proof sketch* (dynamic search must find no value divergence), while
"possibly-value-changing" is an admission of ignorance, not a
guarantee of divergence.  The same split applies to ``flags_safe`` for
the sticky-flag footprint, which rewrites can change even when values
are identical (folding ``0.1 + 0.2`` erases its INEXACT).

A value-preserving rewrite's flag verdict follows the rewrite, not the
whole tree.  Each site where the rewritten tree differs from the old
one is judged on the bound ranges, with the per-node facts of the
shared :class:`~repro.staticfp.analyze.Analysis` (extended to the nodes
each rewrite builds, never re-analyzed), by the first rule that
applies:

- ``table``: rewrites that raise the same flags as what they replace,
  in every rounding mode and FTZ/DAZ setting — ``x/2^k -> x*2^-k``
  with both constants normal, ``-(-x) -> x``, ``abs(abs(x)) ->
  abs(x)``, and folding the negation or ``abs`` of a literal that is
  not a signaling NaN;
- ``conditional``: ``x*1``, ``1*x`` and ``x/1 -> x`` are flag-identical
  only when ``x`` can be neither subnormal (the multiply raises
  DENORMAL_RESULT) nor NaN (a signaling one raises INVALID);
- ``removed``: otherwise the operations the rewrite removes and the
  ones it puts in their place must all be unable to raise any flag
  (under DAZ, nor read an operand that may be subnormal: the facts
  read it as zero, strict evaluation does not), and neither side may
  deliver a signaling NaN (the value contract counts every NaN as one
  value, but a signaling one raises INVALID where it is consumed);
- anything else is ``unsafe``.

Under the analyzer's contract (must ⊆ concrete ⊆ may) a site judged
safe leaves the sticky union unchanged; folding ``0.1 + 0.2`` still
removes an addition that may be inexact, and stays unsafe.  With
telemetry on, each site's rule is counted as
``staticfp.pass_flags_rule{pass, rule}``.

A value-changing rewrite is value-safe at a point binding when both
trees evaluate to the same value there (``point``).  On ranges, each
site where contraction or reassociation changed the tree is judged on
the same shared facts, under round-to-nearest-even only (the other
modes are refused by the environment verdict anyway), by the first
rule that applies; each rule settles the site's value *and* flags:

- ``absorbed``: ``x*y ± z -> fma(x, y, ±z)`` where ``|x*y|``, rounded
  up, is below a quarter ulp of ``|z|``'s smallest value, and the
  product raises at most INEXACT.  Both forms deliver ``z`` and both
  are inexact exactly when the product is nonzero.  A quarter, not a
  half: when the signs can differ, ``z`` may sit on a binade edge,
  where the spacing below it is half its ulp.  The converse — a product
  that absorbs the addend — is *not* safe: a product on a rounding tie
  is resolved one way by its own rounding and the other way by the
  addend (``regions`` builds such ties as witnesses);
- ``overflow``: the smallest exact ``|x*y|`` minus the largest ``|z|``
  is at or above the RNE overflow threshold (``max_finite`` plus half
  its ulp), so both forms give the same ``±inf`` with OVERFLOW|INEXACT;
- ``infinite-addend``: ``z`` is surely infinite (its ends are one
  infinity, or it surely overflows under RNE) and the rounded product
  is surely finite, so both forms give ``z``; the product's may-flags
  must be among the flags ``z``'s own evaluation surely raises;
- ``dominant-leaf``: reassociation only re-brackets a ``+`` chain (no
  negated pair dropped), and the other leaves, all of one sign and
  none zero, sum (with every rounding bounded) to less than a quarter
  ulp of the dominant leaf's smallest value: every bracketing delivers
  the dominant leaf, each addition into it is inexact, and the sums of
  the small leaves may raise at most INEXACT;
- anything else is ``unsafe``.

Under FTZ or DAZ a rule also needs every node of the site unable to
produce or read a subnormal, so strict and configured evaluation of
the site agree.  With telemetry on, each site's rule is counted as
``staticfp.pass_value_rule{pass, rule}``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping
from fractions import Fraction

from repro.fpenv.flags import FPFlag
from repro.optsim.ast import (
    FMA,
    Binary,
    BinOp,
    Const,
    Expr,
    Unary,
    UnOp,
    walk_unique,
)
from repro.optsim.compliance import _same_value
from repro.optsim.evaluator import evaluate
from repro.optsim.machine import STRICT, MachineConfig
from repro.optsim.passes.fastmath import (
    _exact_power_of_two_reciprocal,
    _is_const,
)
from repro.optsim.pipeline import _MAX_ITERATIONS, enabled_passes
from repro.softfloat import SoftFloat
from repro.softfloat.formats import FloatFormat
from repro.staticfp.analyze import Analysis, extend_analysis, reuse_analysis
from repro.telemetry import get_telemetry

__all__ = [
    "PassVerdict",
    "SafetyReport",
    "predict_pass_safety",
]


#: The reason of a verdict a value rule decided
_RANGE_PROOF = "rounds identically on the bound ranges"


@dataclasses.dataclass(frozen=True)
class PassVerdict:
    """Static classification of one pass (merged over pipeline
    iterations)."""

    pass_name: str
    applied: bool
    value_safe: bool
    flags_safe: bool
    reason: str
    before: Expr
    after: Expr

    @property
    def proved_on_ranges(self) -> bool:
        """A value-changing rewrite that a value rule proved to round
        identically on the bound ranges."""
        return self.applied and self.reason.startswith(_RANGE_PROOF)

    def describe(self) -> str:
        if not self.applied:
            return f"{self.pass_name}: not applied"
        value = "value-preserving" if self.value_safe \
            else "possibly-value-changing"
        flags = "" if self.flags_safe else ", may change sticky flags"
        return (
            f"{self.pass_name}: '{self.before}' -> '{self.after}'"
            f" [{value}{flags}] ({self.reason})"
        )


@dataclasses.dataclass(frozen=True)
class SafetyReport:
    """All pass verdicts plus the environment verdict for one
    expression/config pair."""

    expr: Expr
    compiled: Expr
    config: MachineConfig
    verdicts: tuple[PassVerdict, ...]
    env_value_safe: bool
    env_flags_safe: bool
    env_reason: str
    analysis: Analysis
    #: Attached by the witness engine (see
    #: :func:`repro.staticfp.witness.find_witness` and
    #: :meth:`with_witness`): the dynamic follow-up to this static
    #: verdict — a verified counterexample, an exhaustive-sweep proof,
    #: or an unresolved search, with localization and flag-flow
    #: coverage inside.
    witness_report: object | None = None

    @property
    def value_safe(self) -> bool:
        """Statically proven: the configured evaluation of the compiled
        form equals strict IEEE evaluation of the source, bit for bit,
        on every admitted binding."""
        return self.env_value_safe and all(v.value_safe for v in self.verdicts)

    @property
    def flags_safe(self) -> bool:
        """As ``value_safe``, but for the sticky-flag footprint too."""
        return (
            self.value_safe
            and self.env_flags_safe
            and all(v.flags_safe for v in self.verdicts)
        )

    @property
    def applied(self) -> tuple[PassVerdict, ...]:
        return tuple(v for v in self.verdicts if v.applied)

    @property
    def value_changing_applied(self) -> tuple[PassVerdict, ...]:
        return tuple(
            v for v in self.verdicts if v.applied and not v.value_safe
        )

    def describe(self) -> str:
        lines = [
            f"pass safety for '{self.expr}' under {self.config.name}:"
            f" compiled to '{self.compiled}'"
        ]
        for verdict in self.verdicts:
            lines.append(f"  {verdict.describe()}")
        env = "bit-identical to strict IEEE" if self.env_value_safe \
            else f"may diverge ({self.env_reason})"
        lines.append(f"  environment: {env}")
        overall = "value-preserving" if self.value_safe \
            else "possibly-value-changing"
        lines.append(f"  overall: {overall}")
        if self.witness_report is not None:
            for line in self.witness_report.describe().splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    def with_witness(self, witness_report) -> "SafetyReport":
        """A copy carrying the witness engine's dynamic follow-up."""
        return dataclasses.replace(self, witness_report=witness_report)


def predict_pass_safety(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    analysis: Analysis | None = None,
) -> SafetyReport:
    """Statically classify every licensed pass application on ``expr``.

    Replays the pipeline's fixed-point loop pass by pass, classifying
    each application; verdicts for a pass that fired in several
    iterations are merged conservatively (any unsafe application makes
    the pass unsafe).  ``analysis`` (of ``expr`` under ``config``, on
    ``bindings``) is analyzed here when not given, and extended to
    each rewritten tree: the compiled form's analysis is the last
    extension, so an unrewritten tree keeps ``analysis`` itself.
    """
    telemetry = get_telemetry()
    metrics = telemetry.metrics if telemetry.enabled else None
    active = enabled_passes(config)
    merged: dict[str, PassVerdict] = {
        p.name: PassVerdict(
            pass_name=p.name, applied=False, value_safe=True,
            flags_safe=True, reason="not applied", before=expr, after=expr,
        )
        for p in active
    }
    point_bindings = _as_point_bindings(expr, config, bindings)
    analysis = source = reuse_analysis(analysis, expr, bindings, config)
    current = expr
    for _ in range(_MAX_ITERATIONS):
        previous = current
        for pass_ in active:
            rewritten = pass_.apply(current, config)
            if rewritten != current:
                extended = extend_analysis(analysis, rewritten)
                verdict = _classify(
                    pass_, current, rewritten, config, point_bindings,
                    analysis, extended, metrics,
                )
                merged[pass_.name] = _merge(merged[pass_.name], verdict)
                current, analysis = rewritten, extended
        if current == previous:
            break
    env_value, env_flags, env_reason = _env_verdict(source, analysis, config)
    return SafetyReport(
        expr=expr,
        compiled=current,
        config=config,
        verdicts=tuple(merged[p.name] for p in active),
        env_value_safe=env_value,
        env_flags_safe=env_flags,
        env_reason=env_reason,
        analysis=analysis,
    )


def _merge(old: PassVerdict, new: PassVerdict) -> PassVerdict:
    if not old.applied:
        return new
    return PassVerdict(
        pass_name=old.pass_name,
        applied=True,
        value_safe=old.value_safe and new.value_safe,
        flags_safe=old.flags_safe and new.flags_safe,
        reason=old.reason if not old.value_safe else new.reason,
        before=old.before,
        after=new.after,
    )


def _as_point_bindings(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None,
) -> dict[str, SoftFloat] | None:
    """Concrete bindings when every variable is pinned to one non-NaN
    value (enabling exact per-pass evaluation), else None."""
    from repro.optsim.ast import expr_variables
    from repro.staticfp.analyze import as_abstract

    names = expr_variables(expr)
    if not names:
        return {}
    if bindings is None:
        return None
    out: dict[str, SoftFloat] = {}
    for name in names:
        if name not in bindings:
            return None
        av = as_abstract(bindings[name], config.fmt)
        if not av.is_point:
            return None
        assert av.lo is not None
        value = av.lo
        if value.is_zero:
            value = SoftFloat.zero(config.fmt, 1 if av.neg_zero else 0)
        out[name] = value
    return out


def _classify(
    pass_,
    before: Expr,
    after: Expr,
    config: MachineConfig,
    point_bindings: dict[str, SoftFloat] | None,
    before_facts: Analysis,
    after_facts: Analysis,
    metrics,
) -> PassVerdict:
    """One pass application's verdict.  ``before_facts`` and
    ``after_facts`` analyze the two trees on the bound ranges."""
    strict = STRICT.replace(fmt=config.fmt)
    if pass_.value_preserving:
        # Value-preservation is the pass's contract; flag preservation
        # is not (folding or deleting an operation erases its sticky
        # contribution).  So each site the rewrite replaced must be a
        # flag-identical table entry, a unit factor on an operand that
        # is neither subnormal nor NaN, or remove and add only
        # operations that raise nothing on these ranges (the rules of
        # the module docstring).
        flags_safe = True
        for rule in _site_rules(before, after, config,
                                before_facts, after_facts):
            if metrics is not None:
                metrics.counter("staticfp.pass_flags_rule",
                                rule=rule, **{"pass": pass_.name}).inc()
            flags_safe = flags_safe and rule != "unsafe"
        reason = "value-preserving rewrite"
        if not flags_safe:
            reason += "; removed operations may have raised sticky flags"
        return PassVerdict(
            pass_name=pass_.name, applied=True, value_safe=True,
            flags_safe=flags_safe, reason=reason,
            before=before, after=after,
        )
    if _canonical_subs(before) == _canonical_subs(after):
        return PassVerdict(
            pass_name=pass_.name, applied=True, value_safe=True,
            flags_safe=True,
            reason="a-b == a+(-b) canonicalization only (bit-exact)",
            before=before, after=after,
        )
    if point_bindings is not None:
        lhs = evaluate(before, point_bindings, strict)
        rhs = evaluate(after, point_bindings, strict)
        value_safe = _same_value(lhs.value, rhs.value)
        flags_safe = value_safe and lhs.flags == rhs.flags
        if metrics is not None:
            metrics.counter("staticfp.pass_value_rule",
                            rule="point" if value_safe else "unsafe",
                            **{"pass": pass_.name}).inc()
        reason = (
            "concretely equal at the bound point" if value_safe
            else f"concrete counterexample: {lhs.value!s} vs {rhs.value!s}"
        )
        return PassVerdict(
            pass_name=pass_.name, applied=True, value_safe=value_safe,
            flags_safe=flags_safe, reason=reason,
            before=before, after=after,
        )
    # Each rewritten site must round identically on the bound ranges,
    # value and flags (the value rules of the module docstring)
    rules = list(_value_site_rules(before, after, config, before_facts,
                                   after_facts)) \
        if config.rounding is STRICT.rounding else ["unsafe"]
    if metrics is not None:
        for rule in rules:
            metrics.counter("staticfp.pass_value_rule",
                            rule=rule, **{"pass": pass_.name}).inc()
    if rules and "unsafe" not in rules:
        return PassVerdict(
            pass_name=pass_.name, applied=True, value_safe=True,
            flags_safe=True,
            reason=f"{_RANGE_PROOF} ({', '.join(sorted(set(rules)))})",
            before=before, after=after,
        )
    return PassVerdict(
        pass_name=pass_.name, applied=True, value_safe=False,
        flags_safe=False,
        reason=pass_.description or "rewrite is not value-preserving",
        before=before, after=after,
    )


def _value_site_rules(
    before: Expr,
    after: Expr,
    config: MachineConfig,
    before_facts: Analysis,
    after_facts: Analysis,
) -> Iterator[str]:
    """The value rule of the module docstring that decides each maximal
    site at which ``after`` differs from ``before``: ``"absorbed"``,
    ``"overflow"``, ``"infinite-addend"`` or ``"dominant-leaf"`` when
    the site rounds to the same value with the same flags, else
    ``"unsafe"``.  Operand pairs below a judged site are judged in
    turn."""
    if before is after or before == after:
        return
    contraction = _contraction_site(before, after)
    chain = _rebracketing(before, after, config, before_facts, after_facts)
    if contraction is not None:
        product, addend, pairs = contraction
        yield _contraction_rule(product, addend, config, before_facts) \
            if _abrupt_free(before, before_facts, config) else "unsafe"
    elif chain is not None:
        pairs, rule = chain
        if rule is not None:
            yield rule
    elif before.children() and type(before) is type(after) \
            and getattr(before, "op", None) == getattr(after, "op", None):
        pairs = list(zip(before.children(), after.children()))
    else:
        yield "unsafe"
        return
    for pair in pairs:
        yield from _value_site_rules(*pair, config, before_facts,
                                     after_facts)


def _contraction_site(
    before: Expr, after: Expr
) -> tuple[Binary, Expr, list[tuple[Expr, Expr]]] | None:
    """When ``after`` contracts ``before`` (``x*y ± z``, either operand
    order, as the contraction pass builds it): the product node, the
    addend, and the operand pairs still to be judged; else None."""
    if not isinstance(after, FMA) or not isinstance(before, Binary) \
            or before.op not in (BinOp.ADD, BinOp.SUB):
        return None
    subtract = before.op is BinOp.SUB
    for product, addend, left in ((before.left, before.right, True),
                                  (before.right, before.left, False)):
        if not (isinstance(product, Binary) and product.op is BinOp.MUL):
            continue
        # a*b - c -> fma(a, b, -c) and c - a*b -> fma(-a, b, c)
        a, c = after.a, after.c
        negated = c if left else a
        if subtract:
            if not (isinstance(negated, Unary) and negated.op is UnOp.NEG):
                return None
            a, c = (a, c.operand) if left else (a.operand, c)
        return product, addend, [(product.left, a), (product.right, after.b),
                                 (addend, c)]
    return None


def _contraction_rule(
    product: Binary, addend: Expr, config: MachineConfig, facts: Analysis
) -> str:
    """``absorbed``, ``overflow`` or ``infinite-addend`` when ``product
    ± addend`` rounds like its fused form on the facts' ranges, value
    and flags, else ``unsafe``."""
    fact = facts.fact(product)
    p = fact.value
    z = facts.fact(addend).value
    if p.maybe_nan or z.maybe_nan:
        return "unsafe"
    if _surely_infinite(addend, facts):
        # finite + inf and fma(x, y, inf) are exactly inf and raise
        # nothing; the product's own flags must be raised regardless
        must = FPFlag.NONE
        for node in walk_unique(addend):
            must |= facts.fact(node).must_flags
        quiet = fact.may_flags & ~must == FPFlag.NONE
        return "infinite-addend" if quiet and not p.can_inf else "unsafe"
    if z.lo is None or z.can_inf:
        return "unsafe"
    smallest = z.min_magnitude()
    if not p.can_inf and not smallest.is_zero \
            and fact.may_flags & ~FPFlag.INEXACT == FPFlag.NONE \
            and p.max_magnitude().to_fraction() < _ulp(smallest) / 4:
        return "absorbed"
    x = facts.fact(product.left).value
    y = facts.fact(product.right).value
    if any(v.maybe_nan or v.can_inf or v.lo is None for v in (x, y)):
        return "unsafe"
    least = x.min_magnitude().to_fraction() * y.min_magnitude().to_fraction()
    if least - z.max_magnitude().to_fraction() \
            >= _overflow_threshold(config.fmt):
        return "overflow"
    return "unsafe"


def _surely_infinite(node: Expr, facts: Analysis) -> bool:
    """Is every admitted value of ``node`` an infinity (under RNE,
    where an overflow always delivers one)?"""
    fact = facts.fact(node)
    value = fact.value
    if value.maybe_nan or value.can_zero or value.lo is None:
        return False
    if value.lo.is_inf and value.lo.same_bits(value.hi):
        return True
    if fact.op in ("neg", "abs"):
        return _surely_infinite(node.operand, facts)
    return bool(fact.must_flags & FPFlag.OVERFLOW)


def _rebracketing(
    before: Expr,
    after: Expr,
    config: MachineConfig,
    before_facts: Analysis,
    after_facts: Analysis,
) -> tuple[list[tuple[Expr, Expr]], str | None] | None:
    """When ``after`` only re-brackets the ``+``/``-`` chain at
    ``before`` (every leaf kept, in order, subtracted ones negated):
    the leaf pairs still to be judged, and the ``dominant-leaf`` rule's
    verdict when the bracketing changed (None when it did not).  None
    when the rewrite is not a re-bracketing."""
    if not (isinstance(after, Binary) and after.op is BinOp.ADD
            and isinstance(before, Binary)
            and before.op in (BinOp.ADD, BinOp.SUB)):
        return None
    leaves: list[tuple[Expr, bool]] = []
    sums: list[tuple[Expr, int, int]] = []
    shape = _sum_chain(before, leaves, sums, source=True)
    new_leaves: list[tuple[Expr, bool]] = []
    new_sums: list[tuple[Expr, int, int]] = []
    new_shape = _sum_chain(after, new_leaves, new_sums, source=False)
    if len(leaves) != len(new_leaves):
        return None  # negated pairs were dropped
    pairs = []
    for (leaf, negated), (new, _) in zip(leaves, new_leaves):
        if negated:
            if not (isinstance(new, Unary) and new.op is UnOp.NEG):
                return None
            new = new.operand
        pairs.append((leaf, new))
    if shape == new_shape:
        return pairs, None
    safe = _abrupt_free(before, before_facts, config) and _dominant_leaf(
        leaves, sums, new_sums, config, before_facts, after_facts)
    return pairs, "dominant-leaf" if safe else "unsafe"


def _sum_chain(
    expr: Expr,
    leaves: list[tuple[Expr, bool]],
    sums: list[tuple[Expr, int, int]],
    *,
    source: bool,
):
    """Flatten the ``+`` chain at ``expr`` (with ``source``, ``a - b``
    joins it as ``a + (-b)``): appends ``(leaf, negated)`` per leaf in
    order and ``(node, first, end)`` per addition, the leaf indices it
    sums; returns the bracketing as nested pairs of leaf indices."""
    op = expr.op if isinstance(expr, Binary) else None
    if op is BinOp.ADD or source and op is BinOp.SUB:
        first = len(leaves)
        left = _sum_chain(expr.left, leaves, sums, source=source)
        if op is BinOp.SUB:
            leaves.append((expr.right, True))
            right = len(leaves) - 1
        else:
            right = _sum_chain(expr.right, leaves, sums, source=source)
        sums.append((expr, first, len(leaves)))
        return left, right
    leaves.append((expr, False))
    return len(leaves) - 1


def _dominant_leaf(
    leaves: list[tuple[Expr, bool]],
    sums: list[tuple[Expr, int, int]],
    new_sums: list[tuple[Expr, int, int]],
    config: MachineConfig,
    before_facts: Analysis,
    after_facts: Analysis,
) -> bool:
    """Does one leaf absorb every sum of the others, in any bracketing,
    with the same flags (the ``dominant-leaf`` rule)?"""
    ranges = []
    for leaf, negated in leaves:
        value = before_facts.fact(leaf).value
        if value.maybe_nan or value.can_inf or value.lo is None \
                or value.min_magnitude().is_zero:
            return False  # a leaf that may be zero, inf or NaN
        ranges.append((value, value.lo.is_negative != negated))
    dominant = max(range(len(ranges)),
                   key=lambda i: ranges[i][0].min_magnitude().to_fraction())
    others = [r for i, r in enumerate(ranges) if i != dominant]
    if len({negative for _, negative in others}) != 1:
        return False  # the small leaves could cancel
    # each rounding of a partial sum grows it by at most a factor
    # 1 + 2^-p (a subnormal sum is exact), and a partial sum of k
    # leaves is rounded at most k - 1 times
    growth = (1 + Fraction(1, 1 << config.fmt.precision)) ** (len(others) - 1)
    bound = sum(v.max_magnitude().to_fraction() for v, _ in others) * growth
    if bound >= _ulp(ranges[dominant][0].min_magnitude()) / 4:
        return False
    return all(
        facts.fact(node).may_flags & ~FPFlag.INEXACT == FPFlag.NONE
        for facts, chain in ((before_facts, sums), (after_facts, new_sums))
        for node, first, end in chain
        if not first <= dominant < end
    )


def _abrupt_free(node: Expr, facts: Analysis, config: MachineConfig) -> bool:
    """Under FTZ or DAZ, can no node of ``node``'s tree produce or read
    a subnormal, so strict and configured evaluation agree on it?"""
    if not (config.ftz or config.daz):
        return True
    tiny = FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
    for child in walk_unique(node):
        fact = facts.fact(child)
        if fact.value.can_subnormal or fact.may_flags & tiny:
            return False
    return True


def _ulp(value: SoftFloat) -> Fraction:
    """The unit in the last place of a finite ``value``."""
    return Fraction(2) ** value.significand_value()[1]


def _overflow_threshold(fmt: FloatFormat) -> Fraction:
    """The smallest magnitude RNE rounds to infinity: ``max_finite``
    plus half its ulp."""
    return (2 - Fraction(1, 1 << fmt.precision)) * Fraction(2) ** fmt.emax


def _site_rules(
    before: Expr,
    after: Expr,
    config: MachineConfig,
    before_facts: Analysis,
    after_facts: Analysis,
) -> Iterator[str]:
    """The rule of the module docstring that decides each maximal site
    at which ``after`` differs from ``before`` (every node above a site
    is the same operation in both trees): ``"table"``,
    ``"conditional"`` or ``"removed"`` when the site keeps the sticky
    flags, else ``"unsafe"``."""
    if before is after or before == after:
        return
    operands = _table_operands(before, after, config, before_facts)
    if operands is not None:
        yield "table"
        yield from _site_rules(*operands, config, before_facts, after_facts)
        return
    children = before.children()
    if children and type(before) is type(after) \
            and getattr(before, "op", None) == getattr(after, "op", None):
        for pair in zip(children, after.children()):
            yield from _site_rules(*pair, config, before_facts, after_facts)
        return
    if _drops_unit_factor(before, after):
        value = before_facts.fact(after).value
        yield "unsafe" if value.can_subnormal or value.maybe_nan \
            else "conditional"
        return
    if before_facts.fact(before).value.maybe_snan \
            or after_facts.fact(after).value.maybe_snan:
        yield "unsafe"
        return
    before_nodes = {id(node): node for node in walk_unique(before)}
    after_nodes = {id(node): node for node in walk_unique(after)}
    quiet = all(
        _raises_nothing(node, before_facts, config)
        for key, node in before_nodes.items() if key not in after_nodes
    ) and all(
        _raises_nothing(node, after_facts, config)
        for key, node in after_nodes.items() if key not in before_nodes
    )
    yield "removed" if quiet else "unsafe"


def _raises_nothing(node: Expr, facts: Analysis, config: MachineConfig
                    ) -> bool:
    """Can ``node`` raise no flag on the facts' ranges, under strict
    evaluation too?  The facts follow ``config``; where it has DAZ they
    read a subnormal operand as zero, which strict evaluation does not
    (a flushed *result* shows in the flags already)."""
    fact = facts.fact(node)
    if fact.may_flags != FPFlag.NONE:
        return False
    return not config.daz or fact.op in ("neg", "abs") or not any(
        facts.fact(child).value.can_subnormal for child in node.children()
    )


def _drops_unit_factor(before: Expr, after: Expr) -> bool:
    """Is ``before -> after`` one of ``x*1``, ``1*x``, ``x/1 -> x``?"""
    if not isinstance(before, Binary):
        return False
    if after is before.left:
        return before.op in (BinOp.MUL, BinOp.DIV) \
            and _is_const(before.right, 1)
    return after is before.right and before.op is BinOp.MUL \
        and _is_const(before.left, 1)


def _table_operands(
    before: Expr, after: Expr, config: MachineConfig, facts: Analysis
) -> tuple[Expr, Expr] | None:
    """When ``before -> after`` is in the table of rewrites that raise
    the same flags in every environment, the operand pair still to be
    judged (one node twice when there is none); else None."""
    if isinstance(before, Binary) and before.op is BinOp.DIV \
            and isinstance(after, Binary) and after.op is BinOp.MUL:
        # x/2^k -> x*2^-k: one exact value is rounded either way; the
        # guard makes the reciprocal of each constant normal, so
        # neither is a subnormal that DAZ reads as zero
        reciprocal = _exact_power_of_two_reciprocal(before.right, config)
        if reciprocal is not None and after.right == reciprocal \
                and _exact_power_of_two_reciprocal(after.right, config) \
                is not None:
            return before.left, after.left
        return None
    if not isinstance(before, Unary) or before.op is UnOp.SQRT:
        return None
    inner = before.operand
    if isinstance(inner, Unary) and inner.op is before.op:
        # -(-x) -> x and abs(abs(x)) -> abs(x): quiet sign operations
        kept = inner.operand if before.op is UnOp.NEG else inner
        return (after, after) if after is kept else None
    # -c or abs(c) folded: the literal's sign is set quietly, unless it
    # is a signaling NaN, which folding turns quiet
    if isinstance(inner, Const) and isinstance(after, Const) \
            and not facts.fact(inner).value.maybe_snan:
        return after, after
    return None


def _canonical_subs(expr: Expr) -> Expr:
    """Normalize ``a - b`` to ``a + (-b)`` (bit-identical by the IEEE
    definition of subtraction) so a pass that only performs this
    canonicalization is not misreported as value-changing."""
    children = expr.children()
    if children:
        expr = expr.with_children(*(_canonical_subs(c) for c in children))
    if isinstance(expr, Binary) and expr.op is BinOp.SUB:
        return Binary(BinOp.ADD, expr.left, Unary(UnOp.NEG, expr.right))
    return expr


def _env_verdict(
    source: Analysis, analysis: Analysis, config: MachineConfig
) -> tuple[bool, bool, str]:
    """Does the configured *environment* (not the rewrites) preserve
    strict results for the compiled expression (``analysis``) of the
    source (``source``) on these ranges?

    FTZ/DAZ only bite when subnormals are reachable; the abstract
    verdicts decide that statically.  DAZ is judged on every leaf of
    both trees, literals included: a pass that folds a subnormal
    literal reads it as zero, while strict evaluation of the source
    does not.
    """
    if config.rounding is not STRICT.rounding:
        return False, False, f"non-default rounding {config.rounding.name}"
    reasons = []
    if config.daz:
        leaves = {
            id(node): facts.fact(node)
            for facts in (source, analysis) for node in facts.order
            if facts.fact(node).op in ("var", "const")
        }
        subnormal_inputs = any(
            fact.value.can_subnormal for fact in leaves.values()
        )
        if subnormal_inputs:
            reasons.append("DAZ with subnormal-possible inputs")
    if config.ftz:
        tiny = FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
        if analysis.may_flags & tiny:
            reasons.append("FTZ with subnormal-possible results")
    if reasons:
        return False, False, "; ".join(reasons)
    return True, True, "environment cannot change results on these ranges"
