"""Gotcha lints: structured diagnostics keyed to quiz ids.

Each rule reads the abstract facts (:mod:`repro.staticfp.analyze`) and
the pass-safety verdicts (:mod:`repro.staticfp.safety`) and emits
:class:`Diagnostic` records whose ``gotcha_id`` matches the GOTCHAS.md
/ quiz catalog (``identity``, ``associativity``, ``flush_to_zero``,
``fast_math``, ...), so a diagnostic is always traceable to the survey
misconception it statically predicts.

Severity policy: ``error`` means the hazard is *guaranteed* on the
given ranges (a must-flag), ``warning`` means it is reachable, and
``info`` marks background facts (results round; flags are sticky) that
are true of nearly every expression and should not fail a lint gate.
"""

from __future__ import annotations

import dataclasses

from repro.fpenv.flags import FPFlag, flag_names
from repro.optsim.ast import Binary, BinOp, Const, Expr, Var
from repro.optsim.compliance import is_standard_compliant
from repro.optsim.machine import STRICT, MachineConfig
from repro.optsim.parser import parse_expr
from repro.staticfp.analyze import Analysis, NodeFact, analyze, as_abstract
from repro.staticfp.safety import SafetyReport, predict_pass_safety
from repro.telemetry import get_telemetry

__all__ = ["Diagnostic", "LintReport", "lint", "SEVERITIES"]

SEVERITIES = ("info", "warning", "error")
_RANK = {name: i for i, name in enumerate(SEVERITIES)}

_FASTMATH_PASSES = frozenset({"reassociate", "fast-math-algebra"})


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One structured finding, keyed to a quiz/gotcha id."""

    gotcha_id: str
    severity: str
    node: str  # source rendering of the offending node
    message: str

    def render(self) -> str:
        return f"[{self.severity}] {self.gotcha_id} @ {self.node}: {self.message}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class LintReport:
    """All diagnostics for one expression/config pair."""

    expr: Expr
    config: MachineConfig
    diagnostics: tuple[Diagnostic, ...]
    analysis: Analysis
    safety: SafetyReport
    #: The witness engine's dynamic follow-up (a
    #: :class:`repro.staticfp.witness.WitnessReport`), when the lint
    #: ran with witness search enabled.
    witness_report: object | None = None

    @property
    def has_findings(self) -> bool:
        """True when any diagnostic is warning-or-worse (the lint-gate
        criterion; info diagnostics never fail a build)."""
        return any(d.severity != "info" for d in self.diagnostics)

    @property
    def gotcha_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for d in self.diagnostics:
            seen.setdefault(d.gotcha_id, None)
        return tuple(seen)

    def by_id(self, gotcha_id: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.gotcha_id == gotcha_id)

    def render(self) -> str:
        count = len(self.diagnostics)
        lines = [
            f"lint '{self.expr}' under {self.config.name}"
            f" ({self.config.fmt.name}): {count} diagnostic"
            f"{'s' if count != 1 else ''}"
        ]
        for d in self.diagnostics:
            lines.append(f"  {d.render()}")
        if str(self.safety.compiled) != str(self.expr):
            lines.append(f"  compiled: '{self.safety.compiled}'")
        if self.witness_report is not None:
            for line in self.witness_report.describe().splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "expr": str(self.expr),
            "config": self.config.name,
            "format": self.config.fmt.name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "may_flags": list(flag_names(self.analysis.may_flags)),
            "must_flags": list(flag_names(self.analysis.must_flags)),
            "compiled": str(self.safety.compiled),
            "value_safe": self.safety.value_safe,
            "flags_safe": self.safety.flags_safe,
            "has_findings": self.has_findings,
        }
        if self.witness_report is not None:
            out["witness"] = self.witness_report.to_dict()
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)


def lint(
    expr: Expr | str,
    config: MachineConfig = STRICT,
    bindings=None,
    *,
    assume_nan_inputs: bool = False,
    witness: bool = False,
    witness_strategy: str = "guided",
    witness_trials: int = 2000,
) -> LintReport:
    """Run every gotcha rule over ``expr`` under ``config``.

    ``bindings`` may constrain variables to ranges (see
    :func:`repro.staticfp.analyze.as_abstract`); unbound variables
    default to any non-NaN value of the format.

    With ``witness`` the static verdict gets its dynamic follow-up: a
    verified counterexample (or an exhaustive proof / an unresolved
    search) from :func:`repro.staticfp.witness.find_witness`, attached
    to the report and to its safety verdict.  A witness search only
    runs when the static verdict is unsafe (value or flags) — a safe
    verdict promises there is nothing to find.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "staticfp.lint", expr=str(expr), config=config.name
    ) as span:
        if bindings:
            bindings = {
                name: as_abstract(value, config.fmt)
                for name, value in bindings.items()
            }
        analysis = analyze(
            expr, bindings, config, assume_nan_inputs=assume_nan_inputs
        )
        # the one analysis every later stage reuses (theirs admit no NaN)
        shared = None if assume_nan_inputs else analysis
        safety = predict_pass_safety(expr, config, bindings, analysis=shared)
        witness_report = None
        if witness and not safety.flags_safe:
            from repro.staticfp.witness import find_witness

            witness_report = find_witness(
                expr, config, bindings,
                strategy=witness_strategy, trials=witness_trials,
                safety=safety, analysis=shared, expect_safe=False,
            )
            safety = safety.with_witness(witness_report)
            span.set("witness_outcome", witness_report.outcome)
        diagnostics = _run_rules(analysis, safety, config)
        span.set("diagnostics", len(diagnostics))
        for d in diagnostics:
            telemetry.metrics.counter(
                "staticfp.diagnostics_total", id=d.gotcha_id
            ).inc()
        return LintReport(
            expr=expr,
            config=config,
            diagnostics=diagnostics,
            analysis=analysis,
            safety=safety,
            witness_report=witness_report,
        )


def _run_rules(
    analysis: Analysis, safety: SafetyReport, config: MachineConfig
) -> tuple[Diagnostic, ...]:
    found: list[tuple[int, Diagnostic]] = []
    seen: set[tuple[str, str]] = set()
    order_index = {id(node): i for i, node in enumerate(analysis.order)}

    def emit(node: Expr, gotcha_id: str, severity: str, message: str) -> None:
        key = (gotcha_id, str(node))
        if key in seen:
            return
        seen.add(key)
        found.append((
            order_index.get(id(node), 0),
            Diagnostic(gotcha_id, severity, str(node), message),
        ))

    for node in analysis.order:
        fact = analysis.fact(node)
        _rule_nan_introduction(analysis, node, fact, emit)
        _rule_division(analysis, node, fact, emit)
        _rule_overflow(node, fact, emit)
        _rule_denormal(node, fact, config, emit)
        _rule_saturation(node, fact, emit)
        _rule_ordering(analysis, node, fact, emit)
        _rule_cancellation(analysis, node, fact, emit)
        _rule_madd(node, config, safety, emit)
    _rule_associativity(analysis, emit)
    _rule_root_facts(analysis, emit)
    _rule_flush_to_zero(analysis, config, emit)
    _rule_opt_level(analysis, safety, config, emit)
    _rule_fast_math(safety, config, emit)

    found.sort(key=lambda pair: (-_RANK[pair[1].severity],
                                 pair[1].gotcha_id, pair[0]))
    return tuple(d for _, d in found)


# ----------------------------------------------------------------------
# Per-node rules
# ----------------------------------------------------------------------
def _rule_nan_introduction(
    analysis: Analysis, node: Expr, fact: NodeFact, emit
) -> None:
    """`identity`: the node where NaN enters the computation."""
    if not fact.value.maybe_nan:
        return
    if any(
        analysis.fact(child).value.maybe_nan for child in node.children()
    ):
        return  # propagation, not introduction
    always = fact.value.lo is None
    emit(
        node, "identity",
        "error" if always else "warning",
        ("always produces NaN" if always else "may produce NaN")
        + " — and NaN breaks reflexivity: 'x == x' is false (identity)",
    )


def _rule_division(
    analysis: Analysis, node: Expr, fact: NodeFact, emit
) -> None:
    if not (isinstance(node, Binary) and node.op is BinOp.DIV):
        return
    left = analysis.fact(node.left).value
    right = analysis.fact(node.right).value
    if fact.may_flags & FPFlag.DIV_BY_ZERO:
        must = bool(fact.must_flags & FPFlag.DIV_BY_ZERO)
        emit(
            node, "divide_by_zero",
            "error" if must else "warning",
            ("always divides" if must else "may divide")
            + " a nonzero value by zero: the result is ±inf, NOT NaN"
            " (and only the div-by-zero flag records it)",
        )
    if left.can_zero and right.can_zero:
        emit(
            node, "zero_divide_by_zero", "warning",
            "0.0/0.0 is reachable: THAT one is NaN (invalid operation)",
        )


def _rule_overflow(node: Expr, fact: NodeFact, emit) -> None:
    if fact.may_flags & FPFlag.OVERFLOW and not isinstance(node, (Var, Const)):
        emit(
            node, "overflow", "warning",
            "may overflow: float overflow saturates at ±inf,"
            " it never wraps like integers",
        )


def _rule_denormal(
    node: Expr, fact: NodeFact, config: MachineConfig, emit
) -> None:
    if isinstance(node, (Var, Const)):
        return
    if fact.may_flags & FPFlag.DENORMAL_RESULT and not (
        config.ftz or config.daz
    ):
        emit(
            node, "denormal_precision", "warning",
            "may produce a subnormal: gradual underflow keeps it nonzero"
            " but with fewer significant bits than a normal result",
        )


def _rule_saturation(node: Expr, fact: NodeFact, emit) -> None:
    if fact.absorption is None or not fact.absorption.possible:
        return
    assert isinstance(node, Binary)
    if node.op is BinOp.ADD:
        emit(
            node, "saturation_plus", "warning",
            "the smaller addend can be absorbed completely:"
            " (a + small) == a is reachable on these ranges",
        )
    else:
        emit(
            node, "saturation_minus", "warning",
            "the smaller operand can be absorbed completely:"
            " (a - small) == a is reachable on these ranges",
        )


def _rule_ordering(
    analysis: Analysis, node: Expr, fact: NodeFact, emit
) -> None:
    """`ordering`: ((a+b) - a) is not b when the inner sum absorbed."""
    if not (isinstance(node, Binary) and node.op is BinOp.SUB):
        return
    left = node.left
    if not (isinstance(left, Binary) and left.op is BinOp.ADD):
        return
    left_fact = analysis.fact(left)
    if left_fact.absorption is None or not left_fact.absorption.possible:
        return
    terms = _flatten(left, {BinOp.ADD})
    if any(term == node.right for term in terms):
        emit(
            node, "ordering", "warning",
            "((a + b) - a) != b when the inner sum rounds the smaller"
            " addend away — operation order is observable",
        )


def _rule_cancellation(
    analysis: Analysis, node: Expr, fact: NodeFact, emit
) -> None:
    info = fact.cancellation
    if info is None or not info.catastrophic:
        return
    emit(
        node, "cancellation", "warning",
        f"catastrophic cancellation: operands can nearly cancel, losing"
        f" up to {info.bits_lost} of {analysis.context.fmt.precision}"
        " significant bits",
    )


def _rule_madd(
    node: Expr, config: MachineConfig, safety: SafetyReport, emit
) -> None:
    if not (isinstance(node, Binary) and node.op in (BinOp.ADD, BinOp.SUB)):
        return
    has_mul = any(
        isinstance(child, Binary) and child.op is BinOp.MUL
        for child in node.children()
    )
    if not has_mul:
        return
    if config.fp_contract and any(
            v.pass_name == "fma-contraction" and v.proved_on_ranges
            for v in safety.verdicts):
        emit(
            node, "madd", "info",
            "this level contracts mul+add into fma (one rounding instead"
            " of two), but the contraction rounds identically on the"
            " bound ranges",
        )
    elif config.fp_contract:
        emit(
            node, "madd", "warning",
            "this level contracts mul+add into fma (one rounding instead"
            " of two): 754-2008 semantics, result differs from mul-then-add",
        )
    else:
        emit(
            node, "madd", "info",
            "contractible mul+add site: at -O3 (fp-contract) this fuses"
            " into an fma with a single rounding",
        )


# ----------------------------------------------------------------------
# Whole-expression rules
# ----------------------------------------------------------------------
def _flatten(node: Expr, ops: set) -> list[Expr]:
    if isinstance(node, Binary) and node.op in ops:
        return _flatten(node.left, ops) + _flatten(node.right, ops)
    return [node]


def _rule_associativity(analysis: Analysis, emit) -> None:
    """Chains of three or more roundings reassociate observably."""
    covered: set[int] = set()
    for node in analysis.order:
        if id(node) in covered or not isinstance(node, Binary):
            continue
        if node.op in (BinOp.ADD, BinOp.SUB):
            family = {BinOp.ADD, BinOp.SUB}
            kind = "addition"
        elif node.op is BinOp.MUL:
            family = {BinOp.MUL}
            kind = "multiplication"
        else:
            continue
        terms = _flatten(node, family)
        if len(terms) < 3:
            continue
        # Mark every same-family Binary inside this chain as covered so
        # one maximal chain emits one diagnostic.
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, Binary) and current.op in family:
                covered.add(id(current))
                stack.extend(current.children())
        emit(
            node, "associativity", "warning",
            f"{kind} chain of {len(terms)} terms: every step rounds, so"
            " (a+b)+c != a+(b+c) in general and reassociation changes"
            " the result",
        )


def _rule_root_facts(analysis: Analysis, emit) -> None:
    root = analysis.expr
    may = analysis.may_flags
    if may & FPFlag.INEXACT:
        emit(
            root, "operation_precision", "info",
            "results round: intermediate values are correctly rounded to"
            " the format, so decimal expectations like 0.1 + 0.2 == 0.3"
            " fail",
        )
    if may & (FPFlag.INVALID | FPFlag.DIV_BY_ZERO | FPFlag.OVERFLOW
              | FPFlag.UNDERFLOW):
        emit(
            root, "exception_signal", "info",
            "exceptional outcomes here would NOT signal: IEEE default"
            " handling just sets sticky flags and substitutes NaN/inf",
        )
    fact = analysis.root
    if fact.value.neg_zero and fact.value.pos_zero:
        emit(
            root, "negative_zero", "info",
            "both zero encodings are reachable: -0.0 == 0.0 compares"
            " equal, but 1/-0.0 = -inf distinguishes them",
        )


def _rule_flush_to_zero(
    analysis: Analysis, config: MachineConfig, emit
) -> None:
    tiny = FPFlag.UNDERFLOW | FPFlag.DENORMAL_RESULT
    subnormal_inputs = any(
        analysis.fact(node).value.can_subnormal
        for node in analysis.order
        if analysis.fact(node).op == "var"
    )
    reachable = bool(analysis.may_flags & tiny) or subnormal_inputs
    if not reachable:
        return
    if config.ftz or config.daz:
        emit(
            analysis.expr, "flush_to_zero", "warning",
            "FTZ/DAZ is on and subnormals are reachable: tiny results"
            " flush to zero, so x != y no longer implies x - y != 0",
        )
    else:
        emit(
            analysis.expr, "flush_to_zero", "info",
            "subnormals are reachable: under FTZ/DAZ hardware (or"
            " -ffast-math) these would flush to zero",
        )


def _rule_opt_level(
    analysis: Analysis, safety: SafetyReport, config: MachineConfig, emit
) -> None:
    changing = safety.value_changing_applied
    if changing:
        names = ", ".join(v.pass_name for v in changing)
        emit(
            analysis.expr, "opt_level", "warning",
            f"this optimization level rewrites the expression"
            f" value-changingly ({names}): -O2 is the highest"
            " standard-compliant level",
        )
    elif not is_standard_compliant(config):
        bounded = ", ".join(
            v.pass_name for v in safety.applied if v.proved_on_ranges
        )
        applies = (
            f"its value-changing rewrites ({bounded}) round identically"
            " on these ranges" if bounded
            else "none applies to this expression"
        )
        emit(
            analysis.expr, "opt_level", "info",
            f"level licenses value-changing rewrites, but {applies}"
            " (still: -O2 is the highest level that is compliant by"
            " construction)",
        )
    elif safety.applied:
        emit(
            analysis.expr, "opt_level", "info",
            "only value-preserving rewrites applied: this level stays"
            " bit-identical to strict IEEE (as any level up to -O2 must)",
        )


def _rule_fast_math(safety: SafetyReport, config: MachineConfig, emit) -> None:
    licensed = (
        config.allow_reassoc or config.no_signed_zeros
        or config.finite_math_only or config.reciprocal_math
    )
    if not licensed:
        return
    unsafe = [
        v for v in safety.value_changing_applied
        if v.pass_name in _FASTMATH_PASSES
    ]
    if unsafe:
        collapsed = isinstance(safety.compiled, Const) and not isinstance(
            safety.expr, Const
        )
        detail = (
            " — here the whole expression folds away (compensation-style"
            " terms are deleted, the Kahan-summation failure mode)"
            if collapsed else ""
        )
        names = ", ".join(v.pass_name for v in unsafe)
        emit(
            safety.expr, "fast_math", "warning",
            f"fast-math rewrites changed the expression ({names}):"
            f" algebra that is only true of reals was applied{detail}",
        )
    else:
        emit(
            safety.expr, "fast_math", "info",
            "fast-math algebra is licensed for this expression but no"
            " rewrite fires on it",
        )
