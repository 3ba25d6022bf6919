"""Analysis-guided and exhaustive divergence search strategies.

The random strategy in :mod:`repro.optsim.compliance` samples the whole
encoding space; for the narrow operating ranges real lint corpora bind
(``t ∈ [1e8, 1e9]``, subnormal bands, …) a uniform draw essentially
never lands inside the region where an optimization's hazard can fire.
This module adds the two strategies that close that gap:

- :func:`guided_search` samples from the *feasible divergence regions*
  :func:`repro.staticfp.regions.divergence_goals` derives by backward
  refinement from the abstract analysis — corner-lattice probes first,
  then per-goal region sampling steered by an exception-flow coverage
  map (:class:`FlowCoverage`, in the spirit of FlowFPX's flag-flow
  tracking: which statically-possible per-node flags has the search
  actually exercised on each side?).

- :func:`exhaustive_sweep` enumerates *every* admitted operand
  combination for small formats (TINY8, binary16 with few variables),
  lane-parallel through :func:`repro.optsim.batch_eval.evaluate_many`.
  A clean sweep is a proof over the sampled domain: ``safe`` verdicts
  become witness-free facts, not merely unfalsified claims.

Per-node flag attribution uses a capturing evaluator that runs each
operation in a fresh environment (so the sticky-flag union matches
:func:`repro.optsim.evaluator.evaluate` exactly) and publishes one
event per flag-raising node through the active telemetry stream.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping, Sequence

from repro.errors import OptimizationError
from repro.fpenv.flags import FPFlag
from repro.optsim.ast import (
    FMA,
    Binary,
    BinOp,
    Const,
    Expr,
    Unary,
    UnOp,
    Var,
    expr_variables,
)
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import (
    SoftFloat,
    convert_format,
    fp_add,
    fp_div,
    fp_fma,
    fp_max,
    fp_min,
    fp_mul,
    fp_remainder,
    fp_sqrt,
    fp_sub,
    parse_softfloat,
)
from repro.telemetry import get_telemetry
from repro.telemetry.events import single_flags

__all__ = [
    "FlowCoverage",
    "GuidedResult",
    "SweepResult",
    "exhaustive_sweep",
    "guided_search",
]

_EVENT_PREFIX = "witness"


# ----------------------------------------------------------------------
# Per-node flag capture
# ----------------------------------------------------------------------
_BINARY_FNS = {
    BinOp.ADD: fp_add,
    BinOp.SUB: fp_sub,
    BinOp.MUL: fp_mul,
    BinOp.DIV: fp_div,
    BinOp.REM: fp_remainder,
    BinOp.MIN: fp_min,
    BinOp.MAX: fp_max,
}


def _eval_capture(
    expr: Expr,
    bindings: Mapping[str, SoftFloat],
    config: MachineConfig,
    emit,
) -> tuple[SoftFloat, FPFlag]:
    """Evaluate like :func:`repro.optsim.evaluator.evaluate` but run
    every operation in a fresh environment, calling ``emit(node,
    flags)`` with each node's own raised flags.  The returned sticky
    union is bit-identical to the plain evaluator's."""
    total = FPFlag.NONE

    def run(node: Expr) -> SoftFloat:
        nonlocal total
        if isinstance(node, Const):
            return parse_softfloat(node.literal, config.fmt)
        if isinstance(node, Var):
            try:
                value = bindings[node.name]
            except KeyError:
                raise OptimizationError(f"unbound variable {node.name!r}")
            if value.fmt != config.fmt:
                env = config.fresh_env()
                value = convert_format(value, config.fmt, env)
                total |= env.flags
                emit(node, env.flags)
            return value
        if isinstance(node, Unary):
            operand = run(node.operand)
            if node.op is UnOp.NEG:
                return -operand
            if node.op is UnOp.ABS:
                return abs(operand)
            env = config.fresh_env()
            result = fp_sqrt(operand, env)
        elif isinstance(node, Binary):
            left = run(node.left)
            right = run(node.right)
            env = config.fresh_env()
            result = _BINARY_FNS[node.op](left, right, env)
        elif isinstance(node, FMA):
            a, b, c = run(node.a), run(node.b), run(node.c)
            env = config.fresh_env()
            result = fp_fma(a, b, c, env)
        else:
            raise OptimizationError(
                f"cannot evaluate node {type(node).__name__}"
            )
        total |= env.flags
        emit(node, env.flags)
        return result

    value = run(expr)
    return value, total


# ----------------------------------------------------------------------
# Exception-flow coverage
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FlowCoverage:
    """Which statically-possible exception flows has the search
    exercised?

    Targets are ``(side, node, flag)`` triples — every per-node may-flag
    the abstract analysis reports, on both the strict evaluation of the
    source expression and the configured evaluation of its compiled
    form.  The search records each candidate's actual per-node flags
    against them (routed through the telemetry event stream when a
    session is active), and uses the unexercised remainder to steer
    goal selection.
    """

    targets: frozenset[tuple[str, str, str]]
    covered: set[tuple[str, str, str]] = dataclasses.field(
        default_factory=set
    )

    @classmethod
    def for_search(
        cls,
        expr: Expr,
        optimized: Expr,
        config: MachineConfig,
        bindings: Mapping[str, object] | None = None,
    ) -> "FlowCoverage":
        from repro.staticfp.analyze import analyze

        strict_config = STRICT.replace(fmt=config.fmt)
        targets: set[tuple[str, str, str]] = set()
        for side, tree, cfg in (
            ("strict", expr, strict_config),
            ("optimized", optimized, config),
        ):
            analysis = analyze(tree, bindings, cfg)
            for node in analysis.order:
                fact = analysis.fact(node)
                if fact.op in ("const", "var"):
                    continue
                for flag in single_flags(fact.may_flags):
                    name = (flag.name or "?").lower()
                    targets.add((side, str(node), name))
        return cls(targets=frozenset(targets))

    # ------------------------------------------------------------------
    def record(self, side: str, node: str, flags: FPFlag) -> None:
        for flag in single_flags(flags):
            key = (side, node, (flag.name or "?").lower())
            if key in self.targets:
                self.covered.add(key)

    def sink(self, event) -> None:
        """Telemetry-stream subscriber: decode the search's
        ``witness.<side>:<node>`` events back into coverage marks."""
        operation = event.operation
        if not operation.startswith(_EVENT_PREFIX + "."):
            return
        side, _, node = operation[len(_EVENT_PREFIX) + 1:].partition(":")
        self.record(side, node, event.flags)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.targets)

    @property
    def exercised(self) -> int:
        return len(self.covered)

    @property
    def ratio(self) -> float:
        return self.exercised / self.total if self.targets else 1.0

    def unexercised(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(self.targets - self.covered))

    def to_dict(self) -> dict:
        return {
            "targets": self.total,
            "exercised": self.exercised,
            "ratio": round(self.ratio, 4),
            "unexercised": [list(t) for t in self.unexercised()],
        }

    def describe(self) -> str:
        head = (
            f"flag-flow coverage: {self.exercised}/{self.total}"
            f" ({self.ratio:.0%})"
        )
        missing = self.unexercised()
        if missing:
            shown = ", ".join(
                f"{side}:{node}!{flag}" for side, node, flag in missing[:4]
            )
            more = f" (+{len(missing) - 4} more)" if len(missing) > 4 else ""
            head += f"; unexercised: {shown}{more}"
        return head


# ----------------------------------------------------------------------
# Guided search
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GuidedResult:
    """Outcome of one guided (or exhaustive) strategy run."""

    witness: dict[str, SoftFloat] | None
    value_diverged: bool
    flags_diverged: bool
    strict_result: object | None
    optimized_result: object | None
    evals: int
    coverage: FlowCoverage | None
    goal: str | None = None


def _candidate_stream(
    names: Sequence[str],
    base: Mapping[str, "object"],
    goals: Sequence["object"],
    coverage: FlowCoverage,
    rng: random.Random,
    extra: Sequence[Mapping[str, SoftFloat]],
):
    """Yield candidate bindings: explicit extras, then per-goal lattice
    combinations, then coverage-prioritized region sampling with a
    periodic unbiased draw from the admitted base regions."""
    fmt = next(iter(base.values())).fmt if base else None

    def build(bits_by_name: Mapping[str, int]) -> dict[str, SoftFloat]:
        return {
            name: SoftFloat(fmt, bits_by_name[name]) for name in names
        }

    for binding in extra:
        if all(
            name in binding and base[name].contains(binding[name].bits)
            for name in names
        ):
            yield binding, "extra"

    if not names:
        # Variable-free expressions have exactly one candidate: the
        # empty binding.  Divergence, if any, is unconditional.
        yield {}, "base"
        return

    # Lattice tier: the deterministic probe points of every goal.
    seen: set[tuple[int, ...]] = set()
    goal_list = [("base", {})] + [(g.name, g.region_map()) for g in goals]
    for goal_name, regions in goal_list:
        lattices = [
            regions.get(name, base[name]).lattice_points() for name in names
        ]
        if len(names) <= 2:
            combos: list[tuple[int, ...]] = [()]
            for points in lattices:
                combos = [c + (p,) for c in combos for p in points]
        else:
            width = max(len(points) for points in lattices)
            combos = [
                tuple(points[i % len(points)] for points in lattices)
                for i in range(width)
            ]
            anchors = tuple(points[0] for points in lattices)
            for axis, points in enumerate(lattices):
                for p in points:
                    combos.append(
                        anchors[:axis] + (p,) + anchors[axis + 1:]
                    )
        for combo in combos[:512]:
            if combo not in seen:
                seen.add(combo)
                yield build(dict(zip(names, combo))), goal_name

    # Sampling tier: chase goals whose flag flows are still unexercised.
    round_index = 0
    while True:
        ordered = sorted(
            goal_list,
            key=lambda item: not any(
                item[0] != "base" and node in item[0]
                for _, node, _ in coverage.unexercised()
            ),
        )
        for goal_name, regions in ordered:
            bits = {
                name: regions.get(name, base[name]).sample(rng)
                for name in names
            }
            yield build(bits), goal_name
        # every round, one unbiased draw keeps the base space live
        yield build(
            {name: base[name].sample(rng) for name in names}
        ), "base"
        round_index += 1


def guided_search(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    *,
    bindings: Mapping[str, object] | None = None,
    goals: Sequence["object"] | None = None,
    safety=None,
    seed: int = 754,
    trials: int = 2000,
    check_flags: bool = True,
    extra_witnesses: Sequence[Mapping[str, SoftFloat]] = (),
) -> GuidedResult:
    """Search for a divergence witness inside the analysis-derived
    feasible regions, tracking exception-flow coverage as it goes.

    Every candidate is evaluated with the capturing evaluator on both
    sides (feeding :class:`FlowCoverage` and the telemetry stream); a
    hit is re-confirmed with the scalar
    :func:`repro.optsim.compliance.check_binding` before it is
    returned, so a guided witness is verified by construction.
    """
    from repro.optsim.compliance import _same_value, check_binding
    from repro.staticfp.regions import divergence_goals, variable_regions

    names = sorted(
        set(expr_variables(expr)) | set(expr_variables(optimized))
    )
    base = variable_regions(expr, config, bindings)
    for name in names:
        if name not in base:
            from repro.staticfp.regions import BitRegion

            base[name] = BitRegion.full(config.fmt)
    if goals is None:
        goals = divergence_goals(expr, config, bindings, safety=safety)
    coverage = FlowCoverage.for_search(expr, optimized, config, bindings)

    telemetry = get_telemetry()
    stream = telemetry.stream if telemetry.enabled else None
    if stream is not None:
        stream.subscribe(coverage.sink)

    def emitter(side: str):
        def emit(node: Expr, flags: FPFlag) -> None:
            if not flags:
                return
            if stream is not None:
                stream.record(f"{_EVENT_PREFIX}.{side}:{node}", flags)
            else:
                coverage.record(side, str(node), flags)

        return emit

    strict_config = STRICT.replace(fmt=config.fmt)
    rng = random.Random(seed)
    evals = 0
    try:
        stream_iter = _candidate_stream(
            names, base, goals, coverage, rng, extra_witnesses
        )
        for binding, goal_name in stream_iter:
            if evals >= trials:
                break
            evals += 1
            strict_value, strict_flags = _eval_capture(
                expr, binding, strict_config, emitter("strict")
            )
            opt_value, opt_flags = _eval_capture(
                optimized, binding, config, emitter("optimized")
            )
            value_diverged = not _same_value(strict_value, opt_value)
            flags_diverged = strict_flags != opt_flags
            if value_diverged or (check_flags and flags_diverged):
                strict, opt, vdiv, fdiv = check_binding(
                    expr, optimized, binding, config
                )
                if vdiv or (check_flags and fdiv):
                    return GuidedResult(
                        witness=dict(binding),
                        value_diverged=vdiv,
                        flags_diverged=fdiv,
                        strict_result=strict,
                        optimized_result=opt,
                        evals=evals,
                        coverage=coverage,
                        goal=goal_name,
                    )
    finally:
        if stream is not None:
            stream.unsubscribe(coverage.sink)
    return GuidedResult(
        witness=None,
        value_diverged=False,
        flags_diverged=False,
        strict_result=None,
        optimized_result=None,
        evals=evals,
        coverage=coverage,
    )


# ----------------------------------------------------------------------
# Exhaustive sweep (small formats)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Outcome of an exhaustive enumeration over the admitted domain."""

    found_index: int | None
    witness: dict[str, SoftFloat] | None
    value_diverged: bool
    flags_diverged: bool
    states: int
    checked: int

    @property
    def is_proof(self) -> bool:
        """True when the whole domain was swept without a divergence —
        an exhaustive equivalence proof over the admitted inputs."""
        return self.found_index is None and self.checked == self.states


def sweep_regions(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
) -> dict[str, "object"]:
    """The per-variable enumeration domains for an exhaustive sweep:
    the admitted regions, with every NaN encoding for unbound
    variables (NaN inputs are part of the proof obligation)."""
    from repro.staticfp.regions import BitRegion, variable_regions

    names = sorted(
        set(expr_variables(expr)) | set(expr_variables(optimized))
    )
    regions = variable_regions(expr, config, bindings)
    for name in names:
        if bindings is not None and name in bindings:
            continue
        regions[name] = BitRegion.full(config.fmt, nan="all")
    return {name: regions[name] for name in names}


def exhaustive_sweep(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    *,
    bindings: Mapping[str, object] | None = None,
    check_flags: bool = True,
    max_states: int = 1 << 22,
    chunk: int = 4096,
    backend: str = "auto",
) -> SweepResult:
    """Enumerate every admitted operand combination, lane-parallel.

    The index space is the mixed-radix product of the per-variable
    region sizes.  Values are compared bit-for-bit with all NaNs
    identified; the first diverging index is re-checked scalar before
    being reported.
    """
    from repro.optsim.batch_eval import evaluate_many
    from repro.optsim.compliance import _same_value, check_binding

    regions = sweep_regions(expr, optimized, config, bindings)
    names = sorted(regions)
    sizes = [regions[name].size for name in names]
    total = 1
    for size in sizes:
        total *= size
    if total > max_states:
        raise ValueError(
            f"exhaustive sweep of {total} states exceeds the"
            f" {max_states}-state budget; bind tighter"
        )
    fmt = config.fmt
    strict_config = STRICT.replace(fmt=fmt)

    def binding_at(index: int) -> dict[str, SoftFloat]:
        out: dict[str, SoftFloat] = {}
        for name, size in zip(reversed(names), reversed(sizes)):
            index, digit = divmod(index, size)
            out[name] = SoftFloat(fmt, regions[name].select(digit))
        return out

    checked = 0
    for base_index in range(0, total, chunk):
        hi = min(base_index + chunk, total)
        batch = [binding_at(i) for i in range(base_index, hi)]
        strict_results = evaluate_many(
            expr, batch, strict_config, backend
        )
        opt_results = evaluate_many(optimized, batch, config, backend)
        for offset, (s, o) in enumerate(zip(strict_results, opt_results)):
            checked += 1
            diverged = not _same_value(s.value, o.value) or (
                check_flags and s.flags != o.flags
            )
            if diverged:
                index = base_index + offset
                binding = binding_at(index)
                strict, opt, vdiv, fdiv = check_binding(
                    expr, optimized, binding, config
                )
                return SweepResult(
                    found_index=index,
                    witness=binding,
                    value_diverged=vdiv,
                    flags_diverged=fdiv,
                    states=total,
                    checked=checked,
                )
    return SweepResult(
        found_index=None,
        witness=None,
        value_diverged=False,
        flags_diverged=False,
        states=total,
        checked=checked,
    )
