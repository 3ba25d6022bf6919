"""Analysis-guided and exhaustive divergence search strategies.

Both are candidate sources for the one search walk,
:func:`repro.optsim.compliance.search`: this module decides *which*
bindings to try, and the walk evaluates them, re-checks every hit with
``check_binding``, and returns a
:class:`~repro.optsim.compliance.SearchResult`.

The random strategy in :mod:`repro.optsim.compliance` samples the whole
encoding space; for the narrow operating ranges real lint corpora bind
(``t ∈ [1e8, 1e9]``, subnormal bands, …) a uniform draw essentially
never lands inside the region where an optimization's hazard can fire.
This module adds the two strategies that close that gap:

- :func:`guided_search` samples from the *feasible divergence regions*
  :func:`repro.staticfp.regions.goal_stream` derives by backward
  refinement from the abstract analysis — built tie candidates first,
  then corner-lattice probes, then per-goal region sampling steered by
  an exception-flow coverage map (:class:`FlowCoverage`, in the spirit
  of FlowFPX's flag-flow tracking: which statically-possible per-node
  flags has the search actually exercised on each side?).  Goals are
  drawn from the stream only as the tiers reach them: the built tier
  needs the tie goals alone, the lattice tier takes one goal after the
  admitted-range lattice at a time, and only the sampling tier needs
  them all.  A search that ends early derives fewer goals; a capped one
  derives every goal.  With telemetry on, each search observes how
  many goals it derived in ``optsim.search_goals{stage=derived}``.

- :func:`exhaustive_sweep` enumerates *every* admitted operand
  combination for small formats (TINY8, binary16 with few variables),
  walked in backend lanes.  A clean sweep is a proof over the sampled
  domain: ``safe`` verdicts become witness-free facts, not merely
  unfalsified claims.

Per-node flag attribution rides on the one scalar evaluator: the guided
walk hands :func:`repro.optsim.evaluator.evaluate` a per-node ``hook``
that publishes one event per flag-raising node through the active
telemetry stream.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping, Sequence
from itertools import chain, islice
from typing import TYPE_CHECKING

from repro.fpenv.flags import FPFlag
from repro.optsim.ast import Expr, expr_variables
from repro.optsim.compliance import SearchResult, search
from repro.optsim.machine import STRICT, MachineConfig
from repro.softfloat import SoftFloat
from repro.telemetry import get_telemetry
from repro.telemetry.events import flag_labels

if TYPE_CHECKING:
    from repro.staticfp.regions import GoalStream

__all__ = [
    "FlowCoverage",
    "exhaustive_sweep",
    "guided_search",
]

_EVENT_PREFIX = "witness"


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
        *,
        analysis=None,
        safety=None,
    ) -> "FlowCoverage":
        """``analysis`` (of ``expr``) serves the strict side when it was
        computed under the strict config, and ``safety``'s the optimized
        side when it compiled to an equal tree (targets name nodes by
        rendering, so equal trees give equal targets)."""
        from repro.staticfp.analyze import analyze, reuse_analysis

        strict_config = STRICT.replace(fmt=config.fmt)
        sides = (
            ("strict",
             reuse_analysis(analysis, expr, bindings, strict_config)),
            ("optimized",
             safety.analysis
             if safety is not None and safety.compiled == optimized
             else analyze(optimized, bindings, config)),
        )
        targets: set[tuple[str, str, str]] = set()
        for side, tree_analysis in sides:
            for node in tree_analysis.order:
                fact = tree_analysis.fact(node)
                if fact.op in ("const", "var"):
                    continue
                for name in flag_labels(fact.may_flags):
                    targets.add((side, str(node), name))
        return cls(targets=frozenset(targets))

    # ------------------------------------------------------------------
    def target_keys(
        self, side: str, node: str, flags: FPFlag
    ) -> tuple[tuple[str, str, str], ...]:
        """The targets that ``flags`` raised at ``node`` exercise."""
        keys = ((side, node, name) for name in flag_labels(flags))
        return tuple(key for key in keys if key in self.targets)

    def record(self, side: str, node: str, flags: FPFlag) -> None:
        self.covered.update(self.target_keys(side, node, flags))

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
def _candidate_stream(
    names: Sequence[str],
    base: Mapping[str, "object"],
    goals: GoalStream,
    coverage: FlowCoverage,
    rng: random.Random,
    extra: Sequence[Mapping[str, SoftFloat]],
):
    """Yield candidate bindings: explicit extras, then the goals' built
    candidates, then per-goal lattice combinations, then
    coverage-prioritized region sampling with a periodic unbiased draw
    from the admitted base regions.

    The :class:`~repro.staticfp.regions.GoalStream` is drawn from only
    as far as the tiers reach, so a search that ends in the base
    lattice derives no goal."""
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

    # Built tier: bindings a goal constructed, completed with each
    # missing variable's first lattice point.
    seen: set[tuple[int, ...]] = set()
    for goal in goals.built():
        for built in goal.candidates:
            bits = dict(built)
            combo = tuple(
                bits[name] if name in bits
                else base[name].lattice_points()[0] for name in names
            )
            if combo not in seen and all(
                    base[name].contains(b) for name, b in zip(names, combo)):
                seen.add(combo)
                yield build(dict(zip(names, combo))), goal.name

    # Lattice tier: the deterministic probe points of every goal, each
    # goal drawn from the stream when its turn comes.
    goal_list: list[tuple[str, Mapping]] = []
    for goal_name, regions in chain(
            [("base", {})], ((g.name, g.region_map()) for g in goals)):
        goal_list.append((goal_name, regions))
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
    while True:
        unexercised = coverage.unexercised()
        ordered = sorted(
            goal_list,
            key=lambda item: not any(
                item[0] != "base" and node in item[0]
                for _, node, _ in unexercised
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


def guided_search(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    *,
    bindings: Mapping[str, object] | None = None,
    safety=None,
    analysis=None,
    seed: int = 754,
    trials: int = 2000,
    check_flags: bool = True,
    extra_witnesses: Sequence[Mapping[str, SoftFloat]] = (),
) -> SearchResult:
    """Search for a divergence witness inside the analysis-derived
    feasible regions, tracking exception-flow coverage as it goes.

    The first ``trials`` candidates of the stream are walked by
    :func:`repro.optsim.compliance.search` with a per-node flag hook on
    both sides (feeding :class:`FlowCoverage` and the telemetry
    stream), so a guided witness is re-checked by construction.  The
    result carries the coverage map and the witness's goal.
    ``analysis`` (of ``expr`` under ``config``) is reused, not redone.
    """
    from repro.staticfp.regions import goal_stream, variable_regions

    names = sorted(
        set(expr_variables(expr)) | set(expr_variables(optimized))
    )
    base = variable_regions(expr, config, bindings)
    for name in names:
        if name not in base:
            from repro.staticfp.regions import BitRegion

            base[name] = BitRegion.full(config.fmt)
    goals = goal_stream(
        expr, config, bindings, safety=safety, analysis=analysis
    )
    coverage = FlowCoverage.for_search(
        expr, optimized, config, bindings, analysis=analysis, safety=safety
    )

    telemetry = get_telemetry()
    stream = telemetry.stream if telemetry.enabled else None
    if stream is not None:
        stream.subscribe(coverage.sink)

    def emitter(side: str):
        if stream is not None:
            def emit(node: Expr, flags: FPFlag) -> None:
                if flags:
                    stream.record(f"{_EVENT_PREFIX}.{side}:{node}", flags)

            return emit

        # Without a stream, each (node, flag set) resolves to its target
        # keys once.  The entry holds the node, so its id stays its own.
        marks: dict[tuple[int, int], tuple[Expr, tuple]] = {}

        def emit(node: Expr, flags: FPFlag) -> None:
            if not flags:
                return
            memo_key = (id(node), flags._value_)
            try:
                keys = marks[memo_key][1]
            except KeyError:
                keys = coverage.target_keys(side, str(node), flags)
                marks[memo_key] = (node, keys)
            if keys:
                coverage.covered.update(keys)

        return emit

    stream_iter = _candidate_stream(
        names, base, goals, coverage, random.Random(seed), extra_witnesses
    )
    try:
        result = search(
            expr, optimized, config, islice(stream_iter, trials),
            check_flags=check_flags,
            hooks=(emitter("strict"), emitter("optimized")),
        )
    finally:
        if stream is not None:
            stream.unsubscribe(coverage.sink)
            telemetry.metrics.log_histogram(
                "optsim.search_goals", stage="derived"
            ).observe(len(goals.derived))
    return dataclasses.replace(result, coverage=coverage)


# ----------------------------------------------------------------------
# Exhaustive sweep (small formats)
# ----------------------------------------------------------------------
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
    backend: str = "auto",
) -> SearchResult:
    """Enumerate every admitted operand combination, lane-parallel.

    The index space is the mixed-radix product of the per-variable
    region sizes, walked in index order by
    :func:`repro.optsim.compliance.search` on ``backend``.  Values are
    compared bit-for-bit with all NaNs identified; the first diverging
    index is re-checked scalar before being reported.  The result's
    ``states`` is the size of the domain, and ``is_proof`` holds when
    the sweep covered it without a divergence.
    """
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

    def binding_at(index: int) -> dict[str, SoftFloat]:
        out: dict[str, SoftFloat] = {}
        for name, size in zip(reversed(names), reversed(sizes)):
            index, digit = divmod(index, size)
            out[name] = SoftFloat(fmt, regions[name].select(digit))
        return out

    result = search(
        expr, optimized, config,
        ((binding_at(index), None) for index in range(total)),
        check_flags=check_flags, backend=backend,
    )
    return dataclasses.replace(result, states=total)
