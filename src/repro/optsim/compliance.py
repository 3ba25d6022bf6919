"""Standard-compliance checking: does a configuration change results?

The optimization quiz's answer key reduces to four checkable claims:
contraction (``-O3``) changes results, FTZ/DAZ changes results,
``-O2`` does not, and fast-math does.  :func:`find_divergence` proves
the positive claims by exhibiting a concrete input where the configured
evaluation differs bit-for-bit from strict IEEE, and supports the
negative claim by failing to find one over a corner-heavy search space.

Every strategy — random, guided (:mod:`repro.optsim.guided`) and
exhaustive — is a candidate source for one walk, :func:`search`, which
re-checks each hit with :func:`check_binding` and returns one
:class:`SearchResult`.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import islice
from typing import TYPE_CHECKING

from repro.optsim.ast import Expr, expr_variables
from repro.optsim.evaluator import EvalResult, evaluate
from repro.optsim.machine import STRICT, MachineConfig
from repro.optsim.pipeline import optimize
from repro.softfloat import SoftFloat, sf
from repro.softfloat.formats import FloatFormat
from repro.telemetry import get_telemetry

if TYPE_CHECKING:
    from repro.softfloat.backend import SoftFloatBackend

__all__ = [
    "DivergenceReport",
    "SearchResult",
    "cross_validate",
    "divergence_candidates",
    "check_binding",
    "search",
    "random_search",
    "find_divergence",
    "is_standard_compliant",
    "noncompliance_reasons",
    "corner_values",
]


@dataclasses.dataclass(frozen=True)
class DivergenceReport:
    """Outcome of a divergence search.

    ``diverged`` is True when some input produced different result bits
    (``value_diverged``) or a different exception footprint
    (``flags_diverged``) under the optimized configuration.

    ``oracle_checked`` records that the strict-IEEE side of this
    verdict was recomputed through the exact-rounding oracle
    (:func:`cross_validate`), so the verdict does not rest on the
    softfloat engine alone.

    ``strategy`` names the search that produced the verdict
    (``"random"``, ``"guided"``, or ``"exhaustive"``); ``coverage``
    carries the guided search's exception-flow coverage map, and
    ``exhausted`` is True when an exhaustive sweep covered the whole
    admitted domain — turning a no-divergence verdict into a proof
    over it.
    """

    expr: Expr
    optimized_expr: Expr
    config: MachineConfig
    diverged: bool
    value_diverged: bool
    flags_diverged: bool
    witness: dict[str, SoftFloat] | None
    strict_result: EvalResult | None
    optimized_result: EvalResult | None
    trials: int
    oracle_checked: bool = False
    strategy: str = "random"
    coverage: object | None = None
    exhausted: bool = False

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        checked = " [oracle-checked]" if self.oracle_checked else ""
        trailer = ""
        if self.exhausted and not self.diverged:
            trailer = (
                " The sweep was exhaustive: this is an equivalence proof"
                " over the admitted domain."
            )
        if self.coverage is not None:
            trailer += "\n" + self.coverage.describe()
        if not self.diverged:
            return (
                f"{self.config.name}: no divergence from strict IEEE found on"
                f" '{self.expr}' over {self.trials} inputs (compiled form:"
                f" '{self.optimized_expr}').{checked}" + trailer
            )
        assert self.witness is not None
        binding = ", ".join(f"{k}={v!s}" for k, v in self.witness.items())
        parts = [
            f"{self.config.name}: '{self.expr}' becomes"
            f" '{self.optimized_expr}'; at {binding or 'constants only'}"
        ]
        assert self.strict_result is not None
        assert self.optimized_result is not None
        if self.value_diverged:
            parts.append(
                f"strict = {self.strict_result.value!s} but optimized ="
                f" {self.optimized_result.value!s}"
            )
        if self.flags_diverged:
            from repro.fpenv.flags import flag_names

            parts.append(
                f"strict flags {flag_names(self.strict_result.flags)} vs"
                f" optimized flags {flag_names(self.optimized_result.flags)}"
            )
        return "; ".join(parts) + "." + checked + trailer


def corner_values(fmt: FloatFormat) -> tuple[SoftFloat, ...]:
    """The adversarial operand set every search mixes in.

    The shared boundary-value corpus
    (:func:`repro.softfloat.landmarks.special_values` — the same list
    the differential test harness and the guided witness engine's
    landmark tier draw from) plus a few search-specific extras: the
    negative rounding-sensitive ``-(1 + ulp)`` and two plain values
    whose decimal conversions are inexact."""
    from repro.softfloat.landmarks import special_values

    eps = SoftFloat(fmt, fmt.one_bits(0) | 1)  # 1 + ulp
    extras = (-eps, sf(3.0, fmt), sf(0.1, fmt))
    seen: set[int] = set()
    out: list[SoftFloat] = []
    for value in (*special_values(fmt), *extras):
        if value.bits not in seen:
            seen.add(value.bits)
            out.append(value)
    return tuple(out)


def _random_value(rng: random.Random, fmt: FloatFormat) -> SoftFloat:
    """A random bit pattern, biased toward finite values.

    Every call consumes exactly three draws from ``rng`` — the bit
    pattern, the bias roll, and the finite fallback — regardless of
    which one is returned, so a candidate stream's tail is a pure
    function of the seed and its position, not of which earlier draws
    happened to be NaN.  (The historical version rolled the bias die
    only on NaN draws, silently desynchronizing streams and discarding
    the drawn pattern.)"""
    bits = rng.getrandbits(fmt.width)
    roll = rng.random()
    finite = sf(rng.uniform(-4.0, 4.0), fmt)
    x = SoftFloat(fmt, bits)
    if x.is_nan and roll < 0.9:
        return finite
    return x


def find_divergence(
    expr: Expr,
    config: MachineConfig,
    *,
    seed: int = 754,
    trials: int = 400,
    check_flags: bool = True,
    extra_witnesses: Sequence[dict[str, SoftFloat]] = (),
    oracle_check: bool = False,
    backend: str | None = None,
    strategy: str = "random",
    bindings=None,
) -> DivergenceReport:
    """Search for an input where ``config``'s compiled evaluation of
    ``expr`` differs from strict IEEE evaluation.

    ``strategy`` selects the search:

    - ``"random"`` (default, the historical behavior): caller-supplied
      witnesses first, then all-corner combinations (when the variable
      count keeps that tractable), then random operands.
    - ``"guided"``: analysis-steered sampling inside the feasible
      divergence regions of :func:`repro.staticfp.regions
      .divergence_goals`, with exception-flow coverage attached to the
      report (:mod:`repro.optsim.guided`).
    - ``"exhaustive"``: enumerate every admitted operand combination
      (small formats only); a no-divergence verdict is then a proof
      over the admitted domain (``report.exhausted``).

    ``bindings`` (guided/exhaustive) restricts variables to admitted
    abstract ranges, as in :func:`repro.staticfp.analyze.analyze`.
    Flag divergence counts as divergence only when ``check_flags`` is
    set.  With ``oracle_check`` the verdict is passed through
    :func:`cross_validate` before being returned.

    ``backend`` names a softfloat backend (``"batch"``, ``"auto"``, …)
    for the random and exhaustive walks: candidates then run in
    vectorized lanes via :func:`repro.optsim.batch_eval.evaluate_many`,
    and every hit is re-checked scalar (:func:`search`), so the verdict
    — witness, trial count, both result sides — is identical to the
    serial walk's.  ``None`` walks the random candidates one by one;
    an exhaustive sweep defaults to ``"auto"``.
    """
    from repro.optsim import guided

    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "optsim.find_divergence", config=config.name, expr=str(expr),
        strategy=strategy,
    ) as span:
        optimized = optimize(expr, config)
        if strategy == "random":
            result = random_search(
                expr, optimized, config, seed=seed, trials=trials,
                check_flags=check_flags, extra_witnesses=extra_witnesses,
                backend=backend,
            )
            telemetry.metrics.counter(
                "optsim.divergence_trials_total", config=config.name
            ).inc(result.evals)
            if result.witness is not None:
                telemetry.metrics.counter(
                    "optsim.divergences_found_total", config=config.name
                ).inc()
        elif strategy == "guided":
            result = guided.guided_search(
                expr, optimized, config, bindings=bindings, seed=seed,
                trials=trials, check_flags=check_flags,
                extra_witnesses=extra_witnesses,
            )
        elif strategy == "exhaustive":
            result = guided.exhaustive_sweep(
                expr, optimized, config, bindings=bindings,
                check_flags=check_flags, backend=backend or "auto",
            )
        else:
            raise ValueError(f"unknown search strategy {strategy!r}")
        report = DivergenceReport(
            expr=expr,
            optimized_expr=optimized,
            config=config,
            diverged=result.witness is not None,
            value_diverged=result.value_diverged,
            flags_diverged=result.flags_diverged,
            witness=result.witness,
            strict_result=result.strict_result,
            optimized_result=result.optimized_result,
            trials=result.evals,
            strategy=strategy,
            coverage=result.coverage,
            exhausted=result.is_proof,
        )
        if oracle_check:
            report = cross_validate(report)
        span.set("diverged", report.diverged)
        span.set("trials", report.trials)
        return report


def divergence_candidates(
    expr: Expr,
    config: MachineConfig,
    *,
    seed: int,
    trials: int,
    extra_witnesses: Sequence[dict[str, SoftFloat]] = (),
) -> list[dict[str, SoftFloat]]:
    """The deterministic candidate list a divergence search walks.

    Pure in ``(expr, config, seed, trials, extra_witnesses)``: caller
    witnesses first, then the corner lattice (all combinations when the
    variable count keeps that tractable, corner-biased random picks
    otherwise), then random operands up to ``trials``.  The corner
    lattice is not cut to ``trials``: with up to two variables the list
    holds every corner combination even when that exceeds it.
    """
    names = expr_variables(expr)
    rng = random.Random(seed)
    fmt = config.fmt

    candidates: list[dict[str, SoftFloat]] = list(extra_witnesses)
    corners = corner_values(fmt)
    if len(names) <= 2:
        if not names:
            candidates.append({})
        elif len(names) == 1:
            candidates.extend({names[0]: v} for v in corners)
        else:
            candidates.extend(
                {names[0]: v1, names[1]: v2} for v1 in corners for v2 in corners
            )
    else:
        for _ in range(trials // 2):
            candidates.append(
                {name: rng.choice(corners) for name in names}
            )
    while len(candidates) < trials:
        candidates.append({name: _random_value(rng, fmt) for name in names})
    return candidates


def check_binding(
    expr: Expr,
    optimized: Expr,
    binding: dict[str, SoftFloat],
    config: MachineConfig,
) -> tuple[EvalResult, EvalResult, bool, bool]:
    """Evaluate one candidate both ways; report what diverged.

    Returns ``(strict, optimized, value_diverged, flags_diverged)``.
    """
    strict_result = evaluate(expr, binding, STRICT.replace(fmt=config.fmt))
    optimized_result = evaluate(optimized, binding, config)
    value_diverged = not _same_value(
        strict_result.value, optimized_result.value
    )
    flags_diverged = strict_result.flags != optimized_result.flags
    return strict_result, optimized_result, value_diverged, flags_diverged


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Outcome of one candidate walk (:func:`search`).

    ``witness`` is the first candidate whose divergence survived the
    scalar re-check, with that check's two results and verdicts;
    ``goal`` is its candidate label.  ``evals`` counts the candidates
    consumed, admitted or not.  The guided search attaches its
    ``coverage`` map, and the exhaustive sweep the size of its domain
    (``states``; ``None`` for a walk that is not an enumeration).
    """

    witness: dict[str, SoftFloat] | None
    value_diverged: bool = False
    flags_diverged: bool = False
    strict_result: EvalResult | None = None
    optimized_result: EvalResult | None = None
    evals: int = 0
    goal: str | None = None
    coverage: object | None = None
    states: int | None = None

    @property
    def checked(self) -> int:
        """Alias of ``evals``, read by perfbench's exhaustive-sweep probe."""
        return self.evals

    @property
    def is_proof(self) -> bool:
        """True when an enumeration swept its whole domain without a
        divergence — an equivalence proof over the admitted inputs."""
        return self.witness is None and self.evals == self.states


#: Candidates per lane batch when a search runs on a backend.
_CHUNK = 4096


def search(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    candidates: Iterable[tuple[Mapping[str, SoftFloat], str | None]],
    *,
    check_flags: bool,
    backend: SoftFloatBackend | str | None = None,
    hooks: tuple[Callable, Callable] | None = None,
    admit: Callable[[Mapping[str, SoftFloat]], bool] | None = None,
) -> SearchResult:
    """Walk ``(binding, label)`` candidates in order and return the
    first divergence between ``expr`` under strict IEEE and its
    compiled form ``optimized`` under ``config``.

    Without ``backend`` each candidate is evaluated on its own, with
    the per-node ``hooks`` pair (strict side, optimized side) passed to
    :func:`evaluate`; the candidate iterator is advanced one step at a
    time, so a stream may steer by what the hooks saw.  With
    ``backend`` the candidates run in lane batches through
    :func:`repro.optsim.batch_eval.evaluate_many`.  Either way a hit is
    re-checked with :func:`check_binding` before it is reported, and a
    hit that does not hold there is walked past.  Candidates ``admit``
    rejects are not evaluated but still count in ``evals``.  Flag
    divergence counts only when ``check_flags`` is set.
    """
    strict_config = STRICT.replace(fmt=config.fmt)

    def differ(strict: EvalResult, opt: EvalResult) -> bool:
        return not _same_value(strict.value, opt.value) or (
            check_flags and strict.flags != opt.flags
        )

    def screened():
        """``(binding, label, suspect)`` for every candidate, in order;
        ``suspect`` when the two sides evaluated differently."""
        if backend is None:
            strict_hook, optimized_hook = hooks or (None, None)
            for binding, label in candidates:
                suspect = (admit is None or admit(binding)) and differ(
                    evaluate(expr, binding, strict_config, hook=strict_hook),
                    evaluate(optimized, binding, config, hook=optimized_hook),
                )
                yield binding, label, suspect
            return
        from repro.optsim.batch_eval import evaluate_many

        stream = iter(candidates)
        while chunk := list(islice(stream, _CHUNK)):
            admitted = [admit is None or admit(b) for b, _ in chunk]
            lanes = [b for (b, _), ok in zip(chunk, admitted) if ok]
            results = zip(
                evaluate_many(expr, lanes, strict_config, backend),
                evaluate_many(optimized, lanes, config, backend),
            )
            for (binding, label), ok in zip(chunk, admitted):
                yield binding, label, ok and differ(*next(results))

    evals = 0
    for binding, label, suspect in screened():
        evals += 1
        if not suspect:
            continue
        strict, opt, value_diverged, flags_diverged = check_binding(
            expr, optimized, binding, config
        )
        if value_diverged or (check_flags and flags_diverged):
            return SearchResult(
                witness=dict(binding),
                value_diverged=value_diverged,
                flags_diverged=flags_diverged,
                strict_result=strict,
                optimized_result=opt,
                evals=evals,
                goal=label,
            )
    return SearchResult(witness=None, evals=evals)


def random_search(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    *,
    seed: int,
    trials: int,
    check_flags: bool,
    extra_witnesses: Sequence[dict[str, SoftFloat]] = (),
    backend: SoftFloatBackend | str | None = None,
    admit: Callable[[Mapping[str, SoftFloat]], bool] | None = None,
) -> SearchResult:
    """The random baseline: :func:`divergence_candidates` walked by
    :func:`search`."""
    candidates = divergence_candidates(
        expr, config, seed=seed, trials=trials,
        extra_witnesses=extra_witnesses,
    )
    return search(
        expr, optimized, config,
        ((binding, None) for binding in candidates),
        check_flags=check_flags, backend=backend, admit=admit,
    )


def cross_validate(
    report: DivergenceReport, *, max_bindings: int = 32
) -> DivergenceReport:
    """Recompute the strict-IEEE side of a verdict through the
    exact-rounding oracle (:mod:`repro.oracle`).

    For a diverged report the witness binding is revalidated: the
    engine's strict result must match the oracle bit-for-bit, flags
    included.  For a no-divergence report the corner lattice is
    sampled (up to ``max_bindings``) and every strict evaluation is
    revalidated the same way, so "compliant" never rests on a shared
    engine bug.  Raises :class:`repro.oracle.OracleMismatch` when the
    engine and the oracle disagree; otherwise returns the report with
    ``oracle_checked`` set.
    """
    from repro.oracle.optcheck import oracle_evaluate
    from repro.oracle.runner import OracleMismatch

    fmt = report.config.fmt
    strict_config = STRICT.replace(fmt=fmt)
    if report.witness is not None:
        bindings_list = [report.witness]
    else:
        names = expr_variables(report.expr)
        corners = corner_values(fmt)
        if not names:
            bindings_list = [{}]
        elif len(names) == 1:
            bindings_list = [{names[0]: v} for v in corners]
        else:
            rng = random.Random(754)
            bindings_list = [{names[0]: v1, names[1]: v2}
                             for v1 in corners for v2 in corners]
            if len(names) > 2:
                for binding in bindings_list:
                    for name in names[2:]:
                        binding[name] = rng.choice(corners)
            rng.shuffle(bindings_list)
    for binding in bindings_list[:max_bindings]:
        strict = evaluate(report.expr, binding, strict_config)
        check = oracle_evaluate(report.expr, binding, strict_config)
        if (not _same_value(strict.value, check.value)
                or strict.flags != check.flags):
            from repro.fpenv.flags import flag_names

            shown = ", ".join(f"{k}={v!s}" for k, v in binding.items())
            raise OracleMismatch(
                f"strict evaluation of '{report.expr}' at"
                f" {shown or 'constants only'} disagrees with the exact"
                f" oracle: engine {strict.value!s}"
                f" {flag_names(strict.flags)} vs oracle {check.value!s}"
                f" {flag_names(check.flags)}"
            )
    return dataclasses.replace(report, oracle_checked=True)


def _same_value(a: SoftFloat, b: SoftFloat) -> bool:
    """Bit identity, with all NaNs considered one value (payloads are
    not semantically meaningful for compliance)."""
    if a.is_nan and b.is_nan:
        return True
    return a.same_bits(b)


def noncompliance_reasons(config: MachineConfig) -> tuple[str, ...]:
    """The list of reasons a config is not IEEE-754 compliant (empty for
    a compliant one)."""
    reasons = []
    if config.fp_contract:
        reasons.append(
            "fp-contract: a*b+c fuses into FMA, removing the product rounding"
        )
    if config.allow_reassoc:
        reasons.append("associative-math: +/* chains are reassociated")
    if config.no_signed_zeros:
        reasons.append("no-signed-zeros: the sign of zero is not preserved")
    if config.finite_math_only:
        reasons.append("finite-math-only: NaN/inf semantics are assumed away")
    if config.reciprocal_math:
        reasons.append("reciprocal-math: x/c becomes x*(1/c), double rounding")
    if config.ftz:
        reasons.append("FTZ: subnormal results flush to zero")
    if config.daz:
        reasons.append("DAZ: subnormal inputs are treated as zero")
    return tuple(reasons)


def is_standard_compliant(config: MachineConfig) -> bool:
    """True when the configuration cannot change any IEEE-defined result.

    >>> from repro.optsim.machine import O2, O3
    >>> is_standard_compliant(O2), is_standard_compliant(O3)
    (True, False)
    """
    return not noncompliance_reasons(config)
