"""Concrete, re-checkable witnesses for static safety verdicts.

A lint that says "this optimization may change your result" earns far
more trust when it can show an *input* on which the change actually
happens.  This module turns the static verdicts of
:mod:`repro.staticfp.safety` into exactly that:

- :class:`Witness` — a fully serialized counterexample: the operand
  bits, both evaluations (value and sticky flags), the complete machine
  configuration, and a Herbgrind-style :class:`Localization` naming
  where the two evaluations first part ways (which rewrite, at which
  subexpression, or which environment control).  Everything round-trips
  through JSON, and :func:`verify_witness` re-derives the divergence
  from the serialized form alone — a witness is evidence precisely
  because anyone can re-run it.

- :func:`find_witness` — the driver: guided search inside the
  analysis-derived feasible regions (strategy ``"guided"``), the
  random baseline filtered to the admitted bindings (``"random"``), or
  full enumeration on small formats (``"exhaustive"``).  All three are
  candidate sources for one walk, :func:`repro.optsim.compliance
  .search`, whose result maps to one :class:`WitnessReport`.  It
  distinguishes *witnessed* (verified counterexample in hand),
  *proved-safe* / *refuted* (exhaustive sweep found the domain clean —
  for a ``safe`` verdict that's confirmation, for an ``unsafe`` one a
  refutation of the static over-approximation), and *unresolved* (no
  witness within budget; the verdict stands as an admission of
  ignorance).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping

from repro.fpenv.flags import flag_names
from repro.fpenv.rounding import RoundingMode
from repro.optsim.ast import Const, Expr, unique_size, walk_unique
from repro.optsim.evaluator import EvalResult, evaluate
from repro.optsim.machine import STRICT, MachineConfig
from repro.optsim.pipeline import enabled_passes, optimize
from repro.softfloat import SoftFloat, format_hex
from repro.softfloat.formats import FloatFormat

__all__ = [
    "Localization",
    "Witness",
    "WitnessReport",
    "find_witness",
    "localize_divergence",
    "verify_witness",
]


# ----------------------------------------------------------------------
# Localization: name where the divergence comes from
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Localization:
    """Where the strict and optimized evaluations first part ways.

    ``kind`` is ``"rewrite"`` (a pass transformation alone explains the
    divergence), ``"environment"`` (the config's rounding/FTZ/DAZ alone
    does), ``"rewrite+environment"`` (both layers contribute), or
    ``"unlocalized"`` (the divergence is real but neither bisection
    isolated a site — e.g. it only appears in the composition).
    """

    kind: str
    pass_name: str | None = None
    site_before: str | None = None
    site_after: str | None = None
    env_site: str | None = None
    detail: str = ""

    def describe(self) -> str:
        parts = [f"localized: {self.kind}"]
        if self.pass_name:
            parts.append(
                f"pass '{self.pass_name}' rewrote '{self.site_before}'"
                f" -> '{self.site_after}'"
            )
        if self.env_site:
            parts.append(f"environment first bites at '{self.env_site}'")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pass": self.pass_name,
            "site_before": self.site_before,
            "site_after": self.site_after,
            "env_site": self.env_site,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Localization":
        return cls(
            kind=data["kind"],
            pass_name=data.get("pass"),
            site_before=data.get("site_before"),
            site_after=data.get("site_after"),
            env_site=data.get("env_site"),
            detail=data.get("detail", ""),
        )


def _evals_differ(
    a: EvalResult, b: EvalResult, *, check_flags: bool = True
) -> bool:
    from repro.optsim.compliance import _same_value

    return not _same_value(a.value, b.value) or (
        check_flags and a.flags != b.flags
    )


def _env_site(
    optimized: Expr,
    binding: Mapping[str, SoftFloat],
    config: MachineConfig,
) -> str | None:
    """The smallest compiled subtree whose evaluation already differs
    between the strict environment and the config's environment."""
    strict_config = STRICT.replace(fmt=config.fmt)
    smallest: Expr | None = None
    for node in walk_unique(optimized):
        if isinstance(node, Const):
            continue
        strict = evaluate(node, binding, strict_config)
        under = evaluate(node, binding, config)
        if _evals_differ(strict, under):
            if smallest is None or unique_size(node) < unique_size(smallest):
                smallest = node
    return str(smallest) if smallest is not None else None


def _minimal_rewrite_pair(
    before: Expr,
    after: Expr,
    binding: Mapping[str, SoftFloat],
    config: MachineConfig,
) -> tuple[Expr, Expr]:
    """Descend a differing before/after tree pair to the smallest
    corresponding subtrees whose strict evaluations still differ —
    the Herbgrind-style bisection of the expression DAG."""
    strict_config = STRICT.replace(fmt=config.fmt)
    b_children = before.children()
    a_children = after.children()
    if len(b_children) == len(a_children):
        for b_child, a_child in zip(b_children, a_children):
            if b_child == a_child:
                continue
            try:
                eb = evaluate(b_child, binding, strict_config)
                ea = evaluate(a_child, binding, strict_config)
            except Exception:
                continue
            if _evals_differ(eb, ea):
                return _minimal_rewrite_pair(
                    b_child, a_child, binding, config
                )
    return before, after


def localize_divergence(
    expr: Expr,
    optimized: Expr,
    binding: Mapping[str, SoftFloat],
    config: MachineConfig,
) -> Localization:
    """Attribute a verified divergence to its source layer(s).

    Replays the pass pipeline under the *strict* environment to find
    the first pass application that changes the evaluation at this
    binding (isolating the rewrite layer from the environment layer),
    then bisects that application down to the smallest rewritten
    subtree pair; independently finds the smallest compiled subtree
    where the configured environment alone changes the evaluation.
    """
    strict_config = STRICT.replace(fmt=config.fmt)

    # Rewrite layer: replay the pipeline pass by pass, strict env.
    pass_name = site_before = site_after = None
    current = expr
    for _ in range(8):
        previous = current
        for pass_ in enabled_passes(config):
            rewritten = pass_.apply(current, config)
            if rewritten != current:
                before_eval = evaluate(current, binding, strict_config)
                after_eval = evaluate(rewritten, binding, strict_config)
                if _evals_differ(before_eval, after_eval):
                    b, a = _minimal_rewrite_pair(
                        current, rewritten, binding, config
                    )
                    pass_name = pass_.name
                    site_before, site_after = str(b), str(a)
                    break
            current = rewritten
        if pass_name is not None or current == previous:
            break

    env_site = None
    if (config.rounding, config.ftz, config.daz) != (
        STRICT.rounding, STRICT.ftz, STRICT.daz
    ):
        env_site = _env_site(optimized, binding, config)

    if pass_name and env_site:
        kind = "rewrite+environment"
    elif pass_name:
        kind = "rewrite"
    elif env_site:
        kind = "environment"
    else:
        kind = "unlocalized"
    return Localization(
        kind=kind,
        pass_name=pass_name,
        site_before=site_before,
        site_after=site_after,
        env_site=env_site,
    )


# ----------------------------------------------------------------------
# The witness record
# ----------------------------------------------------------------------
def _config_to_dict(config: MachineConfig) -> dict:
    return {
        "name": config.name,
        "fmt": config.fmt.name,
        "rounding": config.rounding.name,
        "ftz": config.ftz,
        "daz": config.daz,
        "fp_contract": config.fp_contract,
        "allow_reassoc": config.allow_reassoc,
        "no_signed_zeros": config.no_signed_zeros,
        "finite_math_only": config.finite_math_only,
        "reciprocal_math": config.reciprocal_math,
        "tininess": "before",  # the engine's fixed detection convention
    }


def _config_from_dict(data: Mapping) -> MachineConfig:
    from repro.oracle import FORMATS_BY_NAME

    return MachineConfig(
        name=data["name"],
        fmt=FORMATS_BY_NAME[data["fmt"]],
        rounding=RoundingMode[data["rounding"]],
        ftz=data["ftz"],
        daz=data["daz"],
        fp_contract=data["fp_contract"],
        allow_reassoc=data["allow_reassoc"],
        no_signed_zeros=data["no_signed_zeros"],
        finite_math_only=data["finite_math_only"],
        reciprocal_math=data["reciprocal_math"],
    )


def _result_to_dict(result: EvalResult) -> dict:
    return {
        "bits": f"{result.value.bits:#x}",
        "value": str(result.value),
        "hex": format_hex(result.value),
        "flags": sorted(flag_names(result.flags)),
    }


@dataclasses.dataclass(frozen=True)
class Witness:
    """One verified counterexample, fully serialized.

    Every field is a JSON-safe primitive: the witness is the *artifact*
    a lint report ships, and :func:`verify_witness` must be able to
    re-derive the divergence from this record alone.
    """

    expr: str
    compiled: str
    config: dict
    binding: dict  # name -> {"bits": hex str, "value": str, "hex": str}
    strict: dict
    optimized: dict
    value_diverged: bool
    flags_diverged: bool
    strategy: str
    evals: int
    verified: bool = False
    localization: Localization | None = None

    @classmethod
    def from_search(
        cls,
        expr: Expr,
        optimized: Expr,
        config: MachineConfig,
        binding: Mapping[str, SoftFloat],
        strict_result: EvalResult,
        optimized_result: EvalResult,
        *,
        value_diverged: bool,
        flags_diverged: bool,
        strategy: str,
        evals: int,
        localization: Localization | None = None,
    ) -> "Witness":
        return cls(
            expr=str(expr),
            compiled=str(optimized),
            config=_config_to_dict(config),
            binding={
                name: {
                    "bits": f"{value.bits:#x}",
                    "value": str(value),
                    "hex": format_hex(value),
                }
                for name, value in sorted(binding.items())
            },
            strict=_result_to_dict(strict_result),
            optimized=_result_to_dict(optimized_result),
            value_diverged=value_diverged,
            flags_diverged=flags_diverged,
            strategy=strategy,
            evals=evals,
            localization=localization,
        )

    # ------------------------------------------------------------------
    def machine_config(self) -> MachineConfig:
        return _config_from_dict(self.config)

    def binding_values(self) -> dict[str, SoftFloat]:
        fmt = self.machine_config().fmt
        return {
            name: SoftFloat(fmt, int(entry["bits"], 16))
            for name, entry in self.binding.items()
        }

    def describe(self) -> str:
        shown = ", ".join(
            f"{name} = {entry['value']} ({entry['hex']})"
            for name, entry in self.binding.items()
        ) or "(no free variables)"
        what = []
        if self.value_diverged:
            what.append(
                f"value {self.strict['value']} -> {self.optimized['value']}"
            )
        if self.flags_diverged:
            what.append(
                f"flags [{','.join(self.strict['flags']) or 'none'}] ->"
                f" [{','.join(self.optimized['flags']) or 'none'}]"
            )
        lines = [
            f"witness ({self.strategy}, {self.evals} evals,"
            f" {'verified' if self.verified else 'unverified'}): {shown}",
            f"  diverges: {'; '.join(what)}",
        ]
        if self.localization is not None:
            lines.append(f"  {self.localization.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "expr": self.expr,
            "compiled": self.compiled,
            "config": dict(self.config),
            "binding": {k: dict(v) for k, v in self.binding.items()},
            "strict": dict(self.strict),
            "optimized": dict(self.optimized),
            "value_diverged": self.value_diverged,
            "flags_diverged": self.flags_diverged,
            "strategy": self.strategy,
            "evals": self.evals,
            "verified": self.verified,
            "localization": (
                self.localization.to_dict() if self.localization else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Witness":
        loc = data.get("localization")
        return cls(
            expr=data["expr"],
            compiled=data["compiled"],
            config=dict(data["config"]),
            binding={k: dict(v) for k, v in data["binding"].items()},
            strict=dict(data["strict"]),
            optimized=dict(data["optimized"]),
            value_diverged=data["value_diverged"],
            flags_diverged=data["flags_diverged"],
            strategy=data["strategy"],
            evals=data["evals"],
            verified=data.get("verified", False),
            localization=Localization.from_dict(loc) if loc else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "Witness":
        return cls.from_dict(json.loads(text))


def verify_witness(witness: Witness) -> Witness:
    """Re-derive the divergence from the serialized record alone.

    Parses the expression, re-runs the pass pipeline, evaluates both
    sides at the recorded bits, and checks that the divergence kind
    *and both recorded results* reproduce.  Returns a copy with
    ``verified`` set accordingly — the check_binding-backed seal every
    corpus witness must carry.
    """
    from repro.optsim.compliance import check_binding
    from repro.optsim.parser import parse_expr

    config = witness.machine_config()
    expr = parse_expr(witness.expr)
    optimized = optimize(expr, config)
    binding = witness.binding_values()
    strict, opt, value_diverged, flags_diverged = check_binding(
        expr, optimized, binding, config
    )
    ok = (
        str(optimized) == witness.compiled
        and value_diverged == witness.value_diverged
        and flags_diverged == witness.flags_diverged
        and (value_diverged or flags_diverged)
        and f"{strict.value.bits:#x}" == witness.strict["bits"]
        and f"{opt.value.bits:#x}" == witness.optimized["bits"]
        and sorted(flag_names(strict.flags)) == witness.strict["flags"]
        and sorted(flag_names(opt.flags)) == witness.optimized["flags"]
    )
    return dataclasses.replace(witness, verified=ok)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
#: Formats small enough to enumerate exhaustively per variable.
_EXHAUSTIVE_MAX_STATES = 1 << 22


@dataclasses.dataclass(frozen=True)
class WitnessReport:
    """What the witness engine concluded for one expression/config.

    ``outcome`` is one of:

    - ``"witnessed"`` — a verified counterexample is attached;
    - ``"proved-safe"`` — exhaustive enumeration swept the whole
      admitted domain without divergence (equivalence proof over it);
    - ``"refuted"`` — same clean sweep, but against an *unsafe* static
      verdict: the over-approximation cried wolf on this domain;
    - ``"unresolved"`` — no witness within budget, no proof either.
    """

    outcome: str
    witness: Witness | None
    coverage: object | None
    evals: int
    states: int
    strategy: str
    detail: str = ""

    @property
    def witnessed(self) -> bool:
        return self.outcome == "witnessed"

    def describe(self) -> str:
        lines = [f"witness search ({self.strategy}): {self.outcome}"]
        if self.detail:
            lines[0] += f" — {self.detail}"
        if self.witness is not None:
            lines.append(self.witness.describe())
        if self.coverage is not None:
            lines.append("  " + self.coverage.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "strategy": self.strategy,
            "evals": self.evals,
            "states": self.states,
            "witness": self.witness.to_dict() if self.witness else None,
            "coverage": (
                self.coverage.to_dict() if self.coverage is not None
                else None
            ),
            "detail": self.detail,
        }


def find_witness(
    expr: Expr,
    config: MachineConfig,
    bindings: Mapping[str, object] | None = None,
    *,
    strategy: str = "guided",
    seed: int = 754,
    trials: int = 2000,
    check_flags: bool = True,
    localize: bool = True,
    safety=None,
    analysis=None,
    expect_safe: bool | None = None,
    max_states: int = _EXHAUSTIVE_MAX_STATES,
) -> WitnessReport:
    """Search for (or exhaustively rule out) a divergence witness.

    ``strategy`` selects ``"guided"`` (region- and coverage-steered),
    ``"random"`` (the random baseline, filtered to the admitted
    bindings), or ``"exhaustive"`` (full enumeration — small formats
    only).
    ``expect_safe`` tells an exhaustive clean sweep how to label
    itself: confirmation of a safe verdict (``proved-safe``) or
    refutation of an unsafe one (``refuted``).  ``safety`` and
    ``analysis`` (of ``expr``) are handed on to the guided search.
    """
    from repro.optsim import guided
    from repro.optsim.compliance import random_search

    optimized = optimize(expr, config)
    if strategy == "guided":
        result = guided.guided_search(
            expr, optimized, config, bindings=bindings, safety=safety,
            analysis=analysis, seed=seed, trials=trials,
            check_flags=check_flags,
        )
    elif strategy == "random":
        from repro.staticfp.analyze import as_abstract

        # The metric both strategies share is candidates *consumed*:
        # admission-rejected draws cost the random baseline budget
        # exactly as they would cost it wall-clock.
        admitted = {
            name: as_abstract(value, config.fmt)
            for name, value in (bindings or {}).items()
        }
        result = random_search(
            expr, optimized, config, seed=seed, trials=trials,
            check_flags=check_flags,
            admit=lambda binding: all(
                name not in admitted or admitted[name].admits(value)
                for name, value in binding.items()
            ),
        )
    elif strategy == "exhaustive":
        result = guided.exhaustive_sweep(
            expr, optimized, config,
            bindings=bindings, check_flags=check_flags,
            max_states=max_states,
        )
    else:
        raise ValueError(f"unknown witness strategy {strategy!r}")

    if result.witness is not None:
        outcome = "witnessed"
        detail = f"goal '{result.goal}'" if result.goal else ""
    elif result.is_proof:
        outcome = "refuted" if expect_safe is False else "proved-safe"
        detail = (
            f"all {result.states} admitted operand combinations"
            f" of {config.fmt.name} evaluate identically"
        )
    else:
        outcome = "unresolved"
        detail = f"no divergence in {result.evals} {strategy} candidates"
    return WitnessReport(
        outcome=outcome,
        witness=(
            _seal(expr, optimized, config, result, strategy=strategy,
                  localize=localize)
            if result.witness is not None else None
        ),
        coverage=result.coverage,
        evals=result.evals,
        states=result.states or 0,
        strategy=strategy,
        detail=detail,
    )


def _seal(
    expr: Expr,
    optimized: Expr,
    config: MachineConfig,
    result,
    *,
    strategy: str,
    localize: bool,
) -> Witness:
    """Build, optionally localize, and verify the witness record of a
    search result."""
    localization = (
        localize_divergence(expr, optimized, result.witness, config)
        if localize else None
    )
    witness = Witness.from_search(
        expr, optimized, config, result.witness, result.strict_result,
        result.optimized_result,
        value_diverged=result.value_diverged,
        flags_diverged=result.flags_diverged,
        strategy=strategy, evals=result.evals, localization=localization,
    )
    return verify_witness(witness)
