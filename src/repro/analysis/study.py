"""One-call full study reproduction.

:func:`run_study` simulates both cohorts and regenerates every table
and figure in the paper's evaluation; :func:`analyze` does the same for
an arbitrary set of response records (e.g. a real survey export read
with :mod:`repro.survey.io`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.analysis.backgrounds import ALL_BACKGROUND_FIGURES
from repro.analysis.common import FigureResult
from repro.analysis.factors import (
    fig16_contributed_size,
    fig17_area,
    fig18_dev_role,
    fig19_formal_training,
    fig20_area_opt,
    fig21_dev_role_opt,
)
from repro.analysis.performance import fig12_performance, fig13_histogram
from repro.analysis.questions import fig14_core_questions, fig15_opt_questions
from repro.analysis.suspicion import fig22_suspicion
from repro.engine.tasks import spec_job, split_evenly, task
from repro.population.response_model import (
    simulate_developers,
    simulate_students,
)
from repro.survey.records import Cohort, SurveyResponse
from repro.telemetry import get_telemetry

__all__ = ["StudyResults", "analyze", "run_study"]


@dataclasses.dataclass(frozen=True)
class StudyResults:
    """Every regenerated figure, in paper order, plus the raw records."""

    figures: tuple[FigureResult, ...]
    responses: tuple[SurveyResponse, ...]

    def figure(self, figure_id: str) -> FigureResult:
        """Look up a figure by id (e.g. ``"Figure 14"``)."""
        for result in self.figures:
            if result.figure_id == figure_id:
                return result
        raise KeyError(f"no figure {figure_id!r} in this study")

    def render(self) -> str:
        """All figures as one report."""
        return "\n\n".join(result.render() for result in self.figures)

    def to_json(self) -> str:
        """Machine-readable results: every figure's data, keyed by id.

        The counterpart to :meth:`render` for downstream comparison
        scripts (paper-vs-measured tables, plotting, regression checks
        across library versions).
        """
        import json

        payload = {
            result.figure_id: {
                "title": result.title,
                "data": result.data,
            }
            for result in self.figures
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


def analyze(responses: Sequence[SurveyResponse]) -> StudyResults:
    """Regenerate every figure from arbitrary response records."""
    telemetry = get_telemetry()
    responses = tuple(responses)
    figures: list[FigureResult] = []

    def generate(generator, *args) -> None:
        with telemetry.tracer.span("study.figure", figure=generator.__name__):
            figures.append(generator(responses, *args))
        telemetry.metrics.counter("study.figures_generated_total").inc()

    with telemetry.tracer.span("study.analyze", responses=len(responses)):
        for generator in ALL_BACKGROUND_FIGURES:
            generate(generator)
        generate(fig12_performance)
        generate(fig13_histogram)
        generate(fig14_core_questions)
        generate(fig15_opt_questions)
        generate(fig16_contributed_size)
        generate(fig17_area)
        generate(fig18_dev_role)
        generate(fig19_formal_training)
        generate(fig20_area_opt)
        generate(fig21_dev_role_opt)
        generate(fig22_suspicion, Cohort.DEVELOPER)
        if any(r.cohort is Cohort.STUDENT for r in responses):
            generate(fig22_suspicion, Cohort.STUDENT)
    return StudyResults(figures=tuple(figures), responses=responses)


@task("study.simulate_slice")
def _simulate_slice_task(params: dict, ctx) -> list[dict]:
    """Engine task: respondents ``[start, stop)`` of one cohort, as
    records."""
    simulate = {
        "developer": simulate_developers,
        "student": simulate_students,
    }[params["cohort"]]
    responses = simulate(
        params["n"], params["seed"],
        start=params["start"], stop=params["stop"],
    )
    return [r.to_dict() for r in responses]


def run_study(
    seed: int = 754, n_developers: int = 199, n_students: int = 52,
    *, engine=None,
) -> StudyResults:
    """Simulate both cohorts and regenerate the paper's full evaluation.

    Simulation (the expensive phase) is one job on ``engine`` (default:
    an in-process :class:`~repro.engine.Engine` with the result cache
    off), each cohort cut into
    :attr:`~repro.engine.Engine.shards_per_unit` contiguous ranges; the
    figures are regenerated here from the merged records.  Respondents
    are pure functions of their cohort position, so the results render
    and serialize identically at any worker count.
    """
    from repro.engine import in_process_engine

    engine = engine or in_process_engine()
    param_list = [
        {"cohort": cohort, "n": n, "seed": seed, "start": lo, "stop": hi}
        for cohort, n in (("developer", n_developers), ("student", n_students))
        for lo, hi in split_evenly(n, engine.shards_per_unit)
    ]

    def merge(results: list[list[dict]]) -> StudyResults:
        return analyze([
            SurveyResponse.from_dict(record)
            for records in results
            for record in records
        ])

    with get_telemetry().tracer.span(
        "study.run", seed=seed, developers=n_developers, students=n_students
    ):
        return engine.run(spec_job(
            "study", "study.simulate_slice", param_list,
            seed=seed, merge=merge,
        ))
