"""The differential conformance runner.

For every generated case the runner executes the operation three ways —

1. the softfloat **engine**, through a softfloat backend
   (:func:`repro.softfloat.get_backend`; each lane a fresh environment),
2. the exact-rounding **oracle** (:mod:`repro.oracle.exact`),
3. where the host natively implements the format and the environment
   is the hardware default, **native** floats via numpy —

and demands bit-for-bit value agreement plus exact sticky-flag
agreement between engine and oracle.  Disagreements are shrunk toward
minimal failing bit patterns and recorded as structured
:class:`~repro.oracle.report.Discrepancy` records.

Every environment combination the quiz references is driven: all five
rounding directions crossed with FTZ/DAZ off and on.  Boundary-lattice
cases are checked under *every* combination; random-stream cases cycle
through the matrix round-robin so a budget buys breadth first.

A sweep runs as one job on the execution engine (:mod:`repro.engine`):
each op's case stream is cut into slices, each slice is one
``oracle.op_slice`` task, and a serial run is simply the in-process
engine with one slice per op.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import zlib
from collections.abc import Sequence

import numpy as np

from repro.engine.tasks import spec_job, task
from repro.errors import ReproError
from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle.cases import (
    EXHAUSTIVE_WIDTH_LIMIT,
    boundary_operands,
    generate_cases,
)
from repro.oracle.exact import OP_ARITY, OracleConfig, oracle_operation
from repro.oracle.native import (
    native_agrees,
    native_result_bits,
    native_supported,
)
from repro.oracle.report import ConformanceReport, Discrepancy, OpStats
from repro.oracle.shrink import shrink_case
from repro.softfloat.arith import fp_add, fp_div, fp_mul, fp_sub
from repro.softfloat.backend import get_backend, lane_dtype
from repro.softfloat.fma import fp_fma
from repro.softfloat.formats import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    E4M3,
    E5M2,
    TINY8,
    FloatFormat,
)
from repro.softfloat.sqrt import fp_sqrt
from repro.softfloat.value import SoftFloat
from repro.telemetry import get_telemetry

__all__ = [
    "ENGINE_OPS",
    "FORMATS_BY_NAME",
    "MODE_ALIASES",
    "OracleMismatch",
    "run_conformance",
    "check_case",
    "op_case_count",
    "eval_offset",
    "plan_op_slices",
    "run_op_slice",
]

ENGINE_OPS = {
    "add": fp_add,
    "sub": fp_sub,
    "mul": fp_mul,
    "div": fp_div,
    "sqrt": fp_sqrt,
    "fma": fp_fma,
}

FORMATS_BY_NAME: dict[str, FloatFormat] = {
    f.name: f
    for f in (TINY8, E4M3, E5M2, BFLOAT16, BINARY16, BINARY32, BINARY64,
              BINARY128)
}

#: CLI spellings for rounding modes.
MODE_ALIASES = {
    "rne": RoundingMode.NEAREST_EVEN,
    "rna": RoundingMode.NEAREST_AWAY,
    "rtz": RoundingMode.TOWARD_ZERO,
    "rtp": RoundingMode.TOWARD_POSITIVE,
    "rtn": RoundingMode.TOWARD_NEGATIVE,
}


class OracleMismatch(ReproError):
    """Raised by callers that demand conformance (e.g. the optsim
    cross-validation path) when the engine and oracle disagree."""


#: Batch granularity for backend-driven engine evaluation.  Large enough
#: to amortize numpy dispatch, small enough to keep the working set in
#: cache for wide formats.
_ENGINE_CHUNK = 4096

#: Evaluations drawn from the case stream per engine pass: the engine
#: side of a window is computed in bulk, then the oracle replays it in
#: stream order.  Bounds memory on large budgets.
_EVAL_WINDOW = 16 * _ENGINE_CHUNK


def _engine_results(
    op: str,
    fmt: FloatFormat,
    evals: Sequence[tuple],
    backend,
) -> list[tuple[int, FPFlag]]:
    """The engine side of ``evals``, computed through a softfloat backend.

    Rows end in ``(operands, mode, ftz, daz)``.  Evaluations are grouped
    by environment — one ``run_packed`` call handles a whole (mode,
    FTZ, DAZ) cell at a time — and results come back aligned with
    ``evals`` as ``(bits, FPFlag)`` pairs.  Cells the backend does not
    support (e.g. binary128 on the integer-lane batch kernels) run on
    :class:`~repro.softfloat.backend.ScalarBackend`, which supports
    every op and format, so the differential verdict never depends on
    backend coverage.
    """
    results: list = [None] * len(evals)
    groups: dict[tuple, list[int]] = {}
    for pos, row in enumerate(evals):
        groups.setdefault(row[-3:], []).append(pos)
    arity = OP_ARITY[op]
    dtype = lane_dtype(fmt)
    for (mode, ftz, daz), positions in groups.items():
        cell_backend = (backend if backend.supports(op, fmt, mode, ftz, daz)
                        else get_backend("scalar"))
        for start in range(0, len(positions), _ENGINE_CHUNK):
            chunk = positions[start:start + _ENGINE_CHUNK]
            lanes = [
                np.array([evals[pos][-4][slot] for pos in chunk], dtype=dtype)
                for slot in range(arity)
            ]
            batch = cell_backend.run_packed(op, fmt, lanes, mode, ftz, daz)
            for lane, pos in enumerate(chunk):
                results[pos] = (
                    int(batch.bits[lane]), FPFlag(int(batch.flags[lane]))
                )
    return results


def _compare(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    mode: RoundingMode,
    ftz: bool,
    daz: bool,
    tininess: str,
    engine_bits: int,
    engine_flags: FPFlag,
) -> Discrepancy | None:
    """The oracle half of one evaluation: ``None`` when the engine's
    result bits and sticky flags match the exact oracle's."""
    cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz, tininess=tininess)
    oracle = oracle_operation(
        op, cfg, *(SoftFloat(fmt, bits) for bits in operands))
    value_ok = engine_bits == oracle.bits
    flags_ok = engine_flags == oracle.flags
    if value_ok and flags_ok:
        return None
    kind = ("both" if not value_ok and not flags_ok
            else "value" if not value_ok else "flags")
    return Discrepancy(
        op=op,
        fmt_name=fmt.name,
        operands=operands,
        rounding=mode.value,
        ftz=ftz,
        daz=daz,
        tininess=tininess,
        engine_bits=engine_bits,
        oracle_bits=oracle.bits,
        engine_flags=engine_flags,
        oracle_flags=oracle.flags,
        kind=kind,
    )


def check_case(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    mode: RoundingMode,
    *,
    ftz: bool = False,
    daz: bool = False,
    tininess: str = "before",
) -> Discrepancy | None:
    """Run one case differentially on the scalar reference backend;
    ``None`` means engine == oracle."""
    [(engine_bits, engine_flags)] = _engine_results(
        op, fmt, [(operands, mode, ftz, daz)], get_backend("scalar"))
    return _compare(op, fmt, operands, mode, ftz, daz, tininess,
                    engine_bits, engine_flags)


def _shrunk(disc: Discrepancy, fmt: FloatFormat) -> Discrepancy:
    """Attach a minimized witness to a discrepancy."""
    mode = RoundingMode(disc.rounding)
    shrink_evals = get_telemetry().metrics.counter(
        "oracle.shrink_evals_total", op=disc.op
    )

    def fails(operands: tuple[int, ...]) -> bool:
        shrink_evals.inc()
        return check_case(
            disc.op, fmt, operands, mode,
            ftz=disc.ftz, daz=disc.daz, tininess=disc.tininess,
        ) is not None

    minimal = shrink_case(fails, disc.operands, fmt)
    return dataclasses.replace(disc, shrunk_operands=minimal)


def run_conformance(
    fmt: FloatFormat,
    ops: Sequence[str],
    *,
    budget: int = 10000,
    seed: int = 754,
    modes: Sequence[RoundingMode] | None = None,
    env_combos: Sequence[tuple[bool, bool]] = ((False, False), (True, True)),
    tininess: str = "before",
    native: bool = True,
    max_discrepancies: int = 100,
    engine_backend: str = "scalar",
    engine=None,
) -> ConformanceReport:
    """Run the full differential sweep and build the report.

    ``budget`` bounds the number of *evaluations* per operation (one
    evaluation = one case under one rounding/FTZ combination).  Boundary
    cases are driven under every combination in the matrix; the random
    stream then cycles combinations round-robin until the budget is
    spent.  Shrinking stops after ``max_discrepancies`` so a broken
    engine still terminates quickly.

    ``engine_backend`` selects the softfloat backend computing the
    engine side of every evaluation (see
    :func:`repro.softfloat.get_backend`); the verdicts are bit-identical
    across backends.

    The sweep is one job on ``engine`` (default: an in-process
    :class:`~repro.engine.Engine` with the result cache off).  Each op's
    case stream is cut into :attr:`~repro.engine.Engine.shards_per_unit`
    slices by :func:`plan_op_slices`, one ``oracle.op_slice`` shard per
    slice; the merge absorbs per-op stats slice by slice and
    concatenates discrepancies in (op, slice) order up to the global
    cap, so the canonical JSON is the same at any worker count.
    """
    from repro.engine import in_process_engine

    engine = engine or in_process_engine()
    modes = tuple(modes) if modes else tuple(RoundingMode)
    env_combos = tuple(tuple(combo) for combo in env_combos)
    unknown = sorted(set(ops) - set(ENGINE_OPS))
    if unknown:
        raise ValueError(f"unknown ops {unknown}; choose from"
                         f" {sorted(ENGINE_OPS)}")

    matrix_len = len(modes) * len(env_combos)
    base_params = {
        "format": fmt.name,
        "budget": budget,
        "seed": seed,
        "modes": [m.value for m in modes],
        "env_combos": [list(combo) for combo in env_combos],
        "tininess": tininess,
        "native": native,
        "max_discrepancies": max_discrepancies,
        "engine_backend": engine_backend,
    }
    param_list = []
    slice_counts = []
    for op in ops:
        slices = plan_op_slices(fmt, op, budget, matrix_len,
                                engine.shards_per_unit)
        slice_counts.append((op, len(slices)))
        param_list.extend(
            {**base_params, "op": op, "case_lo": lo, "case_hi": hi}
            for lo, hi in slices
        )

    def merge(results: list[dict]) -> ConformanceReport:
        report = ConformanceReport(
            fmt_name=fmt.name,
            seed=seed,
            budget=budget,
            tininess=tininess,
            rounding_modes=tuple(m.value for m in modes),
            env_combos=env_combos,
        )
        shard_results = iter(results)
        for op, n_slices in slice_counts:
            stats = OpStats(op=op)
            for result in itertools.islice(shard_results, n_slices):
                stats.absorb(OpStats.from_dict(result["stats"]))
                for payload in result["discrepancies"]:
                    if len(report.discrepancies) < max_discrepancies:
                        report.discrepancies.append(
                            Discrepancy.from_dict(payload))
            report.op_stats[op] = stats
        return report

    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "oracle.run", format=fmt.name, budget=budget, seed=seed,
        ops=",".join(ops),
    ):
        report = engine.run(spec_job(
            f"oracle.{fmt.name}", "oracle.op_slice", param_list,
            seed=seed, merge=merge,
        ))
    if telemetry.enabled:
        for op, stats in report.op_stats.items():
            telemetry.metrics.gauge("oracle.evals_per_sec", op=op).set(
                stats.evals_per_sec
            )
    return report


def _full_matrix_cases(
    fmt: FloatFormat, arity: int, budget: int, matrix_len: int
) -> int:
    """How many leading cases are driven under *every* matrix combo.

    Boundary cases (and exhaustive tiny formats) get the full matrix;
    this is the budget split the serial loop has always used, factored
    out so shard planning computes the identical number.
    """
    full_matrix_cases = max(1, budget // (4 * matrix_len))
    if fmt.width <= EXHAUSTIVE_WIDTH_LIMIT:
        space = (1 << fmt.width) ** arity
        if space * matrix_len <= budget:
            full_matrix_cases = space
    else:
        n_corners = len(boundary_operands(fmt))
        full_matrix_cases = min(full_matrix_cases, n_corners ** min(arity, 2))
    return full_matrix_cases


def _generated_case_count(fmt: FloatFormat, arity: int, budget: int) -> int:
    """How many cases :func:`generate_cases` yields for these params."""
    if fmt.width <= EXHAUSTIVE_WIDTH_LIMIT:
        space = (1 << fmt.width) ** arity
        if space <= budget:
            return space
    return budget


def eval_offset(
    case_index: int, full_matrix_cases: int, matrix_len: int, budget: int
) -> int:
    """Evaluations the serial loop has spent before ``case_index``.

    Closed-form: the first ``full_matrix_cases`` cases cost
    ``matrix_len`` evaluations each, every later case costs one, and
    the loop never exceeds ``budget``.  This is what lets a shard know
    its position in the op's global budget without replaying the
    prefix.
    """
    ideal = (matrix_len * min(case_index, full_matrix_cases)
             + max(0, case_index - full_matrix_cases))
    return min(ideal, budget)


def op_case_count(
    fmt: FloatFormat, op: str, budget: int, matrix_len: int
) -> int:
    """The number of cases the serial loop processes for one op."""
    arity = OP_ARITY[op]
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    generated = _generated_case_count(fmt, arity, budget)
    if budget <= fmc * matrix_len:
        exhausted_at = -(-budget // matrix_len)  # ceil division
    else:
        exhausted_at = fmc + (budget - fmc * matrix_len)
    return min(generated, exhausted_at)


def plan_op_slices(
    fmt: FloatFormat, op: str, budget: int, matrix_len: int, n_slices: int
) -> list[tuple[int, int]]:
    """Split one op's case stream into up to ``n_slices`` contiguous
    ``(case_lo, case_hi)`` ranges, balanced by *evaluation* count (the
    leading full-matrix cases are ``matrix_len`` times heavier than the
    round-robin tail).  Concatenating the slices reproduces the serial
    sweep exactly; the split only chooses where the seams fall.
    """
    n_cases = op_case_count(fmt, op, budget, matrix_len)
    if n_cases == 0:
        return []
    arity = OP_ARITY[op]
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    total_evals = eval_offset(n_cases, fmc, matrix_len, budget)
    boundaries = [0]
    for j in range(1, n_slices):
        target = j * total_evals // n_slices
        if target <= fmc * matrix_len:
            case = target // matrix_len
        else:
            case = fmc + (target - fmc * matrix_len)
        boundaries.append(min(max(case, boundaries[-1]), n_cases))
    boundaries.append(n_cases)
    return [
        (lo, hi)
        for lo, hi in zip(boundaries, boundaries[1:])
        if hi > lo
    ]


def _iter_evals(
    op: str,
    fmt: FloatFormat,
    budget: int,
    seed: int,
    matrix: tuple,
    case_lo: int,
    case_hi: int | None,
):
    """Yield one op's evaluation stream (or a slice of it).

    Each item is ``(index, first_of_case, operands, mode, ftz, daz)``
    where ``first_of_case`` marks the first evaluation of a new case
    (the per-case statistics hook).  This generator is the single
    source of truth for combo selection and budget cutoff.
    """
    arity = OP_ARITY[op]
    matrix_len = len(matrix)
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    case_seed = seed ^ (zlib.crc32(op.encode()) & 0xFFFF)
    evals_spent = eval_offset(case_lo, fmc, matrix_len, budget)

    cases = generate_cases(fmt, arity, budget, case_seed)
    if case_lo:
        cases = itertools.islice(cases, case_lo, None)
    for index, operands in enumerate(cases, start=case_lo):
        if case_hi is not None and index >= case_hi:
            return
        if evals_spent >= budget:
            return
        if index < fmc:
            combos = matrix
        else:
            combos = (matrix[(index - fmc) % matrix_len],)
        first = True
        for mode, (ftz, daz) in combos:
            if evals_spent >= budget:
                break
            evals_spent += 1
            yield index, first, operands, mode, ftz, daz
            first = False


def run_op_slice(
    fmt: FloatFormat,
    op: str,
    budget: int,
    seed: int,
    matrix: tuple,
    tininess: str,
    native: bool,
    max_discrepancies: int,
    case_lo: int,
    case_hi: int | None,
    engine_backend: str = "scalar",
) -> tuple[OpStats, list[Discrepancy]]:
    """Run cases ``[case_lo, case_hi)`` of one op's differential sweep
    (one ``oracle.op`` span).

    A pure function of its arguments: the case stream is regenerated
    from the seed and fast-forwarded, and the slice's position in the
    op's evaluation budget is computed in closed form — so the union
    of disjoint slices is the whole sweep, bit for bit.  The first
    ``max_discrepancies`` discrepancies are shrunk and returned.

    The engine side of each window of evaluations is computed through
    the ``engine_backend`` in bulk (grouped by rounding/FTZ/DAZ cell),
    then the oracle comparison replays the window in stream order.
    ``engine_backend`` never changes *which* evaluations a slice
    performs, only how the engine side is computed.  With telemetry
    enabled each evaluation's oracle half is timed into the
    ``oracle.eval_seconds`` histogram.
    """
    telemetry = get_telemetry()
    instrumented = telemetry.enabled
    metrics = telemetry.metrics
    evals_total = metrics.counter("oracle.evals_total", op=op)
    discrepancies_total = metrics.counter("oracle.discrepancies_total", op=op)
    # mergeable: per-shard deltas from engine workers must fold into
    # the parent's distribution with order-independent quantiles
    latency = metrics.log_histogram("oracle.eval_seconds", op=op)
    backend = get_backend(engine_backend)
    check_native = native and native_supported(op, fmt)
    stats = OpStats(op=op)
    sink: list[Discrepancy] = []

    with telemetry.tracer.span("oracle.op", op=op, format=fmt.name) as span:
        started = time.perf_counter()
        stream = _iter_evals(op, fmt, budget, seed, matrix, case_lo, case_hi)
        # Hot-loop bindings: the per-eval instrumented cost is two clock
        # reads and one histogram observation; the eval counter is a
        # local integer flushed once after the loop (the registry value
        # is only read at snapshot/capture time, so batching is
        # invisible).
        clock = time.perf_counter
        observe_latency = latency.observe
        evals_done = 0
        while window := list(itertools.islice(stream, _EVAL_WINDOW)):
            engine_side = _engine_results(op, fmt, window, backend)
            for (_, first, operands, mode, ftz, daz), (engine_bits,
                                                        engine_flags) in zip(
                    window, engine_side):
                if first:
                    stats.cases += 1
                stats.evals += 1
                if instrumented:
                    check_started = clock()
                disc = _compare(op, fmt, operands, mode, ftz, daz, tininess,
                                engine_bits, engine_flags)
                if instrumented:
                    observe_latency(clock() - check_started)
                    evals_done += 1
                if disc is None:
                    stats.value_agree += 1
                    stats.flag_agree += 1
                else:
                    stats.discrepancies += 1
                    discrepancies_total.inc()
                    if disc.kind == "flags":
                        stats.value_agree += 1
                    elif disc.kind == "value":
                        stats.flag_agree += 1
                    if len(sink) < max_discrepancies:
                        sink.append(_shrunk(disc, fmt))
                # Native third opinion under the hardware-default env.
                if (check_native and not ftz and not daz
                        and mode is RoundingMode.NEAREST_EVEN):
                    native_bits = native_result_bits(op, fmt, operands)
                    if native_bits is not None:
                        stats.native_evals += 1
                        if native_agrees(fmt, native_bits, engine_bits):
                            stats.native_agree += 1
        if evals_done:
            evals_total.inc(evals_done)
        stats.wall_seconds = time.perf_counter() - started
        span.set("evals", stats.evals)
        span.set("discrepancies", stats.discrepancies)
    return stats, sink


@task("oracle.op_slice")
def _op_slice_task(params: dict, ctx) -> dict:
    """Engine task: cases ``[case_lo, case_hi)`` of one op's sweep."""
    modes = tuple(RoundingMode(v) for v in params["modes"])
    env_combos = tuple((ftz, daz) for ftz, daz in params["env_combos"])
    stats, discrepancies = run_op_slice(
        FORMATS_BY_NAME[params["format"]],
        params["op"],
        params["budget"],
        params["seed"],
        tuple(itertools.product(modes, env_combos)),
        params["tininess"],
        params["native"],
        params["max_discrepancies"],
        params["case_lo"],
        params["case_hi"],
        engine_backend=params.get("engine_backend", "scalar"),
    )
    return {
        "stats": stats.to_dict(),
        "discrepancies": [d.to_dict() for d in discrepancies],
    }
