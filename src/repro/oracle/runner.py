"""The differential conformance runner.

For every generated case the runner executes the operation three ways —

1. the softfloat **engine**, through a softfloat backend
   (:func:`repro.softfloat.get_backend`; each lane a fresh environment),
2. the exact-rounding **oracle** (:mod:`repro.oracle.exact`), one
   independent call per evaluation,
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

The runner is columnar: the case stream is generated a window at a time
straight into operand and cell columns (:func:`_eval_windows`), the
engine side is computed as result columns (one backend call per serving
tier), the oracle side as one call per evaluation, and the verdicts as
array comparisons.  Only mismatching positions become records, in
stream order.

A sweep runs as one job on the execution engine (:mod:`repro.engine`):
each op's case stream is cut into slices, each slice is one
``oracle.op_slice`` task, and a serial run is simply the in-process
engine with one slice per op.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import time
import zlib
from collections.abc import Sequence

import numpy as np

from repro.engine.tasks import spec_job, task
from repro.errors import ReproError
from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
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
from repro.softfloat.backend import (
    MODE_CODES,
    AutoBackend,
    get_backend,
    lane_dtype,
)
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

#: Evaluations drawn from the case stream per window: the engine,
#: oracle and native sides of a window are computed as columns, then
#: compared.  Bounds memory on large budgets.
_EVAL_WINDOW = 16 * _ENGINE_CHUNK


def _tier(backend, op: str, fmt: FloatFormat, cell: tuple):
    """The backend that serves one (mode, FTZ, DAZ) cell's lanes: what
    ``auto`` selects, else ``backend`` itself where it supports the
    cell and the scalar reference where it does not."""
    if isinstance(backend, AutoBackend):
        return backend.select(op, fmt, *cell)
    return (backend if backend.supports(op, fmt, *cell)
            else get_backend("scalar"))


def _engine_columns(
    op: str,
    fmt: FloatFormat,
    columns: Sequence[np.ndarray],
    cells: np.ndarray,
    matrix: tuple,
    backend,
) -> tuple[np.ndarray, np.ndarray]:
    """The engine side of a window: result bits and flag bytes aligned
    with ``cells``, the lanes' indices into ``matrix``, for the operand
    ``columns``.

    Lanes are grouped by the *tier* that serves their cell
    (:func:`_tier`), not by cell, and each tier gets one ``run_packed``
    call per :data:`_ENGINE_CHUNK` lanes — through ``backend`` when it
    is ``auto`` (so its dispatch and counters see every call), else
    through the tier itself.  A group whose lanes share one environment
    passes it as single values; a mixed group passes it as lanes
    (mode codes and FTZ/DAZ bools, see :mod:`repro.softfloat.backend`),
    which ``auto`` routes to the same tier its cells select one by one.
    So every lane is served by the tier a per-cell call would use, and
    only the number of calls depends on how many cells a window holds.
    Cells the backend does not support (e.g. binary128 on the
    integer-lane batch kernels) run on
    :class:`~repro.softfloat.backend.ScalarBackend`, which supports
    every op and format, so the differential verdict never depends on
    backend coverage.
    """
    groups: dict[object, list[int]] = {}
    present = np.flatnonzero(np.bincount(cells, minlength=len(matrix)))
    for cell in present.tolist():
        mode, (ftz, daz) = matrix[cell]
        groups.setdefault(_tier(backend, op, fmt, (mode, ftz, daz)),
                          []).append(cell)
    modes, ftzs, dazs = zip(*((MODE_CODES[mode], ftz, daz)
                              for mode, (ftz, daz) in matrix))
    env_by_cell = (np.array(modes, dtype=np.uint8),
                   np.array(ftzs, dtype=bool), np.array(dazs, dtype=bool))
    bits = np.empty(len(cells), dtype=lane_dtype(fmt))
    flags = np.empty(len(cells), dtype=np.uint8)
    via_auto = isinstance(backend, AutoBackend)
    for tier, group in groups.items():
        caller = backend if via_auto else tier
        positions = (np.flatnonzero(np.isin(cells, group))
                     if len(groups) > 1 else np.arange(len(cells)))
        single = len({matrix[cell] for cell in group}) == 1
        if single:
            mode, (ftz, daz) = matrix[group[0]]
            env = (mode, ftz, daz)
        else:
            env = tuple(table[cells[positions]] for table in env_by_cell)
        for start in range(0, len(positions), _ENGINE_CHUNK):
            stop = start + _ENGINE_CHUNK
            chunk = positions[start:stop]
            chunk_env = (env if single
                         else tuple(column[start:stop] for column in env))
            result = caller.run_packed(
                op, fmt, [column[chunk] for column in columns], *chunk_env)
            bits[chunk] = result.bits
            flags[chunk] = result.flags
    return bits, flags


def _discrepancy(
    op: str,
    fmt: FloatFormat,
    operands: tuple[int, ...],
    cfg: OracleConfig,
    engine_bits: int,
    engine_flags: FPFlag,
    oracle_bits: int,
    oracle_flags: FPFlag,
) -> Discrepancy | None:
    """The verdict on one evaluation: ``None`` when the engine's result
    bits and sticky flags match the exact oracle's."""
    value_ok = engine_bits == oracle_bits
    flags_ok = engine_flags == oracle_flags
    if value_ok and flags_ok:
        return None
    kind = ("both" if not value_ok and not flags_ok
            else "value" if not value_ok else "flags")
    return Discrepancy(
        op=op,
        fmt_name=fmt.name,
        operands=operands,
        rounding=cfg.rounding.value,
        ftz=cfg.ftz,
        daz=cfg.daz,
        tininess=cfg.tininess,
        engine_bits=engine_bits,
        oracle_bits=oracle_bits,
        engine_flags=engine_flags,
        oracle_flags=oracle_flags,
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
    dtype = lane_dtype(fmt)
    engine = get_backend("scalar").run_packed(
        op, fmt, [np.array([x], dtype=dtype) for x in operands],
        mode, ftz, daz)
    cfg = OracleConfig(rounding=mode, ftz=ftz, daz=daz, tininess=tininess)
    oracle = oracle_operation(op, fmt, cfg, *operands)
    return _discrepancy(op, fmt, operands, cfg, int(engine.bits[0]),
                        FLAGS_BY_VALUE[int(engine.flags[0])],
                        oracle.bits, oracle.flags)


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


def _eval_windows(
    op: str,
    fmt: FloatFormat,
    budget: int,
    seed: int,
    matrix: tuple,
    case_lo: int,
    case_hi: int | None,
    window: int,
):
    """One op's evaluation stream (or a slice of it), ``window``
    evaluations at a time.

    Each item is ``(cases, slots, cells)`` for the next ``window``
    evaluations (fewer in the last): ``slots`` holds one operand list
    per argument position, ``cells`` the matching indices into
    ``matrix``, and ``cases`` counts the cases whose first evaluation
    falls in the window (the per-case statistics hook).  This is the
    single source of truth for combo selection and budget cutoff: the
    leading full-matrix cases run every cell in ``matrix`` order, and
    every later case runs one cell, round-robin, until the budget is
    spent.  The two phases share windows, so where the head ends does
    not change how many engine calls a window makes.
    """
    arity = OP_ARITY[op]
    matrix_len = len(matrix)
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    case_seed = seed ^ (zlib.crc32(op.encode()) & 0xFFFF)
    cases = itertools.islice(generate_cases(fmt, arity, budget, case_seed),
                             case_lo, case_hi)
    n_cases, slots, cells = 0, [[] for _ in range(arity)], []

    # The full-matrix head: each case repeated over its cells, split
    # across windows where one fills up.
    remaining = budget - eval_offset(case_lo, fmc, matrix_len, budget)
    for _, operands in zip(range(case_lo, fmc), cases):
        if remaining <= 0:
            break
        n_cases += 1
        cell, k = 0, min(matrix_len, remaining)
        remaining -= matrix_len
        while cell < k:
            take = min(k - cell, window - len(cells))
            for slot, value in zip(slots, operands):
                slot.extend(itertools.repeat(value, take))
            cells.extend(range(cell, cell + take))
            cell += take
            if len(cells) == window:
                yield n_cases, slots, cells
                n_cases, slots, cells = 0, [[] for _ in range(arity)], []

    # The round-robin tail, one evaluation per case, a window's worth
    # of cases at a time.
    tail_lo = max(case_lo, fmc)
    tail_budget = max(0, budget - eval_offset(tail_lo, fmc, matrix_len,
                                              budget))
    tail = itertools.islice(cases, tail_budget)
    tail_cells = itertools.islice(itertools.cycle(range(matrix_len)),
                                  (tail_lo - fmc) % matrix_len, None)
    while chunk := list(itertools.islice(tail, window - len(cells))):
        n_cases += len(chunk)
        for slot, column in zip(slots, zip(*chunk)):
            slot.extend(column)
        cells.extend(itertools.islice(tail_cells, len(chunk)))
        if len(cells) == window:
            yield n_cases, slots, cells
            n_cases, slots, cells = 0, [[] for _ in range(arity)], []
    if cells:
        yield n_cases, slots, cells


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

    The slice runs window by window (:data:`_EVAL_WINDOW` evaluations,
    as columns from :func:`_eval_windows`).  Per window, the engine side is a pair of result columns computed
    through the ``engine_backend`` (one call per serving tier, see
    :func:`_engine_columns`); the oracle side is one
    :func:`~repro.oracle.exact.oracle_operation` call per evaluation,
    each an independent exact computation; the native third opinion is
    one :func:`~repro.oracle.native.native_result_bits` call over the
    window's hardware-default lanes.  Engine and oracle columns are
    compared as arrays, the tallies are counts over the comparison, and
    a :class:`~repro.oracle.report.Discrepancy` is built (and shrunk)
    only at mismatching positions, in stream order.
    ``engine_backend`` never changes *which* evaluations a slice
    performs, only how the engine side is computed.  With telemetry
    enabled each evaluation's oracle call is timed into the
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
    dtype = lane_dtype(fmt)
    native_cells = [
        cell for cell, (mode, (ftz, daz)) in enumerate(matrix)
        if mode is RoundingMode.NEAREST_EVEN and not ftz and not daz
    ] if native and native_supported(op, fmt) else []
    stats = OpStats(op=op)
    sink: list[Discrepancy] = []
    configs = [
        OracleConfig(rounding=mode, ftz=ftz, daz=daz, tininess=tininess)
        for mode, (ftz, daz) in matrix
    ]

    with telemetry.tracer.span("oracle.op", op=op, format=fmt.name) as span:
        started = time.perf_counter()
        windows = _eval_windows(op, fmt, budget, seed, matrix, case_lo,
                                case_hi, _EVAL_WINDOW)
        # Hot-loop bindings: the per-eval instrumented cost is two clock
        # reads and one histogram observation.
        reference = oracle_operation
        clock = time.perf_counter
        observe_latency = latency.observe
        flag_value = operator.attrgetter("_value_")
        for n_cases, slots, cells in windows:
            n = len(cells)
            stats.cases += n_cases
            stats.evals += n
            columns = [np.array(slot, dtype=dtype) for slot in slots]
            cell_lanes = np.array(cells, dtype=np.intp)
            engine_bits, engine_flags = _engine_columns(
                op, fmt, columns, cell_lanes, matrix, backend)

            lane_configs = map(configs.__getitem__, cells)
            if instrumented:
                oracle = []
                for cfg, *case in zip(lane_configs, *slots):
                    check_started = clock()
                    oracle.append(reference(op, fmt, cfg, *case))
                    observe_latency(clock() - check_started)
                evals_total.inc(n)
            else:
                oracle = list(map(reference, itertools.repeat(op, n),
                                  itertools.repeat(fmt, n), lane_configs,
                                  *slots))
            oracle_bits, oracle_flags = zip(*oracle)
            value_bad = engine_bits != np.array(oracle_bits, dtype=dtype)
            flags_bad = engine_flags != np.fromiter(
                map(flag_value, oracle_flags), dtype=np.uint8, count=n)
            mismatch = value_bad | flags_bad
            stats.value_agree += n - int(np.count_nonzero(value_bad))
            stats.flag_agree += n - int(np.count_nonzero(flags_bad))
            n_bad = int(np.count_nonzero(mismatch))
            if n_bad:
                stats.discrepancies += n_bad
                discrepancies_total.inc(n_bad)
                room = max(0, max_discrepancies - len(sink))
                for pos in np.flatnonzero(mismatch)[:room].tolist():
                    disc = _discrepancy(
                        op, fmt, tuple(slot[pos] for slot in slots),
                        configs[cells[pos]],
                        int(engine_bits[pos]),
                        FLAGS_BY_VALUE[int(engine_flags[pos])],
                        oracle_bits[pos], oracle_flags[pos])
                    sink.append(_shrunk(disc, fmt))

            # Native third opinion under the hardware-default env.
            if native_cells:
                lanes = np.flatnonzero(np.isin(cell_lanes, native_cells))
                if lanes.size:
                    native_bits = native_result_bits(
                        op, fmt, [column[lanes] for column in columns])
                    stats.native_evals += int(lanes.size)
                    stats.native_agree += int(np.count_nonzero(
                        native_agrees(fmt, native_bits, engine_bits[lanes])))
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
