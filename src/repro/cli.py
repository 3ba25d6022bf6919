"""Command line interface: ``python -m repro <command>``.

Commands
--------
``quiz``
    Take the paper's survey interactively (with executable ground-truth
    demonstrations for anything you miss).
``study``
    Simulate the cohorts and print every paper table/figure.
``demo``
    Run and print the ground-truth demonstration for one question (or
    all of them).
``spy``
    Run an exception-provoking workload under the fpspy monitor.
``optsim``
    Compile an expression at an optimization level and search for a
    divergence from strict IEEE.
``lint``
    Statically analyze an expression for floating-point hazards
    (cancellation, absorption, overflow, NaN introduction, unsafe
    rewrites) without running it.
``shadow``
    Shadow-evaluate an expression at high precision.
``mca``
    Monte Carlo arithmetic: significance via randomized rounding.
``drill``
    Adaptive training drills with computed answers.
``instrument``
    Print the full survey document (no answer key).
``oracle``
    Differential conformance testing of the softfloat engine against
    the exact-rounding oracle (and the host's native floats).
``telemetry``
    Inspect recorded traces/metrics, or run an instrumented demo.

The ``study``, ``optsim``, and ``oracle run`` commands accept
``--trace PATH`` (dump the span tree and FP-exception events as JSONL)
and ``--metrics-out PATH`` (dump the metrics registry as JSON); either
flag enables the telemetry session for the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from collections.abc import Iterator, Sequence

__all__ = ["main", "build_parser"]


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        help="record a telemetry trace (spans + FP-exception events)"
             " to this JSONL file",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (counters, latency"
             " histograms, gauges) to this JSON file",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="run the sweep's shards on N engine worker processes"
             " (0: in process with no result cache, the default;"
             " results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH", dest="cache_path",
        help="JSONL disk tier for the engine's result cache (default:"
             " the user cache dir; only used with --parallel)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the engine's result cache entirely",
    )


def _build_engine(args: argparse.Namespace):
    """An :class:`~repro.engine.Engine` per the command's flags.

    ``--parallel 0`` (the default) is the in-process engine with the
    result cache off, so a serial run touches no cache file.
    """
    from repro.engine import Engine, EngineConfig, default_cache_path

    cached = args.parallel > 0 and not args.no_cache
    return Engine(EngineConfig(
        workers=max(0, args.parallel),
        cache_enabled=cached,
        cache_path=(args.cache_path or default_cache_path()) if cached
        else None,
    ))


def _engine_interrupted():
    """The exception a drained Ctrl-C raises (lazy import)."""
    from repro.errors import EngineInterrupted

    return EngineInterrupted


def _print_engine_summary(args: argparse.Namespace, engine,
                          prefix: str = "\n") -> None:
    """Print the engine line, for ``--parallel`` runs only."""
    if args.parallel > 0:
        print(prefix + _engine_summary(engine))


def _engine_summary(engine) -> str:
    report = engine.last_report
    line = (
        f"engine: {report.shards} shards, {report.from_cache} cached,"
        f" {report.executed} executed"
        f" ({'pool' if report.parallel else 'in-process'},"
        f" {report.elapsed_seconds:.2f}s)"
    )
    if report.pool is not None:
        pool = report.pool
        faults = pool.retries + pool.timeouts + pool.worker_deaths
        if faults:
            line += (f"; faults: {pool.retries} retries,"
                     f" {pool.timeouts} timeouts,"
                     f" {pool.worker_deaths} worker deaths")
    return line


@contextlib.contextmanager
def _telemetry_scope(args: argparse.Namespace) -> Iterator[None]:
    """Enable telemetry for a command when it asked for exports."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield
        return
    from repro.telemetry import telemetry_session
    from repro.telemetry.export import write_metrics_json, write_trace_jsonl

    with telemetry_session() as session:
        yield
    if trace_out:
        count = write_trace_jsonl(trace_out, session)
        print(f"wrote {count} trace records to {trace_out}")
    if metrics_out:
        write_metrics_json(metrics_out, session.metrics.snapshot())
        print(f"wrote {len(session.metrics)} metrics to {metrics_out}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro-fp`` entry point.

    Built once per process: parsing leaves the tree untouched (argparse
    copies ``append`` defaults before extending them), and rebuilding it
    cost every in-process ``main()`` call several milliseconds.
    """
    parser = argparse.ArgumentParser(
        prog="repro-fp",
        description=(
            "Reproduction of 'Do Developers Understand IEEE Floating "
            "Point?' (IPDPS 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quiz = sub.add_parser("quiz", help="take the survey interactively")
    quiz.add_argument(
        "--no-suspicion", action="store_true",
        help="skip the suspicion component",
    )
    quiz.add_argument(
        "--no-demos", action="store_true",
        help="do not print demonstrations for missed questions",
    )

    study = sub.add_parser(
        "study", help="simulate the cohorts and print all figures",
    )
    study.add_argument("--seed", type=int, default=754)
    study.add_argument("--developers", type=int, default=199)
    study.add_argument("--students", type=int, default=52)
    study.add_argument(
        "--figure", default=None,
        help="print only this figure (e.g. 'Figure 14')",
    )
    study.add_argument(
        "--export", default=None, metavar="PATH",
        help="also write the simulated records as CSV",
    )
    study.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full markdown report (all figures + extensions)",
    )
    _add_telemetry_flags(study)
    _add_engine_flags(study)

    demo = sub.add_parser(
        "demo", help="run a question's ground-truth demonstration",
    )
    demo.add_argument(
        "question", help="question id (e.g. 'associativity') or 'all'",
    )

    spy = sub.add_parser("spy", help="monitor a workload's exceptions")
    spy.add_argument("workload", help="workload name or 'list' or 'all'")
    spy.add_argument("--trace", action="store_true",
                     help="also log each flag-raise with its operation")

    optsim = sub.add_parser(
        "optsim", help="check an expression's behavior under a flag",
    )
    optsim.add_argument("expr", help="expression, e.g. 'a*b + c'")
    optsim.add_argument(
        "--level", default="-O3",
        help="-O0..-O3, -Ofast, --ffast-math, or a full command line "
             "like 'gcc -O2 -fassociative-math'",
    )
    optsim.add_argument(
        "--oracle-check", action="store_true",
        help="cross-validate the strict-IEEE side of the verdict "
             "against the exact-rounding oracle",
    )
    optsim.add_argument(
        "--analyze", action="store_true",
        help="also run the static analyzer: lint diagnostics, per-pass "
             "safety verdicts, and static-vs-dynamic agreement",
    )
    optsim.add_argument(
        "--strategy", default="random",
        choices=["random", "guided", "exhaustive"],
        help="divergence search strategy: random corner-biased sampling "
             "(default), analysis-guided region search, or an exhaustive "
             "sweep (small formats)",
    )
    _add_telemetry_flags(optsim)

    lint = sub.add_parser(
        "lint", help="statically analyze an expression for FP hazards",
    )
    lint.add_argument(
        "expr", nargs="?", default=None,
        help="expression, e.g. '(a + b) - a' (omit with --corpus)",
    )
    lint.add_argument(
        "--level", default="strict",
        help="machine configuration: strict (default), -O0..-O3, -Ofast,"
             " --ffast-math, or a full command line",
    )
    lint.add_argument(
        "--format", default=None, dest="fmt",
        choices=["tiny8", "e4m3", "e5m2", "bfloat16", "binary16",
                 "binary32", "binary64", "binary128"],
        help="analysis format (default: the level's format, binary64)",
    )
    lint.add_argument(
        "--bind-range", action="append", default=[], metavar="NAME=LO,HI",
        help="variable range (repeatable); NAME=V pins a point",
    )
    lint.add_argument(
        "--assume-nan-inputs", action="store_true",
        help="let unbound variables be NaN too (default: NaN verdicts "
             "mark where NaNs are introduced, not propagated)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics as JSON instead of text",
    )
    lint.add_argument(
        "--explain", action="store_true",
        help="also print the per-node abstract values and pass verdicts",
    )
    lint.add_argument(
        "--corpus", action="store_true",
        help="lint the built-in gotcha corpus, print the precision "
             "summary, and diff against the golden file",
    )
    lint.add_argument(
        "--write-golden", action="store_true",
        help="with --corpus: regenerate the golden diagnostics file",
    )
    lint.add_argument(
        "--witness", action="store_true",
        help="back every unsafe verdict with a verified counterexample: "
             "guided search plus localization and flag-flow coverage "
             "(with --corpus: resolve all 22 entries and diff witness "
             "outcomes against the golden file)",
    )
    lint.add_argument(
        "--witness-strategy", default="guided",
        choices=["guided", "random", "exhaustive"],
        help="witness search strategy (default: guided)",
    )
    lint.add_argument(
        "--witness-trials", type=int, default=2000,
        help="candidate budget for the witness search (default: 2000)",
    )
    _add_telemetry_flags(lint)
    _add_engine_flags(lint)

    shadow = sub.add_parser(
        "shadow", help="shadow-evaluate an expression at high precision",
    )
    shadow.add_argument("expr")
    shadow.add_argument(
        "--bind", action="append", default=[], metavar="NAME=VALUE",
        help="variable binding (repeatable)",
    )
    shadow.add_argument("--localize", action="store_true",
                        help="also print per-node error attribution")

    mca = sub.add_parser(
        "mca", help="randomized-rounding significance estimate",
    )
    mca.add_argument("expr")
    mca.add_argument(
        "--bind", action="append", default=[], metavar="NAME=VALUE",
    )
    mca.add_argument("--samples", type=int, default=32)

    drill = sub.add_parser(
        "drill", help="adaptive floating point training drills",
    )
    drill.add_argument("--rounds", type=int, default=10)
    drill.add_argument(
        "--concept", action="append", default=None,
        help="restrict to a concept (repeatable); see --list",
    )
    drill.add_argument("--list", action="store_true",
                       help="list available concepts")
    drill.add_argument("--seed", type=int, default=None)

    instrument = sub.add_parser(
        "instrument", help="print the full survey document",
    )
    instrument.add_argument("--plain", action="store_true",
                            help="plain text instead of markdown")

    oracle = sub.add_parser(
        "oracle", help="exact-rounding conformance testing",
    )
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    oracle_run = oracle_sub.add_parser(
        "run", help="differential sweep: engine vs exact oracle vs native",
    )
    oracle_run.add_argument(
        "--format", default="binary16", dest="fmt",
        choices=["tiny8", "e4m3", "e5m2", "bfloat16", "binary16",
                 "binary32", "binary64", "binary128"],
        help="destination format under test",
    )
    oracle_run.add_argument(
        "--ops", default="add,sub,mul,div,sqrt,fma",
        help="comma-separated operations (add,sub,mul,div,sqrt,fma)",
    )
    oracle_run.add_argument(
        "--budget", type=int, default=10000,
        help="evaluations per operation across the mode/FTZ matrix",
    )
    oracle_run.add_argument("--seed", type=int, default=754)
    oracle_run.add_argument(
        "--modes", default="all",
        help="rounding modes: 'all' or comma list of rne,rna,rtz,rtp,rtn",
    )
    oracle_run.add_argument(
        "--ftz", choices=["off", "on", "both"], default="both",
        help="flush-to-zero settings to drive",
    )
    oracle_run.add_argument(
        "--daz", choices=["off", "on", "both"], default="both",
        help="denormals-are-zero settings to drive",
    )
    oracle_run.add_argument(
        "--tininess", choices=["before", "after"], default="before",
        help="underflow tininess-detection convention the oracle models",
    )
    oracle_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON conformance report here",
    )
    oracle_run.add_argument(
        "--no-native", action="store_true",
        help="skip the native-hardware third opinion",
    )
    oracle_run.add_argument(
        "--engine-backend", default="scalar",
        choices=["scalar", "batch", "native", "auto"],
        help="softfloat backend computing the engine side of each"
             " evaluation (batched backends vectorize the sweep;"
             " verdicts are bit-identical across backends)",
    )
    oracle_run.add_argument(
        "--no-timing", action="store_true",
        help="omit wall-clock fields from the JSON report, making"
             " serial and --parallel runs byte-identical",
    )
    _add_telemetry_flags(oracle_run)
    _add_engine_flags(oracle_run)

    engine = sub.add_parser(
        "engine", help="the sharded parallel execution engine",
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    engine_run = engine_sub.add_parser(
        "run", help="run a registered task across shards",
    )
    engine_run.add_argument(
        "task", help="registered task name (see 'engine status')",
    )
    engine_run.add_argument(
        "--param", action="append", default=[], metavar="JSON",
        help="one shard's params as a JSON object (repeatable; shard"
             " order follows flag order)",
    )
    engine_run.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run N shards with empty params (alternative to --param)",
    )
    engine_run.add_argument("--seed", type=int, default=754)
    engine_run.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0: in-process serial)",
    )
    engine_run.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-shard timeout in seconds",
    )
    engine_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the ordered shard results to this JSON file",
    )
    _add_telemetry_flags(engine_run)
    engine_status = engine_sub.add_parser(
        "status", help="registered tasks, machine fingerprint, cache",
    )
    engine_status.add_argument(
        "--cache", default=None, metavar="PATH", dest="cache_path",
        help="inspect this cache file instead of the default",
    )
    engine_cache = engine_sub.add_parser(
        "cache", help="inspect or clear the disk result cache",
    )
    engine_cache.add_argument("action", choices=["show", "clear"])
    engine_cache.add_argument(
        "--cache", default=None, metavar="PATH", dest="cache_path",
        help="cache file (default: the user cache dir)",
    )

    telemetry = sub.add_parser(
        "telemetry", help="inspect recorded traces and metrics",
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True,
    )
    telemetry_view = telemetry_sub.add_parser(
        "view", help="render a recorded trace JSONL or metrics JSON",
    )
    telemetry_view.add_argument(
        "path", help="file written by --trace or --metrics-out",
    )
    telemetry_view.add_argument(
        "--trace-id", default=None, metavar="HEX",
        help="show only records stamped with this trace id (prefix ok)",
    )
    telemetry_view.add_argument(
        "--min-ms", type=float, default=None, metavar="MS",
        help="hide spans whose wall time is below MS milliseconds"
             " (survivors re-home under their nearest kept ancestor)",
    )
    telemetry_demo = telemetry_sub.add_parser(
        "demo", help="run a small instrumented workload and print the"
                     " span tree, metrics, and exception events",
    )
    telemetry_demo.add_argument("--budget", type=int, default=500)

    serve = sub.add_parser(
        "serve",
        help="run the async FP-analysis service (quiz/lint/oracle/study"
             " over newline-delimited JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0: pick a free one and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="engine worker processes for oracle/study jobs (0: run"
             " them in-process)",
    )
    serve.add_argument(
        "--dispatchers", type=int, default=8,
        help="concurrent request dispatcher tasks",
    )
    serve.add_argument(
        "--rate", type=float, default=2000.0,
        help="per-client sustained requests/second (token bucket rate)",
    )
    serve.add_argument(
        "--burst", type=float, default=500.0,
        help="per-client burst allowance (token bucket capacity)",
    )
    serve.add_argument("--seed", type=int, default=754)
    serve.add_argument(
        "--backend", default="auto",
        choices=["scalar", "batch", "native", "auto"],
        help="softfloat backend for batched op.eval requests",
    )
    serve.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then drain and exit (smoke tests;"
             " default: until SIGINT/SIGTERM)",
    )

    top = sub.add_parser(
        "top",
        help="live one-screen view of a running service (polls the"
             " stats and metrics methods)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in seconds",
    )
    top.add_argument(
        "--once", action="store_true",
        help="poll once, print the screen, exit (CI smoke)",
    )
    return parser


def _cmd_quiz(args: argparse.Namespace) -> int:
    from repro.quiz.runner import run_interactive

    run_interactive(
        include_suspicion=not args.no_suspicion,
        show_demos=not args.no_demos,
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.study import run_study

    engine = _build_engine(args)
    with _telemetry_scope(args):
        study = run_study(
            seed=args.seed, n_developers=args.developers,
            n_students=args.students, engine=engine,
        )
        if args.figure is not None:
            print(study.figure(args.figure).render())
        else:
            print(study.render())
        if args.export:
            from repro.survey.io import write_csv

            count = write_csv(list(study.responses), args.export)
            print(f"\nwrote {count} records to {args.export}")
        if args.report:
            from repro.analysis.report import write_report

            target = write_report(study, args.report)
            print(f"wrote full report to {target}")
    _print_engine_summary(args, engine)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.quiz.runner import all_questions

    questions = all_questions()
    if args.question != "all":
        questions = tuple(
            q for q in questions if q.qid == args.question
        )
        if not questions:
            known = ", ".join(q.qid for q in all_questions())
            print(f"unknown question {args.question!r}; known: {known}",
                  file=sys.stderr)
            return 2
    for question in questions:
        demo = question.verify_ground_truth()
        print(demo.render())
        print()
    return 0


def _cmd_spy(args: argparse.Namespace) -> int:
    from repro.fpspy import WORKLOADS, spy, workload

    if args.workload == "list":
        for w in WORKLOADS:
            print(f"{w.name:24s} {w.description}")
        return 0
    targets = WORKLOADS if args.workload == "all" else (workload(args.workload),)
    for w in targets:
        with spy(trace=args.trace) as report:
            result = w.run()
        print(f"workload {w.name}: result = {result!r}")
        print(report.render())
        if args.trace and report.trace is not None:
            print(report.trace.render())
        print()
    return 0


def _cmd_optsim(args: argparse.Namespace) -> int:
    from repro.optsim import (
        find_divergence,
        noncompliance_reasons,
        optimization_level,
        optimize,
        parse_expr,
    )

    try:
        config = optimization_level(args.level)
    except ValueError:
        from repro.optsim import config_from_flags

        config = config_from_flags(args.level)
    expr = parse_expr(args.expr)
    with _telemetry_scope(args):
        print(f"source:   {expr}")
        print(f"compiled: {optimize(expr, config)}   [{config.name}]")
        reasons = noncompliance_reasons(config)
        if reasons:
            print("non-standard permissions: " + "; ".join(reasons))
        report = find_divergence(
            expr, config, oracle_check=args.oracle_check,
            strategy=args.strategy,
        )
        print(report.describe())
        if args.analyze:
            from repro.staticfp import lint, predict_pass_safety

            print()
            print(lint(expr, config).render())
            safety = predict_pass_safety(expr, config)
            print()
            print(safety.describe())
            print()
            print(_agreement_line(safety, report))
    return 0


def _agreement_line(safety, report) -> str:
    """One-line static-vs-dynamic verdict comparison.

    The static contract is one-directional: a safe verdict must mean
    the search finds nothing, but an unsafe verdict is an admission of
    ignorance, so "unsafe + no divergence found" is still agreement.
    """
    if safety.value_safe and report.value_diverged:
        return ("static/dynamic DISAGREE: statically value-preserving, "
                "but the search found a value divergence (analyzer bug)")
    if safety.flags_safe and report.diverged:
        return ("static/dynamic DISAGREE: statically flag-preserving, "
                "but the search found a divergence (analyzer bug)")
    static = "value-preserving" if safety.value_safe \
        else "possibly-value-changing"
    dynamic = "found a divergence" if report.diverged \
        else "found no divergence"
    return (f"static/dynamic agreement: statically {static}, "
            f"dynamic search {dynamic}")


def _cmd_oracle(args: argparse.Namespace) -> int:
    from repro.oracle import FORMATS_BY_NAME, MODE_ALIASES, run_conformance

    fmt = FORMATS_BY_NAME[args.fmt]
    ops = [op.strip() for op in args.ops.split(",") if op.strip()]
    if not ops:
        print("no operations given; --ops wants a comma list like"
              " add,mul,fma", file=sys.stderr)
        return 2
    if args.budget < 1:
        print(f"--budget must be >= 1, got {args.budget} (a conformance"
              f" verdict needs at least one evaluation)", file=sys.stderr)
        return 2
    if args.modes == "all":
        modes = None
    else:
        try:
            modes = [MODE_ALIASES[m.strip().lower()]
                     for m in args.modes.split(",") if m.strip()]
        except KeyError as exc:
            print(f"unknown rounding mode {exc.args[0]!r}; choose from"
                  f" {sorted(MODE_ALIASES)}", file=sys.stderr)
            return 2
    switch = {"off": (False,), "on": (True,), "both": (False, True)}
    env_combos = [
        (ftz, daz)
        for ftz in switch[args.ftz]
        for daz in switch[args.daz]
    ]
    from repro.engine import graceful_shutdown

    engine = _build_engine(args)
    try:
        with _telemetry_scope(args), graceful_shutdown():
            report = run_conformance(
                fmt, ops,
                budget=args.budget,
                seed=args.seed,
                modes=modes,
                env_combos=env_combos,
                tininess=args.tininess,
                native=not args.no_native,
                engine_backend=args.engine_backend,
                engine=engine,
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except _engine_interrupted() as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    print(report.summary())
    _print_engine_summary(args, engine)
    if args.json:
        try:
            report.write_json(args.json, timing=not args.no_timing)
        except OSError as exc:
            print(f"cannot write JSON report: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote JSON conformance report to {args.json}")
    return 0 if report.clean else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.errors import OptimizationError, ParseError
    from repro.optsim import optimization_level

    if args.corpus:
        if args.expr is not None:
            print("--corpus does not take an expression", file=sys.stderr)
            return 2
        return _lint_corpus(args)
    if args.expr is None:
        print("expected an expression (or --corpus)", file=sys.stderr)
        return 2
    try:
        config = optimization_level(args.level)
    except ValueError:
        from repro.optsim import config_from_flags

        try:
            config = config_from_flags(args.level)
        except ValueError as exc:
            print(f"bad --level: {exc}", file=sys.stderr)
            return 2
    if args.fmt is not None:
        from repro.softfloat import STANDARD_FORMATS

        config = config.replace(
            fmt=next(f for f in STANDARD_FORMATS if f.name == args.fmt)
        )
    bindings = _parse_range_bindings(args.bind_range)
    if bindings is None:
        return 2
    from repro.staticfp import lint

    try:
        with _telemetry_scope(args):
            report = lint(
                args.expr, config, bindings,
                assume_nan_inputs=args.assume_nan_inputs,
                witness=args.witness,
                witness_strategy=args.witness_strategy,
                witness_trials=args.witness_trials,
            )
    except (OptimizationError, ParseError) as exc:
        print(f"cannot analyze {args.expr!r}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        if args.explain:
            print()
            print(report.analysis.describe())
            print()
            print(report.safety.describe())
    return 1 if report.has_findings else 0


def _lint_corpus(args: argparse.Namespace) -> int:
    from repro.staticfp.corpus import (
        GOLDEN_PATH,
        check_golden,
        check_golden_witnesses,
        corpus_outcomes,
        precision_summary,
        witness_outcomes,
        witness_summary,
        write_golden,
    )

    engine = _build_engine(args)
    with _telemetry_scope(args):
        witnesses = None
        if args.witness or args.write_golden:
            witnesses = witness_outcomes(trials=args.witness_trials)
        if args.write_golden:
            document = write_golden(witnesses=witnesses)
            print(f"wrote {len(document['entries'])} golden entries and "
                  f"{len(document['witnesses'])} witness outcomes to "
                  f"{GOLDEN_PATH}")
        outcomes = corpus_outcomes(engine)
        summary = precision_summary(outcomes)
        print(f"gotchas detected: {summary['gotchas_detected']}"
              f"/{summary['gotchas_total']}")
        if summary["missed"]:
            print("  missed: " + ", ".join(summary["missed"]))
        print(f"clean-corpus false positives:"
              f" {len(summary['false_positives'])}/{summary['clean_total']}")
        if summary["false_positives"]:
            print("  " + ", ".join(summary["false_positives"]))
        drift = check_golden(outcomes=outcomes)
        witness_ok = True
        if witnesses is not None:
            wsummary = witness_summary(witnesses)
            print(f"witness resolution: {wsummary['resolved']}"
                  f"/{wsummary['total']}"
                  f" ({len(wsummary['witnessed'])} witnessed,"
                  f" {len(wsummary['refuted'])} refuted,"
                  f" {len(wsummary['proved-safe'])} proved safe)")
            if wsummary["unresolved"]:
                print("  unresolved: " + ", ".join(wsummary["unresolved"]))
                witness_ok = False
            drift += check_golden_witnesses(outcomes=witnesses)
    _print_engine_summary(args, engine, prefix="")
    if drift:
        print(f"golden drift ({len(drift)} entries):")
        for line in drift:
            print("  " + line)
        return 1
    print("golden file: no drift")
    ok = (
        summary["gotchas_detected"] == summary["gotchas_total"]
        and not summary["false_positives"]
        and witness_ok
    )
    return 0 if ok else 1


def _parse_range_bindings(pairs):
    """``NAME=LO,HI`` range / ``NAME=V`` point bindings for lint.

    Values stay strings so exact decimal literals reach the analyzer's
    correctly-rounded parser untouched.
    """
    bindings: dict[str, object] = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        if not name or not eq or not value:
            print(f"bad --bind-range {item!r}; expected NAME=LO,HI or"
                  f" NAME=VALUE", file=sys.stderr)
            return None
        lo, comma, hi = value.partition(",")
        if comma and (not lo or not hi):
            print(f"bad --bind-range {item!r}; expected NAME=LO,HI",
                  file=sys.stderr)
            return None
        bindings[name] = (lo, hi) if comma else value
    return bindings


def _cmd_shadow(args: argparse.Namespace) -> int:
    from repro.optsim import parse_expr
    from repro.shadow import localize_errors, shadow_evaluate

    bindings: dict[str, object] = {}
    for item in args.bind:
        name, _, value = item.partition("=")
        if not name or not value:
            print(f"bad --bind {item!r}; expected NAME=VALUE",
                  file=sys.stderr)
            return 2
        bindings[name] = float(value)
    expr = parse_expr(args.expr)
    print(shadow_evaluate(expr, bindings).describe())
    if args.localize:
        for entry in localize_errors(expr, bindings):
            print("  " + entry.describe())
    return 0


def _parse_bindings(pairs, parser_name: str):
    bindings: dict[str, object] = {}
    for item in pairs:
        name, _, value = item.partition("=")
        if not name or not value:
            print(f"bad --bind {item!r}; expected NAME=VALUE",
                  file=sys.stderr)
            return None
        bindings[name] = float(value)
    return bindings


def _cmd_mca(args: argparse.Namespace) -> int:
    from repro.optsim import parse_expr
    from repro.stochastic import mca_evaluate

    bindings = _parse_bindings(args.bind, "mca")
    if bindings is None:
        return 2
    result = mca_evaluate(
        parse_expr(args.expr), bindings, samples=args.samples
    )
    print(result.describe())
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    import random

    from repro.training import ALL_TEMPLATES, DrillSession

    if args.list:
        for template in ALL_TEMPLATES:
            print(f"{template.concept:20s} {template.description}")
        return 0
    rng = random.Random(args.seed)
    session = DrillSession(rng=rng, concepts=args.concept)
    for number in range(1, args.rounds + 1):
        item = session.next_item()
        print(f"drill {number}/{args.rounds} [{item.concept}]")
        print(item.prompt)
        while True:
            raw = input("  [t/f] > ").strip().lower()
            if raw in ("t", "true", "f", "false"):
                break
            print("  please answer t or f")
        outcome = session.submit(item, raw in ("t", "true"))
        print("  " + outcome.feedback())
        print()
    print(session.mastery().render())
    return 0


def _filter_spans(spans: list, trace_id: str | None,
                  min_ms: float | None) -> list:
    """Apply the view filters, keeping the tree renderable.

    ``--trace-id`` matches by prefix (records from v1 files have no
    trace id and only survive when no filter is given).  ``--min-ms``
    drops fast spans; survivors whose parent was dropped re-home under
    their nearest surviving ancestor so the tree stays connected.
    """
    if trace_id is not None:
        spans = [
            s for s in spans
            if str(s.get("trace_id", "")).startswith(trace_id)
        ]
    if min_ms is None:
        return spans
    by_id = {s.get("id"): s for s in spans}
    kept = [
        s for s in spans
        if float(s.get("wall", 0.0)) * 1e3 >= min_ms
    ]
    kept_ids = {s.get("id") for s in kept}
    rehomed = []
    for span in kept:
        parent = span.get("parent", 0)
        while parent and parent not in kept_ids:
            parent = by_id.get(parent, {}).get("parent", 0)
        if parent != span.get("parent", 0):
            span = dict(span, parent=parent)
        rehomed.append(span)
    return rehomed


def _telemetry_view(path: str, *, trace_id: str | None = None,
                    min_ms: float | None = None) -> int:
    import json

    from repro.telemetry.export import (
        load_metrics_json,
        load_trace,
        render_metrics,
        render_span_tree,
    )

    try:
        trace = load_trace(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        trace_error = exc
    else:
        meta = trace["meta"]
        spans = _filter_spans(trace["spans"], trace_id, min_ms)
        events = trace["events"]
        if trace_id is not None:
            events = [
                e for e in events
                if str(e.get("trace_id", "")).startswith(trace_id)
            ]
        if meta.get("trace_id"):
            print(f"trace {meta['trace_id']}"
                  f" (schema v{meta.get('version')})")
        if spans:
            print(render_span_tree(spans))
        if events:
            if spans:
                print()
            print(f"fp exception events ({len(events)}):")
            for event in events:
                flags = ",".join(event.get("flags", ()))
                where = event.get("span") or "-"
                print(f"  #{event.get('sequence')}"
                      f" {event.get('operation')}: {flags}  [{where}]")
        if not spans and not events:
            filtered = trace_id is not None or min_ms is not None
            print(f"{path}: "
                  + ("no records match the filters" if filtered
                     else "empty trace"))
        return 0
    # Not a trace; maybe a metrics snapshot.
    try:
        snapshot = load_metrics_json(path)
    except (OSError, ValueError, json.JSONDecodeError):
        print(f"cannot read {path} as a trace or metrics file:"
              f" {trace_error}", file=sys.stderr)
        return 2
    print(render_metrics(snapshot))
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.telemetry_command == "view":
        return _telemetry_view(
            args.path, trace_id=args.trace_id, min_ms=args.min_ms,
        )

    # demo: run a small instrumented workload end to end.
    from repro.oracle import FORMATS_BY_NAME, run_conformance
    from repro.optsim import find_divergence, optimization_level, parse_expr
    from repro.telemetry import telemetry_session

    with telemetry_session() as session:
        run_conformance(
            FORMATS_BY_NAME["binary16"], ["add", "mul"],
            budget=args.budget, native=False,
        )
        find_divergence(parse_expr("(a + b) + c"), optimization_level("-O3"))
    print(session.tracer.render_tree())
    print()
    print(session.metrics.render())
    if session.events is not None and session.events.events:
        print()
        print(session.events.render())
    return 0


def _cmd_instrument(args: argparse.Namespace) -> int:
    from repro.survey import render_instrument

    print(render_instrument(markdown=not args.plain))
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine import default_cache_path

    if args.engine_command == "status":
        import multiprocessing
        import os

        from repro.engine import machine_fingerprint, registered_tasks
        from repro.engine.cache import ResultCache

        print("registered tasks:")
        for name in registered_tasks():
            print(f"  {name}")
        print("machine fingerprint:")
        for key, value in machine_fingerprint().items():
            print(f"  {key}: {value}")
        print(f"cpus: {os.cpu_count()}")
        print(f"start method: {multiprocessing.get_start_method()}")
        path = args.cache_path or default_cache_path()
        cache = ResultCache(disk_path=path)
        print(f"cache file: {path} ({cache.disk_entries} entries)")
        return 0

    if args.engine_command == "cache":
        from repro.engine.cache import ResultCache

        path = args.cache_path or default_cache_path()
        cache = ResultCache(disk_path=path)
        if args.action == "clear":
            entries = cache.disk_entries
            cache.clear()
            print(f"cleared {entries} entries from {path}")
        else:
            print(cache.describe())
        return 0

    # engine run
    import json

    from repro.engine import Engine, EngineConfig, get_task, make_job
    from repro.errors import EngineError, ShardError

    if args.param and args.shards is not None:
        print("--param and --shards are mutually exclusive", file=sys.stderr)
        return 2
    try:
        get_task(args.task)
    except EngineError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.param:
        try:
            param_list = [json.loads(p) for p in args.param]
        except ValueError as exc:
            print(f"bad --param JSON: {exc}", file=sys.stderr)
            return 2
        if not all(isinstance(p, dict) for p in param_list):
            print("each --param must be a JSON object", file=sys.stderr)
            return 2
    else:
        param_list = [{} for _ in range(args.shards or 1)]
    engine = Engine(EngineConfig(
        workers=max(0, args.workers),
        shard_timeout=args.timeout,
        cache_enabled=False,
    ))
    with _telemetry_scope(args):
        from repro.engine import graceful_shutdown

        job = make_job(args.task, args.task, param_list,
                       seed=args.seed, cacheable=False)
        try:
            with graceful_shutdown():
                results = engine.run(job)
        except ShardError as exc:
            print(str(exc), file=sys.stderr)
            if exc.details:
                print(exc.details, file=sys.stderr)
            return 1
        except _engine_interrupted() as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return 130
    print(_engine_summary(engine))
    payload = json.dumps(results, indent=2, default=str)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {len(results)} shard results to {args.json}")
    else:
        print(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.engine import Engine, EngineConfig
    from repro.service import FPService, ServiceConfig

    engine = Engine(EngineConfig(
        workers=max(0, args.workers), cache_enabled=True,
    ))
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        service_seed=args.seed,
        dispatchers=max(1, args.dispatchers),
        rate=args.rate,
        burst=args.burst,
        backend=args.backend,
    )

    async def run() -> int:
        service = FPService(config, engine=engine)
        await service.start()
        print(f"serving on {config.host}:{service.port}"
              f" ({config.dispatchers} dispatchers,"
              f" {args.workers} engine workers,"
              f" {config.rate:g} req/s per client)", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform
        try:
            await asyncio.wait_for(stop.wait(), timeout=args.max_seconds)
        except asyncio.TimeoutError:
            pass
        print("draining...", flush=True)
        await service.stop()
        stats = service.stats()
        print(f"served {stats['answered']} requests"
              f" ({stats['errors']} errors, {stats['limited']} limited,"
              f" {stats['shed']} shed)")
        return 0

    return asyncio.run(run())


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient
    from repro.service.topview import CLEAR_SCREEN, render_top
    from repro.telemetry.prometheus import parse_exposition

    title = f"{args.host}:{args.port}"

    async def screen(client: ServiceClient) -> str:
        stats_response = await client.call("stats")
        metrics_response = await client.call("metrics")
        stats = stats_response.result if stats_response.ok else {}
        exposition = None
        if metrics_response.ok and isinstance(
            metrics_response.result, dict
        ):
            exposition = parse_exposition(
                metrics_response.result.get("text", "")
            )
        return render_top(stats or {}, exposition, title=title)

    async def run() -> int:
        try:
            client = await ServiceClient.open(args.host, args.port)
        except OSError as exc:
            print(f"cannot connect to {title}: {exc}", file=sys.stderr)
            return 2
        try:
            async with client:
                if args.once:
                    print(await screen(client), end="")
                    return 0
                while True:
                    print(CLEAR_SCREEN + await screen(client),
                          end="", flush=True)
                    await asyncio.sleep(max(0.1, args.interval))
        except (ConnectionError, ValueError) as exc:
            print(f"lost the service: {exc}", file=sys.stderr)
            return 1

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print()
        return 0


_COMMANDS = {
    "quiz": _cmd_quiz,
    "study": _cmd_study,
    "demo": _cmd_demo,
    "spy": _cmd_spy,
    "optsim": _cmd_optsim,
    "lint": _cmd_lint,
    "shadow": _cmd_shadow,
    "mca": _cmd_mca,
    "drill": _cmd_drill,
    "instrument": _cmd_instrument,
    "oracle": _cmd_oracle,
    "telemetry": _cmd_telemetry,
    "engine": _cmd_engine,
    "serve": _cmd_serve,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.close(1)
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
