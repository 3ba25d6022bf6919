"""Workload ``serve-mix``: a seeded request mix against ``repro serve``.

The service (``FPService`` with ``Engine(workers=0)`` and a result
cache whose disk tier sits in a fresh directory) runs in its own
process, :mod:`perfbench.serve_child`; this process drives it over two
connections.  The mix:

- 50% ``op.eval``: binary32/binary64 add/mul/div/sqrt, 64 lanes;
- 15% ``oracle.slice``: binary16 slices whose keys are drawn so
  the working set exceeds the engine's 512-entry memory tier -- fresh
  keys miss, recently used keys hit memory, and keys more than 600
  distinct keys old hit the disk tier;
- 15% ``lint`` without witness, half fresh and half repeated;
- 15% quiz-session steps (open, answer, grade);
- 5% ``ping``.

A run primes the result cache, then has two phases: an open loop at a
fixed share of the host's capacity (independent users; each request is
timed from the moment it was due, and a refused or failed request
counts as missing), then a closed loop of waiting callers, which
measures capacity.

Why: this is the only workload where the service queue, the
micro-batcher, engine dispatch and the result cache do work.
"""

from __future__ import annotations

import asyncio
import collections
import json
import math
import random
import shutil
import struct
import sys
import time

from perfbench import checks, lint_witness
from perfbench.calibrate import Bracket, slowdown
from perfbench.common import ROOT, OUT, child_env, derive_seed, percentile
from perfbench.layers import REQUIRED, SERVICE_CLASSES, probe_metrics
from perfbench.tracing import check_required

NAME = "serve-mix"
CONNECTIONS = 2
#: open-loop rate on the nominal host (see calibrate.py), about a fifth
#: of its closed-loop capacity; the offered rate is divided by the
#: slowdown measured just before each open-loop segment.  At half the
#: capacity, a host running 2x slow saturated and p50 moved by half
#: between seeds.
RATE = 110.0
#: share of --seconds spent in the open loop; the rest is the closed loop
OPEN_SHARE = 0.5
#: each phase runs in this many segments, with host calibration between
SEGMENTS = 6
#: the bounded tail percentile: p99 moves by a third between runs of one
#: seed (a few interpreter-lock stalls decide it), p90 repeats
TAIL = 0.90
CALLERS = 8
#: request kinds per round of 20; rounds are shuffled, so every stretch
#: of a run holds the stated mix
MIX = (("op.eval", 10), ("oracle.slice", 3), ("lint", 3), ("quiz", 3),
       ("ping", 1))
EVAL_OPS = ("add", "mul", "div", "sqrt")
EVAL_FORMATS = ("binary32", "binary64")
EVAL_LANES = 64
SLICE_BUDGET = 512
SLICE_CASES = 32
SLICE_INDICES = SLICE_BUDGET // SLICE_CASES
SLICE_OPS = ("add", "mul", "div", "sqrt", "fma")
#: oracle.slice key classes per round of 10
SLICE_KEYS = (("fresh", 4), ("recent", 3), ("old", 3))
RECENT_KEYS = 200
OLD_AFTER = 600
#: fresh slices sent before timing, so the disk tier holds evicted keys
PRIME_SLICES = 640
#: lint expressions per round of 2: one new, one already sent
LINT_KEYS = (("fresh", 1), ("repeat", 1))
#: share of op.eval and oracle.slice responses checked against a
#: direct library call
CHECK_SHARE = 0.1
#: calibration slices run by each process between segments, while the
#: service is idle.  Closed-loop throughput is multiplied by the
#: slowdown they measure.  Open-loop latencies are reported raw: they
#: include batching timers (2 ms per op.eval batch, 10 ms per engine
#: job) that do not scale with host speed, and dividing them by the
#: slowdown made them less repeatable (IQR/median 0.17 against 0.12
#: over five seeds).
CALIBRATION_SLICES = 5
#: a seed outside the workload's key space, for the warm-up slice
WARM_SEED = 1_000_000_007


def method_class(method: str) -> str:
    return "quiz" if method.startswith("quiz.") else method.replace(".", "_")


def _lane(rng: random.Random, fmt: str) -> int:
    if rng.random() < 0.3:
        return rng.getrandbits(32 if fmt == "binary32" else 64)
    value = math.copysign(10.0 ** rng.uniform(-10.0, 10.0),
                          rng.random() - 0.5)
    if fmt == "binary32":
        return struct.unpack("<I", struct.pack("<f", value))[0]
    return struct.unpack("<Q", struct.pack("<d", value))[0]


class _Quiz:
    __slots__ = ("session", "step", "left", "payload")

    def __init__(self, session: str, left: int) -> None:
        self.session = session
        self.step = "open"
        self.left = left
        self.payload: dict = {}


class _Deck:
    """Draws names in their stated proportions, a shuffled round of
    ``counts`` at a time: a short stretch of a run holds the same mix as
    a long one, so seeds differ in order and content, not in mix."""

    def __init__(self, counts, seed: int) -> None:
        self._rng = random.Random(seed)
        self._round = [name for name, count in counts for _ in range(count)]
        self._cards: list[str] = []

    def draw(self) -> str:
        if not self._cards:
            self._cards = list(self._round)
            self._rng.shuffle(self._cards)
        return self._cards.pop()


class Mix:
    """The seeded request stream; the open and closed loops share its
    decks and key histories."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._kinds = _Deck(MIX, derive_seed(seed, NAME, "kinds"))
        self._slice_keys = _Deck(SLICE_KEYS, derive_seed(seed, NAME, "keys"))
        self._lint_keys = _Deck(LINT_KEYS, derive_seed(seed, NAME, "lints"))
        #: oracle.slice keys in access order, a mirror of the server LRU
        self.slices: collections.OrderedDict = collections.OrderedDict()
        self.lints: list[dict] = []
        self.idle_quizzes: collections.deque[_Quiz] = collections.deque()
        self.quiz_serial = 0
        self._variables: dict[str, list[str]] = {}

    def draw(self, rng: random.Random) -> tuple[str, dict | None, bool]:
        """``(kind, params, check)``; quiz params are chosen at send time,
        from whichever session is idle then."""
        kind = self._kinds.draw()
        check = rng.random() < CHECK_SHARE
        if kind == "op.eval":
            return kind, self._op_eval(rng), check
        if kind == "oracle.slice":
            return kind, self.slice(rng), check
        if kind == "lint":
            return kind, self._lint(rng), False
        if kind == "ping":
            return kind, {"echo": rng.randrange(1 << 30)}, False
        return kind, None, False

    def _op_eval(self, rng: random.Random) -> dict:
        op = EVAL_OPS[rng.randrange(len(EVAL_OPS))]
        fmt = EVAL_FORMATS[rng.randrange(len(EVAL_FORMATS))]
        arity = 1 if op == "sqrt" else 2
        return {"op": op, "format": fmt, "operands": [
            [_lane(rng, fmt) for _ in range(EVAL_LANES)]
            for _ in range(arity)
        ]}

    def slice(self, rng: random.Random, kind: str | None = None) -> dict:
        kind = kind or self._slice_keys.draw()
        keys = self.slices
        if kind == "recent" and keys:
            key = list(keys)[-1 - rng.randrange(min(RECENT_KEYS, len(keys)))]
        elif kind == "old" and len(keys) > OLD_AFTER:
            key = list(keys)[rng.randrange(len(keys) - OLD_AFTER)]
        else:
            key = (SLICE_OPS[rng.randrange(len(SLICE_OPS))],
                   rng.randrange(1_000_000), rng.randrange(SLICE_INDICES))
        keys[key] = None
        keys.move_to_end(key)
        return slice_params(*key)

    def _lint(self, rng: random.Random) -> dict:
        if self._lint_keys.draw() == "repeat" and self.lints:
            return self.lints[rng.randrange(len(self.lints))]
        templates = lint_witness._templates()
        entry = templates[rng.randrange(len(templates))]
        names = self._variables.get(entry.expr)
        if names is None:
            names = self._variables[entry.expr] = \
                lint_witness._variables(entry.expr)
        params = {
            "expr": entry.expr,
            "config": lint_witness.LEVELS[
                rng.randrange(len(lint_witness.LEVELS))],
            "bindings": {name: list(lint_witness._draw_range(rng))
                         for name in names},
        }
        self.lints.append(params)
        return params

    # -- quiz sessions: one step per request --------------------------

    def quiz_step(self, rng: random.Random) -> tuple[_Quiz, str, dict]:
        if self.idle_quizzes:
            quiz = self.idle_quizzes.popleft()
        else:
            self.quiz_serial += 1
            quiz = _Quiz(f"q{self.seed}-{self.quiz_serial}",
                         1 + rng.randrange(3))
        params: dict = {"session": quiz.session}
        if quiz.step == "answer":
            payload = quiz.payload
            if payload.get("kind") == "true_false":
                params["answer"] = ("true", "false", "dont-know")[
                    rng.randrange(3)]
            else:
                choices = payload.get("choices") or ["dont-know"]
                params["answer"] = choices[rng.randrange(len(choices))]
        return quiz, f"quiz.{quiz.step}", params

    def quiz_done(self, quiz: _Quiz, response) -> None:
        if response is None or not response.ok or quiz.step == "grade":
            return  # the session ends (or is abandoned)
        quiz.payload = response.result or {}
        if quiz.step == "answer":
            quiz.left -= 1
        quiz.step = ("grade" if quiz.step == "answer" and quiz.left <= 0
                     or quiz.payload.get("done") else "answer")
        self.idle_quizzes.append(quiz)


def slice_params(op: str, seed: int, index: int) -> dict:
    return {"format": "binary16", "op": op, "budget": SLICE_BUDGET,
            "seed": seed, "case_lo": index * SLICE_CASES,
            "case_hi": (index + 1) * SLICE_CASES,
            "engine_backend": "auto", "tininess": "before"}


class Server:
    """The service process, driven through its stdin command channel."""

    def __init__(self, proc, port: int, cache_dir) -> None:
        self.proc = proc
        self.port = port
        self.cache_dir = cache_dir

    @classmethod
    async def start(cls, seed: int, scratch, spans_path) -> "Server":
        cache_dir = scratch / f"cache-{seed}-{time.monotonic_ns()}"
        cache_dir.mkdir(parents=True)
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.serve_child",
            "--seed", str(seed), "--cache-dir", str(cache_dir),
            "--spans", str(spans_path),
            cwd=ROOT, env=child_env(),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        server = cls(proc, 0, cache_dir)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 120)
            if not line.startswith(b"READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            server.port = int(line.split()[1])
        except BaseException:
            await server.kill()
            raise
        return server

    async def command(self, text: str) -> dict:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        if not line:
            raise RuntimeError(f"server exited during {text!r}")
        return json.loads(line)

    async def stop(self) -> dict:
        reply = await self.command("stop")
        await asyncio.wait_for(self.proc.wait(), 60)
        return reply

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


async def _warm(clients) -> None:
    """One call of every method, one at a time, before any timing: lazy
    imports and the engine's task registry load here, not under load.
    (Two concurrent first ``oracle.slice`` calls can find the task
    registry empty; see NOTES.md.)"""
    client = clients[0]
    calls = [("ping", {}), ("stats", {})]
    calls += [("op.eval", {"op": op, "format": fmt,
                           "operands": [[0x3F800000]] * (1 if op == "sqrt"
                                                         else 2)})
              for op in EVAL_OPS for fmt in EVAL_FORMATS]
    calls += [("oracle.slice", slice_params(op, WARM_SEED, 0))
              for op in SLICE_OPS]
    calls += [("lint", {"expr": "a*b + c", "config": "-O3"})]
    calls += [("quiz.open", {"session": "warm"}),
              ("quiz.answer", {"session": "warm", "answer": "dont-know"}),
              ("quiz.grade", {"session": "warm"})]
    for method, params in calls:
        response = await client.call(method, params)
        if not response.ok:
            raise RuntimeError(f"warm-up {method} failed:"
                               f" {response.error_message}")
    for client in clients[1:]:
        (await client.call("ping", {})).raise_for_error()


async def _start(seed: int, scratch, spans_path):
    from repro.service import ServiceClient

    server = await Server.start(seed, scratch, spans_path)
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await ServiceClient.open("127.0.0.1",
                                                    server.port))
        await _warm(clients)
    except BaseException:
        for client in clients:
            await client.close()
        await server.kill()
        raise
    return server, clients


async def _close(server: Server, clients) -> dict:
    for client in clients:
        await client.close()
    try:
        return await server.stop()
    finally:
        await server.kill()


def setup(scratch) -> None:
    """Start a server, warm every method, stop it."""
    async def once() -> None:
        server, clients = await _start(0, scratch, scratch / "spans.jsonl")
        await _close(server, clients)

    asyncio.run(once())


def params() -> dict:
    return {"nominal_rate_per_s": RATE, "open_share": OPEN_SHARE,
            "segments": SEGMENTS,
            "callers": CALLERS, "connections": CONNECTIONS,
            "mix_per_20": dict(MIX), "op_eval": {"ops": list(EVAL_OPS),
                                          "formats": list(EVAL_FORMATS),
                                          "lanes": EVAL_LANES},
            "oracle_slice": {"format": "binary16", "budget": SLICE_BUDGET,
                             "cases": SLICE_CASES,
                             "keys_per_10": dict(SLICE_KEYS),
                             "recent_keys": RECENT_KEYS,
                             "old_after": OLD_AFTER,
                             "primed": PRIME_SLICES},
            "lint_keys_per_2": dict(LINT_KEYS), "check_share": CHECK_SHARE,
            "engine": {"workers": 0, "cache_memory": 512, "disk": True}}


class _Tally:
    """What one phase saw: per-request records and checked samples."""

    def __init__(self) -> None:
        #: (class, latency_s or inf, late_s, queue_ms, handle_ms)
        self.records: list[tuple] = []
        self.samples: list[tuple[str, dict, object]] = []
        self.failed = 0
        self.errors: collections.Counter = collections.Counter()

    def failure(self, method: str, response) -> None:
        self.failed += 1
        self.errors[f"{method}: {getattr(response, 'error_message', None)}"
                    ] += 1


async def _send(clients, index: int, mix: Mix, rng: random.Random, item,
                tally: _Tally):
    """Send one drawn request; returns the method sent and its response
    (``None`` if it failed or was lost)."""
    kind, params, check = item
    quiz = None
    if kind == "quiz":
        quiz, method, params = mix.quiz_step(rng)
    else:
        method = kind
    try:
        response = await clients[index % len(clients)].call(method, params)
    except ConnectionError:
        response = None
    if quiz is not None:
        mix.quiz_done(quiz, response)
    if response is None or not response.ok:
        tally.failure(method, response)
        return method, None
    if check:
        tally.samples.append((method, params, response.result))
    return method, response


async def _open_loop(clients, mix: Mix, seed: int, label: str,
                     seconds: float, rate: float, tally: _Tally) -> None:
    """Send one request every ``1 / rate`` seconds, whatever the replies
    do; each record is timed from the moment its request was due."""
    rng = random.Random(derive_seed(seed, NAME, label))
    schedule = [mix.draw(rng) for _ in range(int(seconds * rate))]
    quiz_rng = random.Random(derive_seed(seed, NAME, label, "quiz"))
    pending: set[asyncio.Task] = set()

    async def fire(index: int, item, due: float) -> None:
        late = time.perf_counter() - due
        method, response = await _send(clients, index, mix, quiz_rng, item,
                                       tally)
        if response is None:
            tally.records.append((method_class(method), math.inf, late,
                                  None, None))
            return
        telemetry = response.telemetry or {}
        tally.records.append((
            method_class(method), time.perf_counter() - due, late,
            telemetry.get("queue_ms"), telemetry.get("handle_ms"),
        ))

    started = time.perf_counter() + 0.01
    for index, item in enumerate(schedule):
        due = started + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(fire(index, item, due))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        done, late = await asyncio.wait(list(pending), timeout=60)
        for task in late:
            task.cancel()
            tally.failure("timeout", None)
        for task in done:
            task.result()


async def _closed_loop(clients, mix: Mix, seed: int, label: str,
                       seconds: float, tally: _Tally) -> tuple[int, float]:
    """``CALLERS`` callers, each waiting for its reply before sending
    again; returns (answered, elapsed)."""
    stop_at = time.perf_counter() + seconds
    answered = 0

    async def caller(index: int) -> None:
        nonlocal answered
        rng = random.Random(derive_seed(seed, NAME, label, index))
        while time.perf_counter() < stop_at:
            _, response = await _send(clients, index, mix, rng,
                                      mix.draw(rng), tally)
            answered += response is not None

    started = time.perf_counter()
    await asyncio.gather(*(caller(i) for i in range(CALLERS)))
    return answered, time.perf_counter() - started


async def _prime(clients, mix: Mix, seed: int, tally: _Tally) -> None:
    rng = random.Random(derive_seed(seed, NAME, "prime"))
    for start in range(0, PRIME_SLICES, 32):
        await asyncio.gather(*(
            _send(clients, index, mix, rng,
                  ("oracle.slice", mix.slice(rng, "fresh"), False), tally)
            for index in range(start, min(start + 32, PRIME_SLICES))
        ))


async def _slowdown(server: Server) -> float:
    """Host slowdown seen by both processes, measured while the service
    is idle: the server's and this process's calibration slices."""
    reply = await server.command(f"calibrate {CALIBRATION_SLICES}")
    return (reply["slowdown"] + slowdown(CALIBRATION_SLICES)) / 2


def _check_samples(samples) -> int:
    for method, params, result in samples:
        if method == "op.eval":
            checks.check_op_eval(params, result)
        elif method == "oracle.slice":
            checks.check_oracle_slice(params, result)
    return len(samples)


async def _run(seed: int, seconds: float, trace: bool, scratch) -> dict:
    spans_path = OUT / "traces" / f"{NAME}-s{seed}-server.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    server, clients = await _start(seed, scratch, spans_path)
    mix = Mix(seed)
    prime, open_phase, closed = _Tally(), _Tally(), _Tally()
    windows: list[dict] = []
    offered: list[float] = []
    segments: list[tuple[bool, int, float]] = []
    try:
        await _prime(clients, mix, seed, prime)
        bracket = Bracket(await _slowdown(server))
        for number in range(SEGMENTS):
            if trace:
                await server.command("trace on")
            # offer the same share of the host's capacity whatever its
            # speed: a fixed rate saturates a host that runs 2x slow
            offered.append(RATE / bracket.last)
            await _open_loop(clients, mix, seed, f"open-{number}",
                             seconds * OPEN_SHARE / SEGMENTS, offered[-1],
                             open_phase)
            if trace:
                windows.append(await server.command("trace off"))
            bracket.factor(await _slowdown(server))
        # traced runs alternate untraced and traced closed-loop
        # segments: their throughput ratio is the tracing overhead
        plan = [False, True] * (SEGMENTS // 2) if trace else [False] * SEGMENTS
        for number, traced in enumerate(plan):
            if traced:
                await server.command("trace on")
            answered, elapsed = await _closed_loop(
                clients, mix, seed, f"closed-{number}",
                seconds * (1 - OPEN_SHARE) / len(plan), closed)
            if traced:
                await server.command("trace off")
            factor = bracket.factor(await _slowdown(server))
            segments.append((traced, answered, elapsed / factor))
        final = await _close(server, clients)
    except BaseException:
        for client in clients:
            await client.close()
        await server.kill()
        raise
    if prime.failed:
        raise checks.CheckFailed(f"priming requests failed: {prime.errors}")
    checked = _check_samples(open_phase.samples + closed.samples)
    stats = final["stats"]
    if stats["errors"] or stats["limited"] or stats["shed"]:
        raise checks.CheckFailed(f"service refused or failed requests: {stats}")
    latencies = [record[1] for record in open_phase.records]
    attempted = len(open_phase.records) + sum(a for _, a, _ in segments) \
        + closed.failed
    untraced = [(a, e) for traced, a, e in segments if not traced]
    qps = sum(a for a, _ in untraced) / sum(e for _, e in untraced)
    result = {
        "attempted": attempted,
        "failed": open_phase.failed + closed.failed,
        "errors": dict(open_phase.errors + closed.errors),
        "e2e": {
            "throughput_per_s": qps,
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_tail_ms": percentile(latencies, TAIL) * 1e3,
        },
        "named": {
            "serve_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
            "serve_p90_ms": (percentile(latencies, TAIL) * 1e3, "ms"),
            # recorded, not bounded: it does not repeat within 0.25
            "serve_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
            "serve_qps": (qps, "1/s"),
        },
        "raw": {"offered_rates": offered, "slowdowns": bracket.factors},
        "samples": {"open_requests": len(open_phase.records),
                    "closed_answered": sum(a for _, a, _ in segments),
                    "checked": checked, "spans": final["spans"]},
    }
    if trace:
        traced = [(a, e) for t, a, e in segments if t]
        traced_qps = sum(a for a, _ in traced) / sum(e for _, e in traced)
        result["per_layer"] = _per_layer(_merge(windows), open_phase.records,
                                         qps / traced_qps - 1)
    return result


def _merge(windows: list[dict]) -> dict:
    """One traced window from several: probe totals, seconds and
    counter deltas add up."""
    merged = json.loads(json.dumps(windows[0]))
    for window in windows[1:]:
        for name, probe in window["probes"].items():
            into = merged["probes"][name]
            for key in ("calls", "total_s", "self_s"):
                into[key] += probe[key]
            for key, value in probe["counters"].items():
                into["counters"][key] = into["counters"].get(key, 0) + value
        for key in ("window_s", "covered_s"):
            merged[key] += window[key]
        for key, value in window["deltas"].items():
            merged["deltas"][key] += value
    return merged


def _per_layer(window: dict, records, overhead: float) -> dict[str, float]:
    summary = {"probes": window["probes"]}
    check_required(summary, REQUIRED[NAME])
    values = probe_metrics(summary, passes=1)
    deltas = window["deltas"]
    lookups = (deltas["cache_hits"] + deltas["cache_disk_hits"]
               + deltas["cache_misses"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    answered = [r for r in records if r[3] is not None]
    values.update({
        "engine.cache_hit_share": ratio(deltas["cache_hits"], lookups),
        "engine.cache_disk_hit_share": ratio(deltas["cache_disk_hits"],
                                             lookups),
        "engine.cache_miss_share": ratio(deltas["cache_misses"], lookups),
        "service.queue_p50_ms": percentile([r[3] for r in answered], 0.5),
        "service.queue_p99_ms": percentile([r[3] for r in answered], 0.99),
        "service.batch_riders_mean": ratio(deltas["batch_submitted"],
                                           deltas["batch_flushes"]),
        "service.batch_lanes_mean": ratio(deltas["batch_lanes"],
                                          deltas["batch_flushes"]),
        "service.job_riders_mean": ratio(deltas["job_riders"],
                                         deltas["job_flushes"]),
        "service.lint_cache_hit_share": ratio(
            deltas["lint_hits"], deltas["lint_hits"] + deltas["lint_misses"]),
        "service.gen_late_p99_ms": percentile([r[2] for r in records],
                                              0.99) * 1e3,
        "trace.overhead_share": overhead,
        "trace.gap_share": 1 - window["covered_s"] / window["window_s"],
    })
    for cls in SERVICE_CLASSES:
        handled = [r[4] for r in answered if r[0] == cls]
        values[f"service.handle_p50_ms.{cls}"] = (
            percentile(handled, 0.5) if handled else 0.0)
    return values


def run(seed: int, seconds: float, trace: bool, scratch, recorder=None
        ) -> dict:
    return asyncio.run(_run(seed, seconds, trace, scratch))
