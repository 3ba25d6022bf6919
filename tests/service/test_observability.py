"""The service's observability surfaces: stats, scrape, top, traces."""

from __future__ import annotations

import asyncio
import functools
import itertools
import operator

from repro.engine.events import EngineFlag
from repro.fpenv.flags import FPFlag, flag_names
from repro.service import FPService, ServiceClient, ServiceConfig
from repro.service.topview import render_top
from repro.telemetry import flag_labels, parse_traceparent, parse_exposition


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


def make_service(**overrides) -> FPService:
    return FPService(ServiceConfig(**overrides), engine=None)


async def _client(service) -> ServiceClient:
    return await ServiceClient.open("127.0.0.1", service.port)


_DIV_BY_ZERO = {
    "op": "div", "format": "binary32",
    "operands": [[0x3F800000], [0x00000000]],
}


class TestStatsMethod:
    def test_stats_carries_qps_latency_and_fp_counts(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    for _ in range(4):
                        assert (await client.call("ping")).ok
                    assert (
                        await client.call("op.eval", _DIV_BY_ZERO)
                    ).ok
                    stats = (await client.call("stats")).result
                    assert stats["answered"] >= 5
                    assert stats["qps"] >= 0.0
                    latency = stats["latency_ms"]
                    assert latency["count"] >= 5
                    assert latency["p50_ms"] <= latency["p99_ms"]
                    exceptions = stats["fp_exceptions"]
                    assert exceptions["counts"].get("div_by_zero", 0) >= 1
                    trace_id = exceptions["exemplars"]["div_by_zero"]
                    assert len(trace_id) == 32

        run(main())


    def test_stats_reports_the_flush_split(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    for _ in range(3):
                        assert (
                            await client.call("op.eval", _DIV_BY_ZERO)
                        ).ok
                    return (await client.call("stats")).result

        batcher = run(main())["handlers"]["batcher"]
        assert batcher["submitted"] == batcher["flushes"] == 3
        # one client, one request at a time: each found its cell idle
        assert batcher["idle_flushes"] == 3
        assert batcher["backlog_flushes"] == batcher["size_flushes"] == 0
        assert batcher["riders_mean"] == 1.0


def _all_composites(flag_type):
    bits = [m for m in flag_type
            if m.value and (m.value & (m.value - 1)) == 0]
    for r in range(len(bits) + 1):
        for combo in itertools.combinations(bits, r):
            yield functools.reduce(operator.or_, combo, flag_type(0))


class TestFlagLabels:
    @staticmethod
    def _expected(flag_type, flags):
        return tuple(sorted(
            member.name.lower() for member in flag_type
            if member.value and (member.value & (member.value - 1)) == 0
            and member in flags
        ))

    def test_fp_flag_composites_label_as_flag_names(self):
        for flags in _all_composites(FPFlag):
            labels = flag_labels(flags)
            assert labels == self._expected(FPFlag, flags)
            assert flag_labels(flags) is labels  # memoized
            assert flag_names(flags) == list(labels)
            assert flag_names(flags) is not flag_names(flags)  # a fresh list

    def test_engine_flag_composites_decompose_generically(self):
        for flags in _all_composites(EngineFlag):
            labels = flag_labels(flags)
            assert labels == self._expected(EngineFlag, flags)
            assert flag_labels(flags) is labels  # memoized

    def test_fp_events_on_a_response(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    div = await client.call("op.eval", _DIV_BY_ZERO)
                    lint = await client.call("lint", {"expr": "a*b + c"})
                    ping = await client.call("ping")
                    return [r.telemetry["fp_events"]
                            for r in (div, lint, ping)]

        div, lint, ping = run(main())
        assert div == ["div_by_zero"]
        assert lint == ["denormal_result", "inexact", "invalid",
                        "overflow", "underflow"]
        assert ping == []


class TestMetricsMethod:
    def test_scrape_parses_and_carries_the_promised_series(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    await client.call("op.eval", _DIV_BY_ZERO)
                    await client.call("lint", {"expr": "a*b + c"})
                    await client.call("lint", {"expr": "a*b + c"})
                    reply = (await client.call("metrics")).result
                    assert reply["content_type"].startswith("text/plain")
                    parsed = parse_exposition(reply["text"])
                    samples = parsed["samples"]
                    # latency quantiles (histogram), queue depth, cache
                    # hit rate, per-flag FP counters with an exemplar
                    assert parsed["types"]["service_handle_ms"] \
                        == "histogram"
                    assert "service_queue_depth" in samples
                    assert "service_lint_cache_hit_ratio" in samples
                    assert samples[
                        'fpenv_exceptions_total{flag="div_by_zero"}'
                    ] >= 1
                    assert any(
                        key.startswith("fpenv_exceptions_total")
                        for key in parsed["exemplars"]
                    )

        run(main())

    def test_queue_and_batch_gauges_are_registered(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    await client.call("op.eval", _DIV_BY_ZERO)
                    text = (await client.call("metrics")).result["text"]
                    samples = parse_exposition(text)["samples"]
                    assert "service_queue_depth" in samples
                    assert "service_batch_fill_ratio" in samples
                    assert "service_batch_pending_riders" in samples
                    assert 'service_batch_lanes_count' in samples

        run(main())


class TestTraceparentPropagation:
    def test_request_joins_the_caller_trace(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    header = "00-" + "ab" * 16 + "-000000000000002a-01"
                    response = await client.call(
                        "ping", traceparent=header
                    )
                    assert response.telemetry["trace_id"] == "ab" * 16

        run(main())

    def test_without_traceparent_each_request_gets_a_fresh_trace(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    first = await client.call("ping")
                    second = await client.call("ping")
                    a = first.telemetry["trace_id"]
                    b = second.telemetry["trace_id"]
                    assert a != b
                    assert parse_traceparent(
                        f"00-{a}-0000000000000000-01"
                    ) is not None

        run(main())

    def test_malformed_traceparent_never_fails_the_request(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    response = await client.call(
                        "ping", traceparent="garbage"
                    )
                    assert response.ok
                    assert response.telemetry["trace_id"]

        run(main())


class TestTopView:
    def test_renders_one_screen_from_live_payloads(self):
        async def main():
            async with make_service() as service:
                async with await _client(service) as client:
                    await client.call("op.eval", _DIV_BY_ZERO)
                    stats = (await client.call("stats")).result
                    text = (await client.call("metrics")).result["text"]
            screen = render_top(
                stats, parse_exposition(text), title="t:1"
            )
            assert "repro top — t:1" in screen
            assert "qps" in screen
            assert "latency" in screen
            assert "div_by_zero" in screen
            assert "trace " in screen  # the exemplar column

        run(main())

    def test_renders_without_a_scrape(self):
        screen = render_top({"qps": 0.0})
        assert "repro top" in screen
        assert "fp flags  (none raised yet)" in screen
