"""Prometheus exposition: rendering, exemplars, and the format checker."""

import pytest

from repro.telemetry import (
    LogHistogram,
    MetricsRegistry,
    parse_exposition,
    render_prometheus,
)
from repro.telemetry.metrics import format_metric_name
from repro.telemetry.prometheus import sanitize_name


def _registry():
    registry = MetricsRegistry()
    registry.counter("fpenv.exceptions_total", flag="overflow").inc(3)
    registry.gauge("service.queue_depth").set(4)
    registry.log_histogram("service.handle_ms", method="lint").observe(1.5)
    registry.log_histogram("engine.run_seconds").observe(0.5)
    return registry


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_name("service.handle_ms") == "service_handle_ms"

    def test_leading_digit_is_prefixed(self):
        assert sanitize_name("2fast")[0] not in "0123456789"


class TestRender:
    def test_every_family_has_a_type_line(self):
        parsed = parse_exposition(render_prometheus(_registry()))
        assert parsed["types"]["fpenv_exceptions_total"] == "counter"
        assert parsed["types"]["service_queue_depth"] == "gauge"
        assert parsed["types"]["service_handle_ms"] == "histogram"
        assert parsed["types"]["engine_run_seconds"] == "histogram"
        assert "summary" not in parsed["types"].values()

    def test_sample_values_round_trip(self):
        parsed = parse_exposition(render_prometheus(_registry()))
        samples = parsed["samples"]
        assert samples['fpenv_exceptions_total{flag="overflow"}'] == 3
        assert samples["service_queue_depth"] == 4
        assert samples['service_handle_ms_count{method="lint"}'] == 1
        assert samples['service_handle_ms_bucket{method="lint",le="+Inf"}'] \
            == 1
        assert samples["engine_run_seconds_count"] == 1

    def test_histogram_buckets_are_cumulative_to_count(self):
        registry = MetricsRegistry()
        histogram = registry.log_histogram("h")
        for value in (0.1, 1.0, 10.0):
            histogram.observe(value)
        parsed = parse_exposition(render_prometheus(registry))
        buckets = {
            key: value for key, value in parsed["samples"].items()
            if key.startswith("h_bucket")
        }
        assert buckets['h_bucket{le="+Inf"}'] == 3
        assert max(buckets.values()) == 3

    def test_counter_exemplar_renders_and_parses(self):
        registry = _registry()
        key = format_metric_name(
            "fpenv.exceptions_total", (("flag", "overflow"),)
        )
        text = render_prometheus(
            registry, exemplars={key: ("ab" * 16, 1.0)}
        )
        parsed = parse_exposition(text)
        assert parsed["exemplars"][
            'fpenv_exceptions_total{flag="overflow"}'
        ] == "ab" * 16

    def test_histogram_inf_bucket_carries_the_exemplar(self):
        registry = MetricsRegistry()
        registry.log_histogram("service.handle_ms").observe(2.0)
        text = render_prometheus(
            registry,
            exemplars={"service.handle_ms": ("cd" * 16, 2.0)},
        )
        parsed = parse_exposition(text)
        assert parsed["exemplars"][
            'service_handle_ms_bucket{le="+Inf"}'
        ] == "cd" * 16

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", label='say "hi"\\now').inc()
        parsed = parse_exposition(render_prometheus(registry))
        assert any(key.startswith("c{") for key in parsed["samples"])


class TestFormatChecker:
    @pytest.mark.parametrize("bad", [
        "# TYPE too few",
        "# TYPE name badkind\n",
        "no_value_here\n",
        'name{unclosed="x} 1\n',
        "name 1 2 3 4\n",
    ])
    def test_drift_fails_loudly(self, bad):
        with pytest.raises(ValueError):
            parse_exposition(bad)

    def test_blank_lines_and_comments_are_fine(self):
        parsed = parse_exposition("\n# HELP something\n# TYPE g gauge\ng 1\n")
        assert parsed["samples"]["g"] == 1
