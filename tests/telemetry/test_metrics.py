"""Metrics registry: instruments, labels, and histogram quantiles."""

import pytest

from repro.telemetry import NULL_METRICS, Counter, Gauge, LogHistogram, MetricsRegistry
from repro.telemetry.metrics import format_metric_name


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_empty_quantiles_are_none(self):
        histogram = LogHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.mean is None
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["p99"] is None

    def test_single_sample_is_every_quantile(self):
        histogram = LogHistogram()
        histogram.observe(7.0)
        assert histogram.quantile(0.0) == 7.0
        assert histogram.quantile(0.5) == 7.0
        assert histogram.quantile(1.0) == 7.0
        assert histogram.min == histogram.max == 7.0
        assert histogram.mean == 7.0

    def test_quantile_bounds_checked(self):
        histogram = LogHistogram()
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)


class TestRegistry:
    def test_same_name_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", op="add")
        b = registry.counter("ops", op="add")
        c = registry.counter("ops", op="mul")
        assert a is b and a is not c

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", op="add", format="binary32")
        b = registry.counter("ops", format="binary32", op="add")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_keys_and_contents(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", op="add").inc(3)
        registry.gauge("rate").set(1.5)
        registry.log_histogram("latency").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["ops_total{op=add}"] == {"type": "counter", "value": 3}
        assert snapshot["rate"]["value"] == 1.5
        assert snapshot["latency"]["count"] == 1
        assert len(registry) == 3

    def test_format_metric_name(self):
        assert format_metric_name("n", ()) == "n"
        assert format_metric_name(
            "n", (("a", "1"), ("b", "2"))
        ) == "n{a=1,b=2}"


class TestNullMetrics:
    def test_instruments_are_shared_noops(self):
        a = NULL_METRICS.counter("anything", op="add")
        b = NULL_METRICS.counter("else")
        assert a is b
        a.inc(100)
        assert a.value == 0
        NULL_METRICS.gauge("g").set(5.0)
        NULL_METRICS.log_histogram("h").observe(1.0)
        assert NULL_METRICS.snapshot() == {}
        assert len(NULL_METRICS) == 0
