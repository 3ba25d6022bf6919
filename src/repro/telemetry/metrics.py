"""Metrics registry: counters, gauges, and mergeable log histograms.

Metrics are named and optionally labelled —
``registry.counter("softfloat.ops_total", op="add", format="binary64")``
— and each (name, labels) pair maps to one instrument for the life of
the registry.  The one histogram type, :class:`LogHistogram`, keeps
log-spaced bucket counts: memory stays bounded, quantiles (p50/p95/p99)
carry a fixed relative error, and two histograms merge exactly by
adding counts; ``count``/``min``/``max`` are always exact.

:class:`NullMetrics` is the disabled registry: instrument lookups
return shared no-op instances so instrumented code pays one call and
no allocation when telemetry is off.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "format_metric_name",
]

def format_metric_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Canonical ``name{k=v,...}`` spelling used in exports."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


#: Per-bucket growth factor: 2**(1/8) bounds the relative quantile
#: error at (gamma-1)/(gamma+1) ~= 4.4% while keeping bucket counts
#: small (one decade of values spans ~27 buckets).
_LOG_GAMMA = 2.0 ** 0.125
_LN_GAMMA = math.log(_LOG_GAMMA)


class LogHistogram:
    """Mergeable log-bucketed histogram (DDSketch-style).

    Values map to geometric buckets ``(gamma**(i-1), gamma**i]`` with
    ``gamma = 2**(1/8)``; a bucket is just an integer count, so two
    histograms merge by *adding bucket counts* — exactly associative
    and commutative, which is what lets worker-shard deltas aggregate
    in any arrival order with parent quantiles independent of that
    order.  ``count``/``min``/``max`` merge exactly too; ``sum`` is a
    float accumulation and may differ in the last ulp under regrouping.

    Quantiles return the geometric midpoint of the covering bucket,
    clamped to the observed ``[min, max]`` — so a single observation
    reports itself exactly, and the relative error is bounded by
    ``(gamma-1)/(gamma+1)`` (~4.4%) everywhere else.
    """

    __slots__ = ("count", "total", "min", "max",
                 "_buckets", "_neg_buckets", "_zero")
    kind = "log_histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}
        self._neg_buckets: dict[int, int] = {}
        self._zero = 0

    @staticmethod
    def _index(magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / _LN_GAMMA)

    def observe(self, value: float, _log=math.log, _ceil=math.ceil,
                _ln_gamma=_LN_GAMMA) -> None:
        # Hot path (one call per timed operation): the bucket index is
        # computed inline rather than via _index so a single call frame
        # covers the whole observation.
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            index = _ceil(_log(value) / _ln_gamma)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1
        elif value == 0.0:
            self._zero += 1
        else:
            index = _ceil(_log(-value) / _ln_gamma)
            buckets = self._neg_buckets
            buckets[index] = buckets.get(index, 0) + 1

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (returns self)."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        for index, n in other._neg_buckets.items():
            self._neg_buckets[index] = self._neg_buckets.get(index, 0) + n
        self._zero += other._zero
        return self

    def merge_dict(self, data: dict[str, Any]) -> "LogHistogram":
        """Fold an exported ``to_dict()`` payload into this histogram."""
        other = LogHistogram.from_dict(data)
        return self.merge(other)

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "LogHistogram":
        hist = LogHistogram()
        hist.count = int(data.get("count") or 0)
        hist.total = float(data.get("sum") or 0.0)
        hist.min = data.get("min")
        hist.max = data.get("max")
        hist._zero = int(data.get("zero") or 0)
        hist._buckets = {
            int(k): int(v) for k, v in (data.get("buckets") or {}).items()
        }
        hist._neg_buckets = {
            int(k): int(v)
            for k, v in (data.get("neg_buckets") or {}).items()
        }
        return hist

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    @staticmethod
    def _representative(index: int) -> float:
        # geometric midpoint of (gamma**(i-1), gamma**i]
        return 2.0 * (_LOG_GAMMA ** index) / (1.0 + _LOG_GAMMA)

    def _ranked(self) -> Iterable[tuple[float, int]]:
        """(representative, count) in ascending value order."""
        for index in sorted(self._neg_buckets, reverse=True):
            yield -self._representative(index), self._neg_buckets[index]
        if self._zero:
            yield 0.0, self._zero
        for index in sorted(self._buckets):
            yield self._representative(index), self._buckets[index]

    def quantile(self, q: float) -> float | None:
        """Bucket-midpoint quantile, clamped to ``[min, max]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return None
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        seen = 0
        value = self.min
        for representative, n in self._ranked():
            seen += n
            if seen >= rank:
                value = representative
                break
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def bucket_bounds(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs for Prometheus-
        style exposition (positive buckets; zero/negatives fold into
        the first bound)."""
        pairs: list[tuple[float, int]] = []
        cumulative = self._zero + sum(self._neg_buckets.values())
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            pairs.append((_LOG_GAMMA ** index, cumulative))
        return pairs

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict[str, Any]:
        payload = {"type": self.kind, **self.summary()}
        payload["buckets"] = {
            str(index): n for index, n in sorted(self._buckets.items())
        }
        if self._neg_buckets:
            payload["neg_buckets"] = {
                str(index): n
                for index, n in sorted(self._neg_buckets.items())
            }
        if self._zero:
            payload["zero"] = self._zero
        return payload


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "log_histogram": LogHistogram,
}


class MetricsRegistry:
    """Creates instruments on demand and snapshots them for export."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    def _get(self, kind: str, name: str, labels: dict[str, Any]) -> Any:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = _KINDS[kind]()
        elif metric.kind != kind:
            raise TypeError(
                f"metric {format_metric_name(*key)!r} already registered"
                f" as a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def log_histogram(self, name: str, **labels: Any) -> LogHistogram:
        """The registry's histogram: mergeable across processes
        (shard deltas, request sessions)."""
        return self._get("log_histogram", name, labels)

    def __iter__(self) -> Iterable:
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: ``{"name{labels}": {...}}``, sorted."""
        return {
            format_metric_name(name, labels): metric.to_dict()
            for (name, labels), metric in sorted(self._metrics.items())
        }

    def render(self) -> str:
        """Human-readable table of every instrument."""
        from repro.telemetry.export import render_metrics

        return render_metrics(self.snapshot())


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullLogHistogram(LogHistogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_LOG_HISTOGRAM = _NullLogHistogram()


class NullMetrics:
    """The disabled registry: shared no-op instruments, empty snapshot."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return _NULL_GAUGE

    def log_histogram(self, name: str, **labels: Any) -> LogHistogram:
        return _NULL_LOG_HISTOGRAM

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {}

    def render(self) -> str:
        return "(metrics disabled)"


#: Shared disabled registry.
NULL_METRICS = NullMetrics()
