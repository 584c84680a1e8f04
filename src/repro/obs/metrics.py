"""Metrics registry: counters, gauges and fixed-bucket histograms.

Service-level numbers the serving plane exposes -- request-latency
percentiles, queue depth, admission rejections, restarts, timeouts --
without perturbing the byte-identical execution oracle: every instrument
is a lock-protected accumulator the hot path bumps and the ``metrics`` /
``health`` request kinds read.

Histograms use *fixed* exponential bucket boundaries (seconds), so two
histograms recorded in different processes merge exactly: bucket counts
add, totals add, extrema max/min -- the same commutative-merge discipline
as :class:`~repro.db.algebra.OperatorStats`.  Worker-side observations
travel over the existing response queues (the pool observes each result
message's elapsed time), so no new IPC channel exists.

Quantiles are bucket-resolution estimates: ``quantile(q)`` returns the
upper boundary of the bucket in which the ``q``-th observation falls (the
recorded maximum for the overflow bucket) -- monotone in ``q``, merge-
stable, and exactly what p50/p95/p99 dashboards need.

There is no disabled twin: a pool or daemon always records into a live
registry (its own, or one the caller passes in to share).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Default histogram boundaries (seconds): half-microsecond kernels up to
#: ten-second requests; observations above the last edge land in the
#: overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotone counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, by: int = 1) -> None:
        with self._lock:
            self._value += by

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_payload(self) -> int:
        return self.value


class Gauge:
    """A last-write-wins level (queue depth, generation)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_payload(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram with exact cross-process merge."""

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram buckets must strictly increase: {bounds}")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution ``q``-quantile (0 < q <= 1); 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            running = 0
            for index, bucket_count in enumerate(self._counts):
                running += bucket_count
                if running >= rank:
                    if index < len(self._bounds):
                        return self._bounds[index]
                    return self._max if self._max is not None else 0.0
            return self._max if self._max is not None else 0.0

    def quantiles(self, qs: Iterable[float] = (0.5, 0.95, 0.99)) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ..., "count", "sum", "max"}``."""
        out: Dict[str, float] = {}
        for q in qs:
            out[f"p{q * 100:g}"] = self.quantile(q)
        with self._lock:
            out["count"] = self._count
            out["sum"] = round(self._sum, 9)
            out["max"] = self._max if self._max is not None else 0.0
        return out

    def to_payload(self) -> Dict[str, object]:
        with self._lock:
            return {
                "buckets": list(self._bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def merge(self, payload: Mapping) -> None:
        """Fold another histogram's :meth:`to_payload` in (identical
        boundaries required) -- the cross-process merge."""
        bounds = tuple(float(b) for b in payload.get("buckets", ()))
        if bounds != self._bounds:
            raise ValueError(
                f"cannot merge histograms with differing buckets: "
                f"{bounds} != {self._bounds}"
            )
        counts = [int(c) for c in payload.get("counts", ())]
        if len(counts) != len(self._counts):
            raise ValueError("histogram payload has the wrong bucket count")
        other_min = payload.get("min")
        other_max = payload.get("max")
        with self._lock:
            for index, value in enumerate(counts):
                self._counts[index] += value
            self._count += int(payload.get("count", 0))
            self._sum += float(payload.get("sum", 0.0))
            if other_min is not None and (self._min is None or other_min < self._min):
                self._min = float(other_min)
            if other_max is not None and (self._max is None or other_max > self._max):
                self._max = float(other_max)


class MetricsRegistry:
    """Named instruments, created on first use (so readers may probe a
    metric before the hot path has touched it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(buckets)
            return instrument

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe snapshot of every instrument, sorted by name."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: counters[k].to_payload() for k in sorted(counters)},
            "gauges": {k: gauges[k].to_payload() for k in sorted(gauges)},
            "histograms": {k: histograms[k].to_payload() for k in sorted(histograms)},
        }

    def merge(self, payload: Mapping) -> None:
        """Fold another registry's :meth:`to_payload` in: counters add,
        gauges last-write-win, histograms bucket-merge."""
        for name, value in (payload.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (payload.get("gauges") or {}).items():
            self.gauge(name).set(float(value))
        for name, hist_payload in (payload.get("histograms") or {}).items():
            buckets = hist_payload.get("buckets")
            self.histogram(name, buckets).merge(hist_payload)


def resolve_registry(metrics):
    """Normalise a metrics knob: ``None`` -> a fresh live registry, a
    registry instance -> itself (shared with the caller)."""
    return MetricsRegistry() if metrics is None else metrics


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "resolve_registry",
]
