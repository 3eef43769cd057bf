"""Metrics primitives for campaign telemetry.

A :class:`MetricsRegistry` hands out named counters, gauges, and
fixed-bucket histograms.  The primitives are deliberately dependency-free
and allocation-light: incrementing a counter is one integer add on a slotted
object, so instrumented hot paths (``pm.device`` reads/writes, replayer
fence handling) stay cheap.  No primitive ever reads the wall clock —
timing belongs to the span layer (:mod:`repro.obs.tracing`), which calls
``perf_counter`` only at span boundaries.

Histogram buckets follow the Prometheus convention: ``edges`` is an
ascending tuple of *inclusive* upper bounds, and one implicit overflow
bucket catches everything above the last edge.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default buckets for in-flight write-unit counts (Obs. 7: averages around
#: 3, maxima around 10 on the tested systems).
INFLIGHT_EDGES: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24)

#: Default buckets for span durations, in seconds.
LATENCY_EDGES: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> Dict[str, object]:
        return {"type": "metric", "kind": "counter", "name": self.name,
                "value": self.value}


class Gauge:
    """A point-in-time value metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "metric", "kind": "gauge", "name": self.name,
                "value": self.value}


class Histogram:
    """A fixed-bucket histogram with inclusive upper-bound edges.

    ``counts[i]`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (the first bucket has no lower bound);
    ``counts[-1]`` is the overflow bucket for ``v > edges[-1]``.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram edges must be ascending, got {edges!r}")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "metric", "kind": "histogram", "name": self.name,
            "edges": list(self.edges), "counts": list(self.counts),
            "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max,
        }


class CacheCounters:
    """A hit/miss counter pair for one named cache.

    Thin convenience over two :class:`Counter` objects named
    ``<name>.hits`` / ``<name>.misses`` so every cache in the system
    surfaces the same metric shape.  When built from a
    :class:`MetricsRegistry` the counters land in its snapshot; standalone
    construction (no registry) keeps cache code usable without telemetry.
    """

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str, registry: Optional["MetricsRegistry"] = None) -> None:
        self.name = name
        if registry is not None:
            self.hits = registry.counter(f"{name}.hits")
            self.misses = registry.counter(f"{name}.misses")
        else:
            self.hits = Counter(f"{name}.hits")
            self.misses = Counter(f"{name}.misses")

    def hit(self, n: int = 1) -> None:
        self.hits.inc(n)

    def miss(self, n: int = 1) -> None:
        self.misses.inc(n)

    @property
    def total(self) -> int:
        return self.hits.value + self.misses.value

    @property
    def hit_rate(self) -> float:
        return self.hits.value / self.total if self.total else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {self.hits.value} hit(s), "
            f"{self.misses.value} miss(es) ({self.hit_rate * 100:.0f}%)"
        )


class MetricsRegistry:
    """Named metric store; lookups are cached so hot paths can cache the
    returned object and skip the dictionary entirely."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, edges: Optional[Sequence[float]] = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges or LATENCY_EDGES)
        return h

    def snapshot(self) -> List[Dict[str, object]]:
        """All metrics as JSONL-ready dicts, in name order."""
        out: List[Dict[str, object]] = []
        for group in (self._counters, self._gauges, self._histograms):
            for name in sorted(group):
                out.append(group[name].to_dict())
        return out
