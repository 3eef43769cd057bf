"""Campaign telemetry: structured tracing, metrics, and profiling.

The subsystem is dependency-free and split by concern:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms;
* :mod:`repro.obs.tracing` — nestable spans, ring-buffer recorder, JSONL
  and Chrome trace-event exporters;
* :mod:`repro.obs.campaign` — :func:`~repro.obs.campaign.fold`, the one
  additive fold of per-workload results that every campaign aggregate
  (``repro stats``, ``coverage``, ``watch``, ``diff``, report.md) uses.

:class:`Telemetry` is the facade the pipeline is instrumented against;
:data:`NULL` is the no-op implementation installed by default.  The null
object still *times* spans (two ``perf_counter`` reads at the boundaries —
the harness sources ``TestResult.stage_times`` from them) but records and
exports nothing, and its ``enabled`` flag is ``False`` so hot loops
(per-crash-state spans, per-device-access counters) skip instrumentation
entirely.  Overhead policy: with telemetry disabled the pipeline must stay
within 10% of the uninstrumented baseline
(``benchmarks/bench_telemetry_overhead.py`` enforces this).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence

from repro.obs.metrics import (
    CacheCounters,
    Counter,
    Gauge,
    Histogram,
    INFLIGHT_EDGES,
    LATENCY_EDGES,
    MetricsRegistry,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    jsonl_to_chrome,
    read_jsonl,
    spans_to_chrome,
    write_jsonl,
)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "CacheCounters",
    "Tracer", "Span",
    "write_jsonl", "read_jsonl", "spans_to_chrome", "jsonl_to_chrome",
    "INFLIGHT_EDGES", "LATENCY_EDGES",
]


class Telemetry:
    """Live telemetry: a tracer plus a metrics registry behind one facade."""

    enabled = True

    def __init__(self, span_capacity: int = 65536) -> None:
        self.tracer = Tracer(capacity=span_capacity)
        self.metrics = MetricsRegistry()
        #: Campaign-level metadata (fs, generator, seed, …) written as the
        #: trace's leading ``meta`` record.
        self.meta: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **fields) -> None:
        self.tracer.event(name, **fields)

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float,
                edges: Optional[Sequence[float]] = None) -> None:
        self.metrics.histogram(name, edges).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    # ------------------------------------------------------------------
    def export_records(self):
        """Meta + time-ordered trace records + metric snapshot."""
        records = [dict(self.meta, type="meta")] if self.meta else []
        records.extend(self.tracer.export())
        records.extend(self.metrics.snapshot())
        return records

    def export_jsonl(self, path: str) -> int:
        """Write the full trace (meta, spans, events, metrics) as JSONL."""
        return write_jsonl(path, self.export_records())


class _NullSpan:
    """Timing-only span: measures its duration but records nothing.

    The harness reads ``duration`` off its stage spans whether or not
    telemetry is on, so per-stage timings cost exactly two ``perf_counter``
    reads per stage in the disabled path.
    """

    __slots__ = ("start", "duration")

    def __enter__(self) -> "_NullSpan":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.duration = perf_counter() - self.start


class NullTelemetry:
    """No-op telemetry; the default for every pipeline entry point."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NullSpan()

    def event(self, name: str, **fields) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float,
                edges: Optional[Sequence[float]] = None) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def export_records(self):
        return []

    def export_jsonl(self, path: str) -> int:
        return 0


#: Shared null instance; ``telemetry or NULL`` is the standard install idiom.
NULL = NullTelemetry()
