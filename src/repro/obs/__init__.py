"""Campaign telemetry: structured tracing and profiling.

The subsystem is dependency-free and split by concern:

* :mod:`repro.obs.tracing` — nestable spans, ring-buffer recorder, JSONL
  and Chrome trace-event exporters;
* :mod:`repro.obs.profile` — the pipeline's one stage clock (the source of
  ``TestResult.stage_times``) and the hot-path profiler built on it;
* :mod:`repro.obs.campaign` — :func:`~repro.obs.campaign.fold`, the one
  additive fold of per-workload results that every campaign aggregate
  (``repro stats``, ``coverage``, ``watch``, ``diff``, report.md) uses.

A trace holds two primitives, spans and events, plus its leading ``meta``
record.  Every per-workload time and count is a ``TestResult`` field: the
stage clock measures the times, the pipeline counts the rest, and the
``workload_result`` event carries both into the trace.  The tracer's ring
buffer bounds memory by dropping its oldest records, so
:attr:`Telemetry.results` folds each event as it is recorded: the run's
totals stay exact however long it runs.

:class:`Telemetry` is the facade the pipeline is instrumented against;
:data:`NULL` is the no-op implementation installed by default.  It records
nothing, its spans time nothing, and its ``enabled`` flag is ``False`` so
hot loops (per-syscall and per-crash-state spans) skip instrumentation
entirely.  Overhead policy: with telemetry disabled the pipeline must stay
within 10% of the uninstrumented baseline
(``benchmarks/bench_telemetry_overhead.py`` enforces this).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict

from repro.obs.campaign import ResultFold
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
    "Tracer", "Span",
    "write_jsonl", "read_jsonl", "spans_to_chrome", "jsonl_to_chrome",
]


class Telemetry:
    """Live telemetry: a span/event tracer plus the trace's metadata."""

    enabled = True

    def __init__(self, span_capacity: int = 65536) -> None:
        self.tracer = Tracer(capacity=span_capacity)
        #: Campaign-level metadata (fs, generator, seed, …) written as the
        #: trace's leading ``meta`` record.
        self.meta: Dict[str, object] = {}
        #: Every event folded as it is recorded, outside the ring: any
        #: :class:`~repro.obs.campaign.ResultFold` (the CLI installs a
        #: ``CampaignSummary`` for ``--metrics``).
        self.results = ResultFold()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **fields) -> None:
        self.tracer.event(name, **fields)
        self.results.add_event(name, fields)

    # ------------------------------------------------------------------
    def export_records(self):
        """Meta + time-ordered trace records.  The meta record counts the
        records the ring dropped, if any."""
        meta = dict(self.meta)
        if self.tracer.dropped:
            meta["dropped_records"] = self.tracer.dropped
        records = [dict(meta, type="meta")] if meta else []
        records.extend(self.tracer.export())
        return records

    def export_jsonl(self, path: str) -> int:
        """Write the full trace (meta, spans, events) as JSONL."""
        return write_jsonl(path, self.export_records())


class NullTelemetry:
    """No-op telemetry; the default for every pipeline entry point."""

    enabled = False
    #: No tracer: the stage clock writes no spans.
    tracer = None

    def span(self, name: str, **attrs):
        return nullcontext()

    def event(self, name: str, **fields) -> None:
        pass

    def export_records(self):
        return []

    def export_jsonl(self, path: str) -> int:
        return 0


#: Shared null instance; ``telemetry or NULL`` is the standard install idiom.
NULL = NullTelemetry()
