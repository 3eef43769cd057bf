"""Nestable spans with a ring-buffer recorder and trace exporters.

The tracer records two record kinds:

* **spans** — named, nestable intervals: the pipeline's ``record``,
  ``oracle``, ``triage`` and ``analyze`` stages (one each per workload,
  written by the stage clock, :mod:`repro.obs.profile`, with the seconds it
  charged the stage), plus
  per-syscall and per-checked-state spans.  A span reads ``perf_counter``
  exactly twice, at enter and exit — never inside the work it wraps.
* **events** — instant markers carrying arbitrary JSON-serialisable fields
  (``workload_result``, ``cluster_found``, ``campaign_start``); the
  campaign aggregator (:mod:`repro.obs.campaign`) is rebuilt from these.

Completed records land in a bounded ring buffer (oldest dropped first) so a
million-workload campaign cannot exhaust memory, and export to two formats:

* JSONL — one record per line, the campaign's durable artifact
  (``--trace FILE``; consumed by ``python -m repro stats``);
* Chrome trace-event JSON — ``chrome://tracing`` / Perfetto compatible,
  produced by :func:`spans_to_chrome` / :func:`jsonl_to_chrome`.

Timestamps are ``perf_counter`` seconds relative to the tracer's creation,
so traces are meaningful as durations and orderings, not wall-clock dates.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter
from typing import Deque, Dict, Iterator, List, Optional

#: Default ring-buffer capacity (completed records kept).
DEFAULT_CAPACITY = 65536


class Span:
    """One open (then finished) trace interval; used as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "start", "duration")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.duration = perf_counter() - self.start
        self.tracer._pop(self)

    def to_dict(self) -> Dict[str, object]:
        rec: Dict[str, object] = {
            "type": "span", "name": self.name, "id": self.span_id,
            "ts": self.start - self.tracer.epoch, "dur": self.duration,
            "depth": self.depth,
        }
        if self.parent_id is not None:
            rec["parent"] = self.parent_id
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class Tracer:
    """Span/event recorder with bounded memory.

    Nesting is tracked with an explicit stack: a span entered while another
    is open becomes its child (``parent``/``depth`` in the record).  Only
    *finished* spans occupy ring-buffer slots.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.epoch = perf_counter()
        self.records: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.dropped = 0
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def open_span(self, name: str, start: float, **attrs) -> Span:
        """Open a span the caller times (a stage-clock stage).  It takes its
        id and parent now and sits on the nesting stack until
        :meth:`release`; :meth:`close_span` writes it."""
        span = Span(self, name, attrs)
        self._push(span)
        span.start = start
        return span

    def release(self, span: Span) -> None:
        """Take an open span off the nesting stack without writing it."""
        if span in self._stack:
            self._stack.remove(span)

    def close_span(self, span: Span, duration: float) -> None:
        """Write a span opened by :meth:`open_span`."""
        self.release(span)
        span.duration = duration
        self._append(span.to_dict())

    def event(self, name: str, **fields) -> None:
        """Record an instant event."""
        self._append({
            "type": "event", "name": name,
            "ts": perf_counter() - self.epoch, "fields": fields,
        })

    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        if self._stack:
            span.parent_id = self._stack[-1].span_id
            span.depth = len(self._stack)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding through several open spans.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._append(span.to_dict())

    def _append(self, record: Dict[str, object]) -> None:
        if len(self.records) == self.records.maxlen:
            self.dropped += 1
        self.records.append(record)

    # ------------------------------------------------------------------
    def export(self) -> List[Dict[str, object]]:
        """Finished records in timestamp order."""
        return sorted(self.records, key=lambda r: r["ts"])


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(path: str, records) -> int:
    """Write records (dicts) as JSON Lines; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
    return n


def read_jsonl(path: str) -> Iterator[Dict[str, object]]:
    """Yield one dict per non-empty line of a JSONL trace."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def spans_to_chrome(records) -> Dict[str, object]:
    """Convert JSONL-shape records to a Chrome trace-event document.

    Spans become complete (``ph: "X"``) events, instant events become
    ``ph: "i"``; timestamps and durations are microseconds as the format
    requires.  The result loads in ``chrome://tracing`` and Perfetto.
    """
    events: List[Dict[str, object]] = []
    for rec in records:
        kind = rec.get("type")
        if kind == "span":
            events.append({
                "name": rec["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": round(float(rec["ts"]) * 1e6, 3),
                "dur": round(float(rec["dur"]) * 1e6, 3),
                "args": rec.get("attrs", {}),
            })
        elif kind == "event":
            events.append({
                "name": rec["name"], "ph": "i", "s": "g", "pid": 1, "tid": 1,
                "ts": round(float(rec["ts"]) * 1e6, 3),
                "args": rec.get("fields", {}),
            })
        # meta records carry no timeline position.
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def jsonl_to_chrome(jsonl_path: str, chrome_path: str) -> int:
    """Convert a JSONL trace file to a Chrome trace-event file.

    Returns the number of timeline events written.
    """
    doc = spans_to_chrome(read_jsonl(jsonl_path))
    with open(chrome_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
