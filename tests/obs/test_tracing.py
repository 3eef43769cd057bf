"""Span nesting, ring buffer, and JSONL -> Chrome export round-trip."""

import json

from repro.obs import Telemetry
from repro.obs.tracing import (
    Tracer,
    jsonl_to_chrome,
    read_jsonl,
    spans_to_chrome,
    write_jsonl,
)


class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.parent_id is None
        assert outer.depth == 0

    def test_children_finish_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [r["name"] for r in tracer.records]
        assert names == ["inner", "outer"]

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert 0 <= inner.duration <= outer.duration

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == outer.span_id

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        with tracer.span("after") as after:
            pass
        assert after.depth == 0


class TestRingBuffer:
    def test_oldest_records_dropped(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.records) == 4
        assert [r["name"] for r in tracer.records] == ["s6", "s7", "s8", "s9"]
        assert tracer.dropped == 6


class TestExportRoundTrip:
    def _sample_telemetry(self) -> Telemetry:
        tel = Telemetry()
        tel.meta.update(fs="nova", generator="test")
        with tel.span("record", workload="creat /f"):
            with tel.span("syscall", index=0, op="creat"):
                pass
        tel.event("workload_result", n_reports=0)
        return tel

    def test_jsonl_round_trip(self, tmp_path):
        tel = self._sample_telemetry()
        path = str(tmp_path / "trace.jsonl")
        n = tel.export_jsonl(path)
        records = list(read_jsonl(path))
        assert len(records) == n
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 2
        assert kinds.count("event") == 1
        assert "metric" not in kinds
        # spans are exported in timestamp order with nesting intact
        spans = [r for r in records if r["type"] == "span"]
        assert spans[0]["name"] == "record"
        assert spans[1]["name"] == "syscall"
        assert spans[1]["parent"] == spans[0]["id"]

    def test_jsonl_to_chrome_is_valid(self, tmp_path):
        tel = self._sample_telemetry()
        jsonl = str(tmp_path / "trace.jsonl")
        chrome = str(tmp_path / "trace.chrome.json")
        tel.export_jsonl(jsonl)
        n = jsonl_to_chrome(jsonl, chrome)
        doc = json.loads(open(chrome).read())
        events = doc["traceEvents"]
        assert len(events) == n == 3  # two spans + one instant event
        for e in events:
            assert e["ph"] in ("X", "i")
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        # timestamps are sorted, as the format expects
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

    def test_chrome_units_are_microseconds(self):
        records = [
            {"type": "span", "name": "s", "id": 1, "ts": 0.5, "dur": 0.25,
             "depth": 0},
        ]
        doc = spans_to_chrome(records)
        (event,) = doc["traceEvents"]
        assert event["ts"] == 500000.0
        assert event["dur"] == 250000.0

    def test_write_jsonl_counts_lines(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        assert write_jsonl(path, [{"a": 1}, {"b": 2}]) == 2
        assert len(open(path).read().strip().splitlines()) == 2


class TestEmptyTraceExport:
    def test_export_without_activity_is_just_the_header(self, tmp_path):
        tel = Telemetry()
        tel.meta.update(fs="nova")
        path = str(tmp_path / "empty.jsonl")
        n = tel.export_jsonl(path)
        records = list(read_jsonl(path))
        assert len(records) == n
        assert [r["type"] for r in records] == ["meta"]

    def test_empty_trace_converts_to_empty_chrome_doc(self, tmp_path):
        tel = Telemetry()
        jsonl = str(tmp_path / "empty.jsonl")
        chrome = str(tmp_path / "empty.chrome.json")
        tel.export_jsonl(jsonl)
        assert jsonl_to_chrome(jsonl, chrome) == 0
        doc = json.loads(open(chrome).read())
        assert doc["traceEvents"] == []

    def test_empty_tracer_export_is_empty(self):
        tracer = Tracer()
        assert tracer.export() == []
        assert tracer.dropped == 0


class TestRingBufferWraparound:
    def test_events_and_spans_share_the_ring(self):
        tracer = Tracer(capacity=4)
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
            tracer.event(f"e{i}")
        # 6 completed records through a 4-slot ring: oldest two dropped
        assert len(tracer.records) == 4
        assert tracer.dropped == 2
        assert [r["name"] for r in tracer.records] == ["s1", "e1", "s2", "e2"]
        kinds = {r["type"] for r in tracer.records}
        assert kinds == {"span", "event"}

    def test_export_stays_timestamp_ordered_after_wrap(self):
        tracer = Tracer(capacity=8)
        for i in range(50):
            with tracer.span(f"s{i}"):
                pass
        exported = tracer.export()
        stamps = [r["ts"] for r in exported]
        assert stamps == sorted(stamps)
        assert [r["name"] for r in exported] == [
            f"s{i}" for i in range(42, 50)
        ]

    def test_open_span_survives_a_full_wrap(self):
        # A parent span held open across a wraparound must still land in
        # the buffer (as the newest record) when it finally closes.
        tracer = Tracer(capacity=4)
        with tracer.span("outer"):
            for i in range(10):
                with tracer.span(f"inner{i}"):
                    pass
        assert tracer.records[-1]["name"] == "outer"
        assert tracer.dropped == 7  # 11 completed - 4 kept


class TestConcatenatedTraceOrdering:
    """A merged campaign trace is several per-worker traces concatenated —
    Chrome conversion must re-sort across file boundaries."""

    def _worker_trace(self, tmp_path, wid):
        tel = Telemetry()
        tel.meta.update(worker=wid)
        with tel.span(f"w{wid}-outer"):
            with tel.span(f"w{wid}-inner"):
                pass
        path = str(tmp_path / f"worker-{wid}.jsonl")
        tel.export_jsonl(path)
        return path

    def test_multi_file_concat_sorts_globally(self, tmp_path):
        paths = [self._worker_trace(tmp_path, wid) for wid in range(3)]
        records = []
        for path in paths:
            records.extend(read_jsonl(path))
        merged = str(tmp_path / "trace.jsonl")
        write_jsonl(merged, records)
        chrome = str(tmp_path / "trace.chrome.json")
        n = jsonl_to_chrome(merged, chrome)
        doc = json.loads(open(chrome).read())
        events = doc["traceEvents"]
        assert len(events) == n == 6  # two spans per worker
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        # all three workers' spans survived the merge
        names = {e["name"] for e in events}
        assert names == {
            f"w{wid}-{part}"
            for wid in range(3) for part in ("outer", "inner")
        }
