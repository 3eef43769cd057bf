"""Telemetry threading through the pipeline.

The load-bearing regression: a telemetry-off run must produce the same
`TestResult` the seed harness produced — telemetry is observation, never
behaviour.
"""

import dataclasses

import pytest

from repro.core import Chipmunk, harness
from repro.fs.bugs import BugConfig
from repro.obs import NULL, NullTelemetry, Telemetry, read_jsonl
from repro.obs.profile import SPAN_STAGES
from repro.workloads.fuzzer import WorkloadFuzzer
from repro.workloads.ops import Op

WORKLOAD = [
    Op("mkdir", ("/A",)),
    Op("creat", ("/A/f",)),
    Op("write", ("/A/f", 0, 0x41, 700)),
    Op("rename", ("/A/f", "/g")),
]

#: TestResult fields that are timing-derived and thus never comparable
#: across runs.
TIMING_FIELDS = ("elapsed", "stage_times")


def _behavioural_fields(result):
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in TIMING_FIELDS
    }


class TestTelemetryOffRegression:
    @pytest.mark.parametrize("fs_name", ["nova", "pmfs"])
    def test_off_and_on_runs_behave_identically(self, fs_name):
        """Every non-timing field matches between a default (null-telemetry)
        run and a fully instrumented run — the telemetry layer observes the
        pipeline without perturbing it."""
        off = Chipmunk(fs_name).test_workload(WORKLOAD)
        on = Chipmunk(fs_name, telemetry=Telemetry()).test_workload(WORKLOAD)
        assert _behavioural_fields(off) == _behavioural_fields(on)

    def test_default_telemetry_is_shared_null_object(self):
        assert Chipmunk("nova").telemetry is NULL
        assert not NULL.enabled

    def test_null_telemetry_records_nothing(self, tmp_path):
        tel = NullTelemetry()
        with tel.span("record"):
            tel.event("y")
        assert tel.export_records() == []
        assert tel.export_jsonl(str(tmp_path / "t.jsonl")) == 0


class TestStageTimes:
    def test_elapsed_is_sum_of_stages(self):
        result = Chipmunk("nova", bugs=BugConfig.fixed()).test_workload(WORKLOAD)
        assert set(result.stage_times) == {
            "record", "oracle", "enumerate", "check", "triage", "analyze",
        }
        assert result.elapsed == pytest.approx(sum(result.stage_times.values()))

    def test_stage_times_present_without_telemetry(self):
        result = Chipmunk("nova", bugs=BugConfig.fixed()).test_workload(WORKLOAD)
        assert all(dt >= 0 for dt in result.stage_times.values())

    def test_stage_spans_sum_to_stage_times(self):
        """The clock writes one span per stage per workload with the seconds
        it charged the stage, so a trace and the result agree exactly."""
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        results = [cm.test_workload(WORKLOAD),
                   cm.test_workload([Op("creat", ("/foo",)),
                                     Op("rename", ("/foo", "/bar"))])]
        # A workload's spans precede its workload_result event.
        spans = [[] for _ in results]
        index = 0
        for rec in tel.tracer.export():
            if rec["type"] == "event" and rec["name"] == "workload_result":
                index += 1
            elif rec["type"] == "span":
                spans[index].append(rec)
        for result, recs in zip(results, spans):
            stage = {rec["name"]: rec for rec in recs
                     if rec["name"] in SPAN_STAGES}
            assert len(stage) == len(SPAN_STAGES) == sum(
                rec["name"] in SPAN_STAGES for rec in recs)
            for name, rec in stage.items():
                assert rec["dur"] == result.stage_times[name], name
                assert rec["attrs"] == {"workload": result.workload_desc}
            record_id = stage["record"]["id"]
            nested = [rec for rec in recs
                      if rec["name"] in ("syscall", "oracle")]
            assert (sum(rec["name"] == "syscall" for rec in nested)
                    == len(result.errnos))
            assert all(rec.get("parent") == record_id for rec in nested)
            for name in ("triage", "analyze"):
                assert "parent" not in stage[name]

    def test_trace_holds_no_metric_record(self, tmp_path):
        tel = Telemetry()
        Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel).test_workload(
            WORKLOAD)
        path = str(tmp_path / "t.jsonl")
        tel.export_jsonl(path)
        kinds = {rec["type"] for rec in read_jsonl(path)}
        assert kinds == {"span", "event"}


class TestTruncation:
    def test_truncated_flag_set_when_report_cap_hit(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_REPORTS_PER_WORKLOAD", 1)
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        result = cm.test_workload([
            Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar")),
        ])
        assert result.truncated
        # one crash state may add several reports at once; the cap bounds
        # when checking stops, not the exact report count
        assert len(result.reports) >= 1
        assert "TRUNCATED" in result.summary()

    def test_clean_run_not_truncated(self):
        result = Chipmunk("nova", bugs=BugConfig.fixed()).test_workload(WORKLOAD)
        assert not result.truncated
        assert "TRUNCATED" not in result.summary()


class TestInstrumentationSignals:
    def test_harness_emits_spans_counters_and_result_event(self):
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.fixed(), telemetry=tel)
        result = cm.test_workload(WORKLOAD)
        names = {r["name"] for r in tel.tracer.records if r["type"] == "span"}
        assert {"record", "oracle", "triage", "analyze", "syscall",
                "check_state"} <= names
        checked = [r for r in tel.tracer.records if r["name"] == "check_state"]
        assert len(checked) == result.n_unique_states
        events = [r for r in tel.tracer.records
                  if r["type"] == "event" and r["name"] == "workload_result"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["n_crash_states"] == result.n_crash_states
        assert fields["n_unique_states"] == result.n_unique_states
        assert fields["stage_times"] == result.stage_times
        assert fields["fs"] == "nova"

    def test_replayer_histogram_observed(self):
        """The in-flight unit counts per fence reach the result (the
        ``inflight`` field) and its trace event."""
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.fixed(), telemetry=tel)
        result = cm.test_workload(WORKLOAD)
        counts = [n for per in result.inflight.values() for n in per]
        assert counts and all(n > 0 for n in counts)
        event = next(r for r in tel.tracer.records if r["type"] == "event")
        assert event["fields"]["inflight"] == result.inflight

    def test_checker_outcome_counters(self):
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        result = cm.test_workload(
            [Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))])
        event = next(r for r in tel.tracer.records if r["type"] == "event")
        outcomes = event["fields"]["outcomes"]
        assert sum(outcomes.values()) == event["fields"]["n_reports"] == len(
            result.reports) > 0


class TestFuzzerTelemetry:
    def test_fuzzer_emits_cluster_found_events(self):
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        fuzzer = WorkloadFuzzer(cm, seed=3)
        fuzzer.run(max_executions=12)
        events = [r for r in tel.tracer.records
                  if r["type"] == "event" and r["name"] == "cluster_found"]
        assert len(events) == len(fuzzer.clusters)
        for e in events:
            assert "consequence" in e["fields"]
            assert e["fields"]["workload"] >= 1
