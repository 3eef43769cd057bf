"""Telemetry threading through the pipeline.

The load-bearing regression: a telemetry-off run must produce the same
`TestResult` the seed harness produced — telemetry is observation, never
behaviour.
"""

import dataclasses

import pytest

from repro.core import Chipmunk, harness
from repro.fs.bugs import BugConfig
from repro.obs import NULL, NullTelemetry, Telemetry
from repro.pm.device import PMDevice
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
            tel.count("x")
            tel.event("y")
            tel.observe("z", 1)
        assert tel.export_records() == []
        assert tel.export_jsonl(str(tmp_path / "t.jsonl")) == 0

    def test_null_span_still_times(self):
        with NULL.span("stage") as sp:
            pass
        assert sp.duration >= 0


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
        assert {"record", "oracle", "triage", "syscall", "check_state"} <= names
        counters = {r["name"]: r["value"] for r in tel.metrics.snapshot()
                    if r["kind"] == "counter"}
        assert counters["harness.workloads"] == 1
        assert counters["harness.crash_states"] == result.n_crash_states
        assert counters["checker.states_checked"] == result.n_unique_states
        assert counters["pm.writes"] > 0
        events = [r for r in tel.tracer.records
                  if r["type"] == "event" and r["name"] == "workload_result"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["n_crash_states"] == result.n_crash_states
        assert fields["stage_times"] == result.stage_times
        assert fields["fs"] == "nova"

    def test_replayer_histogram_observed(self):
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.fixed(), telemetry=tel)
        cm.test_workload(WORKLOAD)
        hists = {r["name"]: r for r in tel.metrics.snapshot()
                 if r["kind"] == "histogram"}
        assert "replay.inflight_units" in hists
        assert hists["replay.inflight_units"]["count"] > 0

    def test_checker_outcome_counters(self):
        tel = Telemetry()
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        cm.test_workload([Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))])
        counters = {r["name"]: r["value"] for r in tel.metrics.snapshot()
                    if r["kind"] == "counter"}
        outcome_total = sum(v for k, v in counters.items()
                            if k.startswith("checker.outcome.")
                            and k != "checker.outcome.clean")
        assert outcome_total == counters["harness.reports"]

    def test_device_counters_only_when_enabled(self):
        silent = PMDevice(1024)
        silent.write(0, b"x" * 64)
        silent.read(0, 64)
        assert silent._c_writes is None
        tel = Telemetry()
        loud = PMDevice(1024, telemetry=tel)
        loud.write(0, b"x" * 64)
        loud.read(0, 8)
        counters = {r["name"]: r["value"] for r in tel.metrics.snapshot()}
        assert counters["pm.writes"] == 1
        assert counters["pm.write_bytes"] == 64
        assert counters["pm.reads"] == 1
        assert counters["pm.read_bytes"] == 8


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
