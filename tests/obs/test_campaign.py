"""Campaign aggregation: time-to-bug ordering, rates, trace rebuild."""

from repro.analysis.reporting import CampaignSummary
from repro.core import Chipmunk
from repro.fs.bugs import BugConfig
from repro.obs import Telemetry
from repro.obs.campaign import TimeToBug
from repro.workloads.ops import Op

CLEAN = [Op("creat", ("/x",))]
BUGGY = [Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))]


def run(workload, **kwargs):
    return Chipmunk("nova", **kwargs).test_workload(workload)


class TestAggregation:
    def test_counts_and_rates(self):
        stats = CampaignSummary(fs_name="nova", generator="ace")
        result = run(CLEAN, bugs=BugConfig.fixed())
        stats.add_result(result)
        stats.add_result(run(CLEAN, bugs=BugConfig.fixed()))
        assert stats.workloads_tested == 2
        assert stats.crash_states == 2 * result.n_crash_states
        assert stats.wall_time > 0
        assert stats.states_per_second > 0
        assert 0.0 <= stats.dedup_hit_rate < 1.0
        assert stats.total("outcomes", {}) == {}
        assert stats.time_to_bug == []

    def test_stage_totals_cover_all_stages(self):
        stats = CampaignSummary(fs_name="nova")
        stats.add_result(run(CLEAN, bugs=BugConfig.fixed()))
        for stage in ("record", "oracle", "enumerate", "check", "triage"):
            assert stage in stats.totals["stage_times"]

    def test_inflight_merged_per_fs_and_syscall(self):
        stats = CampaignSummary(fs_name="nova")
        stats.add_result(run(CLEAN, bugs=BugConfig.fixed()))
        stats.add_result(run(CLEAN, bugs=BugConfig.fixed()))
        assert "nova" in stats.inflight
        assert "creat" in stats.inflight["nova"]
        assert len(stats.inflight["nova"]["creat"]) >= 2


class TestTimeToBug:
    def test_series_is_cumulative_and_ordered(self):
        stats = CampaignSummary(fs_name="nova")
        stats.add_result(run(CLEAN, bugs=BugConfig.fixed()))
        stats.add_result(run(BUGGY, bugs=BugConfig.only(5)))
        assert stats.time_to_bug, "buggy workload must open at least one cluster"
        first = stats.time_to_bug[0]
        # found at the second workload, at cumulative (not per-workload) time
        assert first.workload == 2
        assert first.t == stats.wall_time
        # cluster indices strictly increase; workload index and cumulative
        # time never decrease along the series
        for a, b in zip(stats.time_to_bug, stats.time_to_bug[1:]):
            assert a.cluster < b.cluster
            assert a.workload <= b.workload
            assert a.t <= b.t

    def test_known_cluster_does_not_reappear(self):
        stats = CampaignSummary(fs_name="nova")
        stats.add_result(run(BUGGY, bugs=BugConfig.only(5)))
        n = len(stats.time_to_bug)
        stats.add_result(run(BUGGY, bugs=BugConfig.only(5)))
        assert len(stats.time_to_bug) == n

    def test_cluster_found_events_emitted_through_telemetry(self):
        tel = Telemetry()
        stats = CampaignSummary(fs_name="nova", telemetry=tel)
        stats.add_result(run(BUGGY, bugs=BugConfig.only(5)))
        events = [r for r in tel.tracer.records
                  if r["type"] == "event" and r["name"] == "cluster_found"]
        assert len(events) == len(stats.time_to_bug)
        assert events[0]["fields"]["workload"] == 1


class TestFromTrace:
    def test_round_trip_matches_in_process_aggregates(self, tmp_path):
        tel = Telemetry()
        tel.meta.update(fs="nova", generator="ace", seed=7)
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        live = CampaignSummary(fs_name="nova", generator="ace", telemetry=tel)
        live.add_result(cm.test_workload(CLEAN))
        live.add_result(cm.test_workload(BUGGY))
        path = str(tmp_path / "trace.jsonl")
        tel.export_jsonl(path)

        rebuilt = CampaignSummary.from_traces([path])
        assert rebuilt.fs_name == "nova"
        assert rebuilt.generator == "ace"
        assert rebuilt.meta["seed"] == 7
        assert rebuilt.workloads_tested == live.workloads_tested
        assert rebuilt.crash_states == live.crash_states
        assert rebuilt.unique_states == live.unique_states
        assert rebuilt.total("n_reports") == live.total("n_reports")
        assert rebuilt.total("outcomes") == live.total("outcomes")
        assert rebuilt.inflight == live.inflight
        assert abs(rebuilt.wall_time - live.wall_time) < 1e-9
        assert [(e.cluster, e.workload) for e in rebuilt.time_to_bug] == \
               [(e.cluster, e.workload) for e in live.time_to_bug]

    def test_render_contains_required_sections(self, tmp_path):
        tel = Telemetry()
        tel.meta.update(fs="nova", generator="ace")
        cm = Chipmunk("nova", bugs=BugConfig.only(5), telemetry=tel)
        stats = CampaignSummary(fs_name="nova", generator="ace", telemetry=tel)
        stats.add_result(cm.test_workload(BUGGY))
        path = str(tmp_path / "trace.jsonl")
        tel.export_jsonl(path)
        text = CampaignSummary.from_traces([path]).render()
        assert "Per-stage timings" in text
        assert "crash states/sec" in text
        assert "dedup hit-rate" in text
        assert "Cumulative time-to-bug" in text
        assert "Checker outcomes" in text
        assert "record" in text and "triage" in text


class TestRender:
    def test_render_empty_campaign(self):
        text = CampaignSummary(fs_name="pmfs", generator="fuzz").render()
        assert "pmfs" in text
        assert "(no clusters found)" in text

    def test_truncated_count_surfaces(self):
        stats = CampaignSummary(fs_name="nova")
        stats.workloads_tested = 3
        stats.totals["truncated"] = 1
        assert "(1 truncated)" in stats.render()

    def test_time_to_bug_rows_render(self):
        stats = CampaignSummary(fs_name="nova")
        stats.time_to_bug.append(TimeToBug(0, 4, 1.25, "ATOMICITY"))
        text = stats.render()
        assert "1.25" in text
        assert "ATOMICITY" in text


class TestDroppedRecords:
    """Each trace writer's ring drops its own oldest records, so a fold
    over several traces (per-worker files, or a merged trace holding each
    worker's meta record) reports the sum, and every trace reader warns."""

    def _trace(self, tmp_path, name, dropped):
        tel = Telemetry()
        tel.meta.update(fs="nova", generator="ace")
        cm = Chipmunk("nova", bugs=BugConfig.fixed(), telemetry=tel)
        CampaignSummary(fs_name="nova", telemetry=tel).add_result(
            cm.test_workload(CLEAN))
        tel.tracer.dropped = dropped
        path = tmp_path / name
        tel.export_jsonl(str(path))
        return path

    def test_two_traces_sum_their_dropped_records(self, tmp_path, capsys):
        from repro.__main__ import main

        a = self._trace(tmp_path, "a.jsonl", 3)
        b = self._trace(tmp_path, "b.jsonl", 4)
        merged = tmp_path / "merged.jsonl"
        merged.write_text(a.read_text() + b.read_text())
        summary = CampaignSummary.from_traces([str(a), str(b)])
        assert summary.dropped_records == 7
        assert summary.meta["dropped_records"] == 7
        assert CampaignSummary.from_traces([str(merged)]).dropped_records == 7

        # diff reads two inputs, and warns once per side.
        for argv, lines in ((["stats", str(a), str(b)], 1),
                            (["coverage", str(a), str(b)], 1),
                            (["diff", str(merged), str(merged)], 2)):
            assert main(argv) == 0
            err = capsys.readouterr().err.splitlines()
            warnings = [line for line in err if line.startswith("warning:")]
            assert len(warnings) == lines, (argv, err)
            assert all("7 trace record(s) were dropped" in w
                       for w in warnings), warnings

    def test_a_complete_trace_warns_nothing(self, tmp_path, capsys):
        from repro.__main__ import main

        a = self._trace(tmp_path, "a.jsonl", 0)
        assert CampaignSummary.from_traces([str(a)]).dropped_records == 0
        assert main(["stats", str(a)]) == 0
        assert "warning" not in capsys.readouterr().err
