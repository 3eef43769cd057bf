"""Recovered-outcome cache counters, end to end.

"Why was each state checked or skipped" must be answerable from a
campaign's artefacts: the per-workload hit/miss counts ride
``TestResult`` → ``to_dict``/``from_dict`` → journal and trace →
``CampaignSummary`` / ``CoverageReport``, and surface
in ``repro stats``, ``repro watch``, ``repro coverage`` and report.md.
"""

import json

import pytest

from repro.analysis.reporting import CampaignSummary, render_markdown
from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.campaign.watch import CampaignMonitor
from repro.core.harness import Chipmunk, TestResult
from repro.core.outcome_cache import OutcomeCache
from repro.obs import Telemetry
from repro.obs.coverage import coverage_from_results
from repro.workloads.ops import Op

#: The second and third workloads re-reach images the first one judged.
WORKLOADS = [
    [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))],
    [Op("mkdir", ("/A",)), Op("creat", ("/A/f",)), Op("unlink", ("/A/f",))],
    [Op("mkdir", ("/A",)), Op("creat", ("/A/g",))],
]


@pytest.fixture(scope="module")
def traced():
    tel = Telemetry()
    tel.meta.update(fs="pmfs", generator="ace")
    chipmunk = Chipmunk("pmfs", telemetry=tel)
    return tel, [chipmunk.test_workload(w) for w in WORKLOADS]


class TestCounters:
    def test_result_counts_match_trace_events(self, traced):
        tel, results = traced
        hits = sum(r.outcome_hits for r in results)
        misses = sum(r.outcome_misses for r in results)
        assert hits > 0 and misses > 0
        events = [r["fields"] for r in tel.tracer.export()
                  if r["type"] == "event" and r["name"] == "workload_result"]
        assert [(e["outcome_hits"], e["outcome_misses"]) for e in events] == [
            (r.outcome_hits, r.outcome_misses) for r in results]

    def test_hits_never_exceed_states_checked(self, traced):
        for result in traced[1]:
            mounted = result.outcome_hits + result.outcome_misses
            assert mounted <= result.n_unique_states

    def test_evictions_are_counted(self):
        chipmunk = Chipmunk("pmfs")
        chipmunk.outcome_cache = OutcomeCache(max_entries=1)
        chipmunk.test_workload(WORKLOADS[0])
        assert chipmunk.outcome_cache.evictions > 0
        assert chipmunk.outcome_cache.stats()["entries"] == 1

    def test_round_trips_through_the_journal_dict(self, traced):
        result = traced[1][1]
        back = TestResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert (back.outcome_hits, back.outcome_misses) == (
            result.outcome_hits, result.outcome_misses
        )
        legacy = result.to_dict()
        del legacy["outcome_hits"], legacy["outcome_misses"]
        assert TestResult.from_dict(legacy).outcome_hits == 0


class TestSurfaces:
    def test_stats_from_trace_equals_in_process(self, traced, tmp_path):
        tel, results = traced
        path = str(tmp_path / "t.jsonl")
        tel.export_jsonl(path)
        offline = CampaignSummary.from_traces([path])
        live = CampaignSummary(fs_name="pmfs")
        for result in results:
            live.add_result(result)
        live_hits = live.total("outcome_hits")
        assert offline.total("outcome_hits") == live_hits > 0
        assert offline.total("outcome_misses") == live.total("outcome_misses")
        assert offline.to_json_dict()["outcome_hits"] == live_hits
        line = next(l for l in offline.render().splitlines()
                    if l.startswith("outcome cache"))
        assert f"{live_hits} hit(s)" in line

    def test_coverage_prints_realised_hits_next_to_headroom(self, traced):
        results = traced[1]
        report = coverage_from_results([r.to_dict() for r in results],
                                       fs="pmfs")
        hits = sum(r.outcome_hits for r in results)
        assert report.to_json_dict()["outcome_hits"] == hits
        line = next(l for l in report.render_markdown().splitlines()
                    if "headroom" in l)
        assert f"skipped walk + usability on {hits} state(s)" in line

    def test_report_md_telemetry_section(self, traced):
        summary = CampaignSummary(fs_name="pmfs", generator="ace")
        for result in traced[1]:
            summary.add_result(result)
        text = render_markdown(summary)
        assert f"**outcome cache:** {summary.total('outcome_hits')} hit(s)" in text

    def test_watch_frame(self, tmp_path):
        spec = CampaignSpec(fs="pmfs", seq=1, max_workloads=4)
        campaign_dir = str(tmp_path / "camp")
        CampaignEngine(spec, campaign_dir,
                       EngineConfig(workers=1, batch_size=4)).run()
        monitor = CampaignMonitor(campaign_dir)
        snap = monitor.snapshot()
        total = snap.aggregate().total
        frame = monitor.render(snap)
        # The recovery memo answers most of these states before they
        # mount, so the cache line may read 0 hits — but it is there.
        hits, misses = total("outcome_hits"), total("outcome_misses")
        assert misses > 0
        assert f"outcome cache hits {hits}/{hits + misses} " in frame
        hits = total("recovery_hits")
        assert hits > 0
        assert f"recovery memo hits {hits}/" in frame
