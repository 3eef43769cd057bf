"""Coverage analytics: distributions from results, journals, and traces."""

import json
import os

import pytest

from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.obs.coverage import (
    CoverageReport,
    ascii_cdf,
    ascii_histogram,
    coverage_from_campaign_dir,
    coverage_from_results,
)
from repro.workloads.ops import Op

WORKLOADS = [
    [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))],
    [Op("creat", ("/x",)), Op("write", ("/x", 0, 0x41, 256)),
     Op("fsync", ("/x",))],
]


@pytest.fixture(scope="module")
def result_dicts():
    cm = Chipmunk("nova", config=ChipmunkConfig(cap=2))
    return [cm.test_workload(w).to_dict() for w in WORKLOADS]


class TestAsciiRenderers:
    def test_cdf_reaches_one(self):
        lines = ascii_cdf([1, 1, 2, 3])
        assert "100.0%" in lines[-1]
        assert lines[-1].count("#") == 40

    def test_cdf_empty(self):
        assert ascii_cdf([]) == ["(no observations)"]

    def test_histogram_distinct_rows(self):
        lines = ascii_histogram([5, 5, 9])
        assert any("5" in line and "66.7%" in line for line in lines)

    def test_histogram_collapses_to_ranges(self):
        lines = ascii_histogram(list(range(100)))
        # 100 distinct values collapse into <= 8 range buckets
        assert len(lines) <= 9
        assert any("-" in line.split()[0] for line in lines[1:])


class TestFromResults:
    def test_totals_fold(self, result_dicts):
        report = coverage_from_results(result_dicts, fs="nova",
                                       generator="ace")
        assert report.workloads_tested == len(result_dicts)
        assert report.unique_states == sum(
            d["n_unique_states"] for d in result_dicts
        )
        assert report.memo_misses == sum(
            d["memo_misses"] for d in result_dicts
        )
        assert len(report.fences_per_workload) == len(result_dicts)
        assert report.all_window_sizes("nova")

    def test_memo_accounting_sums_exactly(self, result_dicts):
        report = coverage_from_results(result_dicts, fs="nova")
        assert report.memo_hits + report.memo_misses == report.crash_states
        assert report.unique_states == report.memo_misses

    def test_markdown_sections(self, result_dicts):
        md = coverage_from_results(
            result_dicts, fs="nova", generator="ace"
        ).render_markdown()
        for heading in (
            "## Crash-state space",
            "## In-flight window size CDF",
            "## Persistence-mechanism store breakdown",
            "## Recovery-read redundancy",
        ):
            assert heading in md

    def test_recovery_line_names_the_sample(self, result_dicts):
        """Overlap is measured on one workload in sixteen; the section says
        over how many, and the fraction is taken over those alone."""
        sampled = {"read_lines": 7, "store_lines": 4, "overlap_lines": 1,
                   "sampled": 1}
        dicts = [{**result_dicts[0], "recovery_overlap": sampled},
                 {**result_dicts[1], "recovery_overlap": {}}]
        report = coverage_from_results(dicts, fs="nova")
        assert report.to_json_dict()["recovery"] == sampled
        assert report.recovery_unread_fraction == 0.75
        assert ("Summed over 1 sampled workload(s), one in 16: recovery "
                "read 7 cache line(s)") in report.render_markdown()

    def test_json_round_trips(self, result_dicts):
        report = coverage_from_results(result_dicts, fs="nova")
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["memo_hits"] + doc["memo_misses"] == doc["states_enumerated"]
        assert doc["states_checked"] == report.unique_states


class TestFromCampaignDir:
    def _campaign(self, tmp_path):
        from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig

        spec = CampaignSpec(fs="nova", generator="ace", seq=1,
                            max_workloads=4)
        campaign_dir = str(tmp_path / "camp")
        engine = CampaignEngine(spec, campaign_dir,
                                EngineConfig(workers=2, batch_size=2))
        engine.run()
        return campaign_dir

    def test_journal_and_merge_agree(self, tmp_path):
        campaign_dir = self._campaign(tmp_path)
        report = coverage_from_campaign_dir(campaign_dir)
        assert report.fs_name == "nova"
        assert report.generator == "ace"
        assert report.workloads_tested == 4
        # the merge stage wrote the same analytics next to report.md
        cov_path = os.path.join(campaign_dir, "coverage.md")
        assert os.path.exists(cov_path)
        on_disk = open(cov_path).read()
        assert "## Crash-state space" in on_disk
        assert f"| {report.crash_states} |" in on_disk

    def test_empty_dir_yields_empty_report(self, tmp_path):
        report = coverage_from_campaign_dir(str(tmp_path))
        assert report.workloads_tested == 0


class TestFromTraces:
    def test_trace_events_fold(self, tmp_path, result_dicts):
        from repro.obs import Telemetry

        tel = Telemetry()
        tel.meta.update(fs="nova", generator="ace")
        cm = Chipmunk("nova", config=ChipmunkConfig(cap=2), telemetry=tel)
        cm.test_workload(WORKLOADS[0])
        path = str(tmp_path / "t.jsonl")
        tel.export_jsonl(path)
        report = CoverageReport.from_traces([path])
        assert report.fs_name == "nova"
        assert report.generator == "ace"
        assert report.workloads_tested == 1
        assert report.unique_states > 0
