"""Campaign summaries and markdown rendering."""

import itertools

from repro.analysis.reporting import CampaignSummary, render_markdown, run_campaign
from repro.core import Chipmunk
from repro.fs.bugs import BugConfig
from repro.workloads import ace
from repro.workloads.ops import Op


class TestCampaignSummary:
    def test_clean_campaign(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        summary = run_campaign(cm, itertools.islice(ace.generate(1), 5))
        assert summary.workloads_tested == 5
        assert summary.crash_states > 0
        assert summary.clusters == []

    def test_buggy_campaign_records_first_seen(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        workloads = [
            [Op("creat", ("/x",))],
            [Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))],
        ]
        summary = run_campaign(cm, workloads)
        assert len(summary.clusters) >= 1
        assert summary.first_seen[0] == 2

    def test_accepts_plain_op_lists_and_ace_workloads(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        mixed = [next(iter(ace.generate(1))), [Op("creat", ("/p",))]]
        summary = run_campaign(cm, mixed)
        assert summary.workloads_tested == 2


class TestMarkdown:
    def test_clean_report(self):
        summary = CampaignSummary(fs_name="nova", generator="ace")
        text = render_markdown(summary)
        assert "No crash-consistency violations" in text
        assert "`nova`" in text

    def test_engine_dict_with_steals_still_renders(self):
        """An engine dict saved before the engine stopped stealing."""
        summary = CampaignSummary(fs_name="nova", generator="ace")
        engine = {"workers": 2, "dispatched": 10, "steals": 3, "requeues": 1}
        text = render_markdown(summary, engine_meta=engine)
        assert "- **scheduling:** 10 dispatched, 1 requeued" in text
        assert "stolen" not in text

    def test_findings_sections(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        summary = run_campaign(
            cm, [[Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))]]
        )
        text = render_markdown(summary, title="NOVA findings")
        assert text.startswith("# NOVA findings")
        assert "## Finding 1" in text
        assert "Reproduction workload" in text
        assert "rename('/foo', '/bar')" in text
        assert "Crash point" in text

    def test_report_is_valid_markdownish(self):
        cm = Chipmunk("pmfs", bugs=BugConfig.only(13))
        summary = run_campaign(
            cm,
            [[
                Op("creat", ("/f",)),
                Op("write", ("/f", 0, 0x41, 1000)),
                Op("truncate", ("/f", 100)),
            ]],
        )
        text = render_markdown(summary)
        assert text.count("```") % 2 == 0  # balanced code fences
