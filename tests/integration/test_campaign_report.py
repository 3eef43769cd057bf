"""End-to-end: a slice of the ACE space into a rendered markdown report."""

from repro.analysis.reporting import render_markdown, run_campaign
from repro.core import Chipmunk
from repro.fs.bugs import BugConfig
from repro.workloads import ace


def seq1_slice(start=0, step=1):
    """Every ``step``-th seq-1 workload from ``start``, by index."""
    return (ace.workload_at(1, index)
            for index in range(start, ace.count(1), step))


class TestShardedCampaignReport:
    def test_fixed_fs_shard_is_clean(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        summary = run_campaign(cm, seq1_slice(step=4),
                               generator="ace seq-1, every 4th workload")
        assert summary.clusters == []
        report = render_markdown(summary)
        assert "No crash-consistency violations" in report

    def test_buggy_fs_report_has_findings(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        summary = run_campaign(cm, seq1_slice(), generator="ace seq-1")
        assert summary.workloads_tested > 0
        assert summary.clusters
        report = render_markdown(summary, title="NOVA bug-5 campaign")
        assert "## Finding 1" in report
        assert "rename" in report
