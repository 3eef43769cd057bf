"""Batch forensics pipeline: ``explain --all``, the cross-report cache,
workload ddmin, and provenance-guided triage.

The acceptance properties of the pipeline:

* explaining a campaign's ``bugs.json`` with K reports sharing one repro
  context performs exactly 1 session rebuild (session cache-hit counter is
  K-1);
* provenance-guided triage merges a same-culprit/different-syscall pair
  into one cluster while keeping different-culprit reports apart;
* ``explain --all`` output (forensics.md + cluster assignment) is
  byte-identical between a ``--workers 1`` and a ``--workers 4`` campaign
  over the same spec.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.analysis.reporting import CampaignSummary, render_markdown
from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.core.harness import Chipmunk
from repro.core.report import BugReport, Consequence
from repro.core.triage import (
    Triage,
    layout_map_for,
    provenance_sites,
    triage_reports,
)
from repro.forensics.batch import explain_all, explain_campaign
from repro.forensics.cache import ForensicsCache
from repro.forensics.explain import explain_report
from repro.forensics.minimize import minimize_dropped_set, minimize_workload
from repro.forensics.provenance import CrashProvenance, ProvEntry
from repro.forensics.timeline import render_timeline
from repro.obs import Telemetry
from repro.workloads import ace


@pytest.fixture(scope="module")
def nova_seq2_reports():
    """Every provenance-carrying report of one nova seq-2 workload — K
    reports sharing a single reproduction context."""
    w = ace.workload_at(2, 9)  # creat('/foo'); write('/bar', 0, 66, 1024)
    result = Chipmunk("nova").test_workload(w.core, setup=w.setup)
    reports = [r for r in result.reports if r.provenance is not None]
    assert len(reports) >= 2, "fixture needs several reports in one context"
    return reports


@pytest.fixture(scope="module")
def nova_campaign_dir(tmp_path_factory, nova_seq2_reports):
    d = tmp_path_factory.mktemp("campaign")
    (d / "bugs.json").write_text(json.dumps(
        {"reports": [r.to_dict() for r in nova_seq2_reports]}, sort_keys=True
    ))
    return str(d)


# ----------------------------------------------------------------------
# Minimization cache
# ----------------------------------------------------------------------
class TestMinimizationCache:
    def test_k_reports_share_one_rebuild(self, nova_seq2_reports):
        batch = explain_all(nova_seq2_reports, minimize=False)
        k = len(nova_seq2_reports)
        stats = batch.cache.stats()
        assert stats["recordings"] == 1
        assert stats["session_misses"] == 1
        assert stats["session_hits"] == k - 1

    def test_sessions_stay_crash_point_specific(self, nova_seq2_reports):
        # A cache hit must never leak another report's crash point: each
        # returned session reflects its own provenance exactly.
        cache = ForensicsCache()
        for report in nova_seq2_reports:
            session = cache.session(report.provenance)
            assert session.prov is report.provenance
            assert session.region.positions_of(session.original_units) == \
                report.provenance.replayed_entries

    def test_verdict_cache_shares_ddmin_replays(self, nova_seq2_reports):
        report = next(
            r for r in nova_seq2_reports if r.provenance.dropped()
        )
        target = report.consequence.name
        cache = ForensicsCache()
        session = cache.session(report.provenance)
        first = minimize_dropped_set(session, target, cache=cache)
        misses = cache.verdict_counters.misses.value
        assert misses > 0
        # The same minimization again costs zero new checker replays.
        second = minimize_dropped_set(session, target, cache=cache)
        assert second.minimal_dropped == first.minimal_dropped
        assert cache.verdict_counters.misses.value == misses
        assert cache.verdict_counters.hits.value >= misses

    def test_cached_minimization_matches_uncached(self, nova_seq2_reports):
        report = next(
            r for r in nova_seq2_reports if r.provenance.dropped()
        )
        target = report.consequence.name
        cache = ForensicsCache()
        cached = minimize_dropped_set(
            cache.session(report.provenance), target, cache=cache
        )
        from repro.forensics.replay import rebuild_session

        plain = minimize_dropped_set(rebuild_session(report.provenance), target)
        assert cached.minimal_dropped == plain.minimal_dropped
        assert cached.culprit_seqs == plain.culprit_seqs

    def test_counters_thread_into_metrics_registry(self, nova_seq2_reports):
        telemetry = Telemetry()
        explain_all(nova_seq2_reports, minimize=False, telemetry=telemetry)
        names = {
            r["name"]: r["value"]
            for r in telemetry.metrics.snapshot()
            if r["kind"] == "counter"
        }
        k = len(nova_seq2_reports)
        assert names["forensics.cache.session.misses"] == 1
        assert names["forensics.cache.session.hits"] == k - 1


# ----------------------------------------------------------------------
# Workload minimization (ddmin over the op sequence)
# ----------------------------------------------------------------------
class TestWorkloadMinimization:
    def test_shrinks_to_essential_ops(self, nova_seq2_reports):
        report = nova_seq2_reports[0]
        result = minimize_workload(
            report.provenance, report.consequence.name
        )
        assert result.reproduced
        assert 1 <= len(result.minimal_ops) <= len(result.original_ops)
        assert result.minimal_indices == tuple(sorted(result.minimal_indices))
        assert result.n_runs >= 2

    def test_minimal_subsequence_actually_reproduces(self, nova_seq2_reports):
        from repro.forensics.provenance import ops_from_tuples

        report = nova_seq2_reports[0]
        prov = report.provenance
        result = minimize_workload(prov, report.consequence.name)
        workload = ops_from_tuples(prov.workload)
        minimal = [workload[i] for i in result.minimal_indices]
        rerun = Chipmunk(prov.fs_name).test_workload(
            minimal, setup=ops_from_tuples(prov.setup)
        )
        assert any(
            r.consequence.name == report.consequence.name
            for r in rerun.reports
        )

    def test_timeline_header_renders_minimal_workload(self, nova_seq2_reports):
        report = nova_seq2_reports[0]
        prov = report.provenance
        result = minimize_workload(prov, report.consequence.name)
        plain = render_timeline(prov)
        with_min = render_timeline(prov, workload_min=result)
        # The header line is added; the default rendering is untouched
        # (golden compatibility).
        assert result.headline() in with_min
        assert result.headline() not in plain
        assert with_min.splitlines()[3:] == plain.splitlines()[2:]

    def test_explain_report_carries_workload_minimization(
        self, nova_seq2_reports
    ):
        report = nova_seq2_reports[0]
        explanation = explain_report(report, minimize_ops=True)
        wm = explanation.workload_minimization
        assert wm is not None and wm.reproduced
        assert wm.headline() in explanation.text


# ----------------------------------------------------------------------
# Provenance-guided triage
# ----------------------------------------------------------------------
def _seeded_report(syscall_name, func, addr, detail):
    """A synthetic provenance-carrying report with one dropped culprit."""
    entries = (
        ProvEntry(seq=0, kind="store", status="dropped", epoch=0,
                  func=func, addr=addr, length=8),
        ProvEntry(seq=1, kind="fence", status="fence", epoch=0,
                  func="nova_fence"),
    )
    prov = CrashProvenance(
        fs_name="nova", fence_index=0, log_pos=2, mid_syscall=True,
        syscall=0, syscall_name=syscall_name, after_syscall=-1,
        state_kind="subset", replayed_entries=(), entries=entries,
        workload=((syscall_name, ("/foo",)),),
    )
    return BugReport(
        fs_name="nova", consequence=Consequence.ATOMICITY,
        workload_desc=f"{syscall_name}('/foo')",
        crash_desc=f"crash during {syscall_name}",
        detail=detail, syscall_name=syscall_name, mid_syscall=True,
        provenance=prov,
    )


class TestProvenanceTriage:
    @pytest.fixture(scope="class")
    def seeded(self):
        layout = layout_map_for("nova", 256 * 1024)
        offsets = {r.name: r.region.offset for r in layout.regions}
        same_a = _seeded_report(
            "creat", "nova_memcpy_nt", offsets["journal"] + 8,
            "dentry for /foo missing from the parent directory log",
        )
        same_b = _seeded_report(
            "unlink", "nova_memcpy_nt", offsets["journal"] + 24,
            "stale link count persisted for the unlinked inode",
        )
        other = _seeded_report(
            "creat", "nova_memcpy_nt", offsets["inode_table"] + 8,
            "root inode log head points at an unwritten page",
        )
        return same_a, same_b, other

    def test_sites_key_on_func_and_region(self, seeded):
        same_a, same_b, other = seeded
        assert provenance_sites(same_a) == provenance_sites(same_b)
        assert provenance_sites(same_a) != provenance_sites(other)
        ((func, region),) = provenance_sites(same_a)
        assert func == "nova_memcpy_nt" and region == "journal"

    def test_merges_same_culprit_across_syscalls(self, seeded):
        same_a, same_b, other = seeded
        # The lexical procedure keeps all three apart (the report text
        # differs); the provenance mode merges the same-culprit pair and
        # keeps the different-culprit report separate.
        assert len(triage_reports([same_a, same_b, other])) == 3
        triage = Triage(provenance=True)
        joined = [triage.add(r) for r in (same_a, same_b, other)]
        clusters = triage.clusters
        assert len(clusters) == 2
        assert joined[0] is joined[1] is clusters[0]
        assert joined[2] is clusters[1]
        assert [c.exemplar for c in clusters] == [same_a, other]

    def test_report_without_provenance_falls_back_to_lexical(self, seeded):
        same_a, _, _ = seeded
        bare = BugReport(
            fs_name="nova", consequence=Consequence.ATOMICITY,
            workload_desc=same_a.workload_desc,
            crash_desc=same_a.crash_desc, detail=same_a.detail,
            syscall_name=same_a.syscall_name, mid_syscall=True,
        )
        clusters = triage_reports([same_a, bare], provenance=True)
        # Identical text, but one keyed by sites and one lexically — the
        # two populations never cross-contaminate.
        assert len(clusters) == 2
        assert clusters[0].prov_key is not None
        assert clusters[1].prov_key is None

    def test_campaign_summary_defaults_to_provenance_triage(self, seeded):
        same_a, same_b, other = seeded
        summary = CampaignSummary(fs_name="nova", generator="ace")
        assert summary.triage.provenance
        summary.triage.add_all([same_a, same_b, other])
        summary.first_seen = {0: 1, 1: 1}
        text = render_markdown(summary)
        assert "Clustered by culprit sites: nova_memcpy_nt@journal" in text


# ----------------------------------------------------------------------
# explain --all (batch driver + CLI)
# ----------------------------------------------------------------------
class TestExplainAll:
    def test_batch_document_shape(self, nova_seq2_reports):
        batch = explain_all(nova_seq2_reports, minimize=True)
        assert batch.reproduced == len(batch.explanations)
        assert "# Batch forensics" in batch.text
        assert "## Cluster assignment (provenance-guided)" in batch.text
        assert "## Report 0:" in batch.text
        assert "ordering timeline: nova" in batch.text
        assert "## Cache" in batch.text
        assert "forensics.cache.session:" in batch.text

    def test_cli_writes_forensics_md(self, nova_campaign_dir, capsys):
        code = main(["explain", nova_campaign_dir, "--all", "--minimize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "report(s) explained" in out
        md_path = os.path.join(nova_campaign_dir, "forensics.md")
        assert os.path.exists(md_path)
        with open(md_path, encoding="utf-8") as fh:
            md = fh.read()
        assert "# Batch forensics: bugs.json" in md
        assert "minimal culprit set" in md

    def test_cli_directory_without_all_rejected(self, nova_campaign_dir,
                                                capsys):
        assert main(["explain", nova_campaign_dir]) == 2
        assert "--all" in capsys.readouterr().err

    def test_cli_missing_bugs_json(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path), "--all"]) == 2
        assert "no bugs.json" in capsys.readouterr().err

    def test_skips_reports_without_provenance(self, nova_seq2_reports):
        bare = BugReport(
            fs_name="nova", consequence=Consequence.ATOMICITY,
            workload_desc="w", crash_desc="c", detail="d",
        )
        batch = explain_all([bare] + nova_seq2_reports, minimize=False)
        assert batch.skipped == [0]
        assert len(batch.explanations) == len(nova_seq2_reports)
        assert "skipped (no provenance)" in batch.text


# ----------------------------------------------------------------------
# Determinism: --workers 1 == --workers 4
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    N = 8

    def _campaign_forensics(self, out_dir, workers):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=self.N)
        engine = CampaignEngine(
            spec, str(out_dir),
            EngineConfig(workers=workers, item_timeout=60.0),
        )
        engine.run()
        batch = explain_campaign(str(out_dir), minimize=True)
        assignment = [
            (c.exemplar.consequence.name, c.count, sorted(c.sites))
            for c in batch.clusters
        ]
        return batch.text, assignment

    def test_workers_1_and_4_explain_identically(self, tmp_path):
        text_1, clusters_1 = self._campaign_forensics(tmp_path / "w1", 1)
        text_4, clusters_4 = self._campaign_forensics(tmp_path / "w4", 4)
        assert clusters_1 == clusters_4
        assert text_1 == text_4
        assert (tmp_path / "w1" / "forensics.md").read_bytes() == \
            (tmp_path / "w4" / "forensics.md").read_bytes()
