"""Merge stage: fold per-worker results into one campaign report.

Parallel execution must not change *what the campaign found* — only how
fast it found it.  Three properties make the merged output equal a serial
run's:

1. **Canonical order.**  Results fold in work-item ordinal order (the
   serial execution order), never completion order, so the triage pass
   sees reports in the same sequence a single process would have.
2. **Cross-worker dedup.**  Clustering runs *here*, over the union of all
   workers' reports, through the same :class:`~repro.core.triage.Triage`
   the serial path uses — two workers finding the same bug yield one
   cluster, not two.
3. **One aggregate.**  Serialized results fold straight into the same
   :class:`~repro.analysis.reporting.CampaignSummary` the serial path
   feeds ``TestResult`` objects to — the wire dict carries the same field
   names.

Workers ship each report as its triage key, and in full only where that
worker had not yet streamed the key at an earlier or equal position.  Only
a key's canonical-first report can found a cluster (a repeated key always
joins one), and the worker that ran it shipped it in full, so replaying
every key in ordinal order — duplicates included — reproduces the serial
clusters, counts, ``first_seen`` and time-to-bug exactly.  A cluster that
would be founded without a report raises; the merge never guesses.

Per-worker telemetry traces are concatenated into one campaign trace; the
multi-file ``python -m repro stats`` path consumes either form.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.reporting import CampaignSummary, render_markdown
from repro.campaign.queue import WorkItem
from repro.campaign.spec import CampaignSpec
from repro.obs.coverage import coverage_from_results
from repro.obs.tracing import read_jsonl, write_jsonl


@dataclass
class MergedCampaign:
    """The campaign engine's final product."""

    spec: CampaignSpec
    summary: CampaignSummary
    #: Quarantine records (sorted by ordinal) — items the campaign gave up
    #: on after bounded retries; the report carries them so a campaign with
    #: failures is visibly incomplete rather than silently short.
    quarantined: List[dict] = field(default_factory=list)
    engine: Dict[str, object] = field(default_factory=dict)
    trace_path: Optional[str] = None

    @property
    def clusters(self):
        return self.summary.clusters

    @property
    def interrupted(self) -> bool:
        return bool(self.engine.get("interrupted"))

    def render_markdown(self) -> str:
        return render_markdown(
            self.summary,
            engine_meta=self.engine,
            quarantined=self.quarantined,
        )

    def console_summary(self) -> str:
        """The one-line summary ``cmd_ace`` prints, plus engine counters."""
        s = self.summary
        line = (
            f"{s.workloads_tested} workloads, {s.crash_states} crash states, "
            f"{len(s.clusters)} clusters, {s.wall_time:.1f}s cpu"
        )
        wall = self.engine.get("wall_clock")
        if wall is not None:
            line += f", {float(wall):.1f}s wall"
        line += (
            f" [{self.engine.get('workers', '?')} workers, "
            f"{self.engine.get('steals', 0)} steals, "
            f"{self.engine.get('requeues', 0)} requeues, "
            f"{len(self.quarantined)} quarantined]"
        )
        memo = self.engine.get("shared_memo") or {}
        if memo or s.memo_shared_hits:
            line += (
                f"\n[shared memo] {s.memo_shared_hits} cross-workload "
                f"hit(s) served"
            )
            if memo:
                line += (
                    f"; service table: {memo.get('entries', 0)} entrie(s) "
                    f"({memo.get('buggy', 0)} buggy pinned), "
                    f"{memo.get('hits', 0)}/{memo.get('hits', 0) + memo.get('misses', 0)} "
                    f"lookup(s) hit, {memo.get('evictions', 0)} eviction(s)"
                )
        if self.interrupted:
            line += " [INTERRUPTED — resume with --resume]"
        return line


def merge_results(
    spec: CampaignSpec,
    items: List[WorkItem],
    results: Dict[str, List[dict]],
) -> CampaignSummary:
    """Fold serialized per-item results into a summary, in canonical order."""
    summary = CampaignSummary(fs_name=spec.fs, generator=spec.generator)
    for item in sorted(items, key=lambda i: i.ordinal):
        for result_dict in results.get(item.item_id, ()):
            summary.add_dict(result_dict)
    return summary


def merge_worker_traces(campaign_dir: str) -> Optional[str]:
    """Concatenate ``worker-*.trace.jsonl`` into one campaign trace file."""
    paths = sorted(glob.glob(os.path.join(campaign_dir, "worker-*.trace.jsonl")))
    if not paths:
        return None
    records: List[dict] = []
    for path in paths:
        records.extend(read_jsonl(path))
    out = os.path.join(campaign_dir, "trace.jsonl")
    write_jsonl(out, records)
    return out


def merge_campaign(
    spec: CampaignSpec,
    items: List[WorkItem],
    results: Dict[str, List[dict]],
    quarantined: Dict[str, dict],
    engine_stats,
    campaign_dir: Optional[str] = None,
) -> MergedCampaign:
    """Full merge: summary + quarantine + traces + report file."""
    summary = merge_results(spec, items, results)
    merged = MergedCampaign(
        spec=spec,
        summary=summary,
        quarantined=sorted(
            quarantined.values(), key=lambda r: int(r.get("ordinal", 0))
        ),
        engine=engine_stats.to_dict(),
    )
    if campaign_dir is not None:
        merged.trace_path = merge_worker_traces(campaign_dir)
        report_path = os.path.join(campaign_dir, "report.md")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(merged.render_markdown())
        # Exploration-coverage analytics next to the findings report: the
        # same ordinal-ordered result dicts, viewed as distributions
        # (window CDFs, store breakdowns, memo-miss attribution).
        coverage = coverage_from_results(
            (
                result_dict
                for item in sorted(items, key=lambda i: i.ordinal)
                for result_dict in results.get(item.item_id, ())
            ),
            fs=spec.fs,
            generator=spec.generator,
            meta={"seq": spec.seq} if spec.generator == "ace" else None,
        )
        with open(os.path.join(campaign_dir, "coverage.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(coverage.render_markdown())
        # One exemplar per triaged cluster, with provenance, in the
        # `--save-reports` shape — `python -m repro explain
        # DIR/bugs.json --index N` drives the forensic pass offline.
        bugs_path = os.path.join(campaign_dir, "bugs.json")
        with open(bugs_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"reports": [c.exemplar.to_dict() for c in summary.clusters]},
                fh,
                sort_keys=True,
            )
    return merged
