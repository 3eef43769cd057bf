"""Campaign reporting: the campaign aggregate and its renderings.

:class:`CampaignSummary` is the one campaign aggregate: the shared result
fold (:class:`~repro.obs.campaign.ResultFold`) plus provenance-guided
triage and the time-to-bug series.  In-process results, checkpoint-journal
dicts and ``--trace`` files all fold through it, so ``repro ace``,
``repro campaign``, ``repro stats`` and report.md agree by construction.

The paper's Figure 1 ends in "bug reports with enough detail to reproduce
the bug"; :func:`render_markdown` is the last-mile formatting — a campaign
summary a developer can file upstream, with one section per triaged
cluster including the workload, the crash point, and the divergence —
and :meth:`CampaignSummary.render` is the ``repro stats`` text view.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.harness import STAGES, TestResult
from repro.core.report import BugReport
from repro.core.triage import Cluster, Triage
from repro.obs.campaign import ResultFold, TimeToBug


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def campaign_triage() -> Triage:
    """The triage every campaign aggregate clusters with; campaign workers
    key their reports with it too."""
    return Triage(provenance=True)


@dataclass
class CampaignSummary(ResultFold):
    """Aggregated outcome of a testing campaign.

    Its size is bounded by the answer, not by the campaign's length: triage
    keeps one exemplar report per cluster (with its count and culprit
    sites), and every other report is dropped once it is folded.
    """

    #: When set, new-cluster discoveries are emitted as ``cluster_found``
    #: trace events so offline ``stats`` sees the same series.
    telemetry: Optional[object] = None
    #: Provenance-guided triage by default: reports carrying a culprit site
    #: set cluster by (fs, consequence, sites) — one bug seen through
    #: different syscalls merges — and the rest fall back to the lexical
    #: procedure.  Campaigns run with forensics disabled therefore behave
    #: exactly as before.
    triage: Triage = field(default_factory=campaign_triage)
    #: workload index at which each cluster was first seen
    first_seen: Dict[int, int] = field(default_factory=dict)
    #: Cumulative time-to-bug series (Figure 3 shape): the workload index
    #: and cumulative pipeline second at which each new cluster appeared.
    time_to_bug: List[TimeToBug] = field(default_factory=list)

    def add_result(self, result: TestResult) -> None:
        """Fold one in-process :class:`TestResult`.  Only a report that
        founds a cluster is kept; keying the others reads their
        provenance's crash region, never the whole lineage."""
        key_of = self.triage.key_of
        self._add(vars(result), [(key_of(r), r) for r in result.reports])

    def add_dict(self, data: Mapping[str, object]) -> None:
        """Fold one wire dict (worker result, checkpoint journal).

        A report entry is either a full :meth:`BugReport.to_dict` (the key
        is derived on read) or a campaign worker's compact entry: its
        ``key``, plus the report's fields only where the report may found a
        cluster (see :func:`repro.campaign.worker.compact_results`).
        """
        keyed = []
        for entry in data.get("reports", ()):
            report = (BugReport.from_dict(entry)
                      if "fs_name" in entry else None)
            key = entry.get("key")
            keyed.append((self.triage.key_of(report) if key is None else key,
                          report))
        self._add(data, keyed)

    def _add(self, fields: Mapping[str, object],
             keyed: List[Tuple[tuple, Optional[BugReport]]]) -> None:
        self.add_fields(fields)
        if not keyed:
            return
        outcomes = self.totals.setdefault("outcomes", {})
        clusters = self.triage.clusters
        for key, report in keyed:
            # Both key shapes carry the consequence second to last.
            name = key[-2]
            outcomes[name] = outcomes.get(name, 0) + 1
            before = len(clusters)
            self.triage.add_key(key, report)
            if len(clusters) == before:
                continue
            index, t = before, self.wall_time
            consequence = clusters[index].exemplar.consequence.name
            self.first_seen[index] = self.workloads_tested
            self.time_to_bug.append(
                TimeToBug(index, self.workloads_tested, t, consequence)
            )
            if self.telemetry is not None:
                self.telemetry.event(
                    "cluster_found", cluster=index,
                    workload=self.workloads_tested, t=t, consequence=consequence,
                )

    @property
    def clusters(self) -> List[Cluster]:
        return self.triage.clusters

    # ------------------------------------------------------------------
    # Offline ingestion (``python -m repro stats``)
    # ------------------------------------------------------------------
    @classmethod
    def from_traces(cls, paths: Sequence[str]) -> "CampaignSummary":
        """Rebuild the summary from one or more JSONL traces, merged.

        Counters and histograms add; ``cluster_found`` events carry
        per-trace cluster numbering (each worker triages its own universe),
        so the merged time-to-bug series is re-numbered in discovery-time
        order.  Note this series counts *per-worker* discoveries: the
        cross-worker dedup of the final bug set happens in the campaign
        merge stage.  Traces carry no reports, so :attr:`clusters` is empty.
        """
        summary = super().from_traces(paths)
        summary.time_to_bug.sort(key=lambda e: (e.t, e.workload, e.cluster))
        if len(paths) > 1:
            summary.time_to_bug = [
                TimeToBug(i, e.workload, e.t, e.consequence)
                for i, e in enumerate(summary.time_to_bug)
            ]
        return summary

    def add_event(self, name: str, fields: Dict[str, object]) -> None:
        if name != "cluster_found":
            super().add_event(name, fields)
            return
        self.time_to_bug.append(TimeToBug(
            cluster=int(fields.get("cluster", len(self.time_to_bug))),
            workload=int(fields.get("workload", 0)),
            t=float(fields.get("t", 0.0)),
            consequence=str(fields.get("consequence", "?")),
        ))

    # ------------------------------------------------------------------
    # Machine-readable export (``python -m repro stats --json``)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """The aggregates as one JSON-serializable document.

        Keys mirror the :meth:`render` tables so dashboards and scripts
        consume the same quantities the text summary shows.
        """
        t = self.total
        return {
            "fs": self.fs_name,
            "generator": self.generator,
            "meta": {k: v for k, v in self.meta.items()
                     if k not in ("fs", "generator")},
            "workloads": self.workloads_tested,
            "truncated_workloads": self.truncated_workloads,
            "crash_states": self.crash_states,
            "unique_states": self.unique_states,
            "dedup_hit_rate": self.dedup_hit_rate,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_shared_hits": self.memo_shared_hits,
            "memo_shared_errors": t("memo_shared_errors"),
            "unique_outcomes": t("n_unique_outcomes"),
            "outcome_hits": t("outcome_hits"),
            "outcome_misses": t("outcome_misses"),
            "recovery_hits": t("recovery_hits"),
            "recovery_misses": t("recovery_misses"),
            "recovery_resets": t("recovery_resets"),
            "fences": t("n_fences"),
            "reports": t("n_reports"),
            "wall_time": self.wall_time,
            "states_per_second": self.states_per_second,
            "stage_totals": dict(t("stage_times", {})),
            "outcome_counts": dict(t("outcomes", {})),
            "time_to_bug": [asdict(e) for e in self.time_to_bug],
            "inflight": {
                fs: {syscall: list(counts) for syscall, counts in per.items()}
                for fs, per in self.inflight.items()
            },
        }

    # ------------------------------------------------------------------
    # Text rendering (``python -m repro stats``)
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Multi-table text summary (the ``python -m repro stats`` output)."""
        t = self.total
        lines: List[str] = []
        head = f"Campaign: {self.fs_name} ({self.generator})"
        extras = {k: v for k, v in self.meta.items()
                  if k not in ("fs", "generator")}
        if extras:
            head += "  [" + ", ".join(f"{k}={v}" for k, v in sorted(extras.items())) + "]"
        lines.append(head)
        trunc = (f" ({self.truncated_workloads} truncated)"
                 if self.truncated_workloads else "")
        lines.append(
            f"workloads: {self.workloads_tested}{trunc}   crash states: "
            f"{self.crash_states} generated, {self.unique_states} unique "
            f"(dedup hit-rate {self.dedup_hit_rate * 100:.1f}%)"
        )
        lines.append(
            f"wall time: {self.wall_time:.2f}s   throughput: "
            f"{self.states_per_second:.1f} crash states/sec   "
            f"fences: {t('n_fences')}   reports: {t('n_reports')}"
        )
        lines.extend(f"{label}: {body}" for label, body in self.counter_lines())
        lines.append("")
        lines.append("Per-stage timings")
        lines.extend(_table(("stage", "total (ms)", "share"), [
            (stage, f"{dt * 1000:.1f}", f"{share:.1f}%")
            for stage, dt, share in _stage_rows(t("stage_times", {}))
        ]))
        lines.append("")
        lines.append("Checker outcomes")
        outcome_rows = [(k, v) for k, v in
                        sorted(t("outcomes", {}).items(), key=lambda kv: -kv[1])]
        if not outcome_rows:
            outcome_rows = [("clean", "-")]
        lines.extend(_table(("consequence", "reports"), outcome_rows))
        lines.append("")
        lines.append("Cumulative time-to-bug")
        if self.time_to_bug:
            ttb_rows = [
                (e.cluster + 1, e.workload, f"{e.t:.2f}", e.consequence)
                for e in self.time_to_bug
            ]
            lines.extend(_table(("cluster", "workload #", "t (s)", "consequence"),
                                ttb_rows))
        else:
            lines.append("(no clusters found)")
        for fs, per_syscall in sorted(self.inflight.items()):
            lines.append("")
            lines.append(f"In-flight write units per syscall [{fs}]")
            rows = []
            for syscall in sorted(per_syscall):
                counts = per_syscall[syscall]
                rows.append((
                    syscall, len(counts),
                    f"{sum(counts) / len(counts):.1f}", max(counts),
                ))
            lines.extend(_table(("syscall", "fences", "avg units", "max"), rows))
        return "\n".join(lines)


def _stage_rows(stage_totals: Dict[str, float]):
    """``(stage, seconds, share %)`` in pipeline order, unknown stages last."""
    total = sum(stage_totals.values()) or 1.0
    order = [s for s in STAGES if s in stage_totals]
    order += sorted(set(stage_totals) - set(STAGES))
    return [(s, stage_totals[s], stage_totals[s] / total * 100) for s in order]


def run_campaign(chipmunk, workloads, generator: str = "ace") -> CampaignSummary:
    """Run a batch of workloads and aggregate a :class:`CampaignSummary`.

    ``workloads`` may yield plain op lists or ACE workloads (with ``setup``
    and ``core`` attributes).
    """
    summary = CampaignSummary(fs_name=chipmunk.fs_class.name, generator=generator)
    for workload in workloads:
        setup = getattr(workload, "setup", ())
        core = getattr(workload, "core", workload)
        summary.add_result(chipmunk.test_workload(core, setup=setup))
    return summary


def _telemetry_section(summary: CampaignSummary) -> List[str]:
    """Markdown telemetry block: throughput, dedup rate, the campaign's
    counter lines, and per-stage timings."""
    stage_times = summary.total("stage_times", {})
    if not stage_times:
        return []
    lines: List[str] = ["## Telemetry", ""]
    if summary.wall_time > 0:
        lines.append(
            f"- **throughput:** {summary.states_per_second:.1f} crash states/sec"
        )
    if summary.crash_states:
        lines.append(f"- **dedup hit-rate:** {summary.dedup_hit_rate * 100:.1f}%")
    lines.extend(f"- **{label}:** {text}"
                 for label, text in summary.counter_lines())
    lines.append("")
    lines.append("| stage | total (ms) | share |")
    lines.append("| --- | ---: | ---: |")
    for stage, dt, share in _stage_rows(stage_times):
        lines.append(f"| {stage} | {dt * 1000:.1f} | {share:.1f}% |")
    lines.append("")
    return lines


def failure_text(record: Mapping[str, object]) -> str:
    """A journaled failure's error, plus where it raised when known."""
    frame = last_frame(str(record.get("traceback", "")))
    return (f"{record.get('error', '?')}"
            + (f" (raised at {frame})" if frame else ""))


def _engine_section(engine_meta: Optional[Dict[str, object]],
                    quarantined: Optional[List[dict]],
                    retried: Optional[List[dict]] = None) -> List[str]:
    """Markdown block for the parallel campaign engine's run metadata."""
    lines: List[str] = []
    if engine_meta:
        lines += ["## Campaign engine", ""]
        lines.append(f"- **workers:** {engine_meta.get('workers', '?')}")
        if engine_meta.get("wall_clock") is not None:
            lines.append(
                f"- **wall clock:** {float(engine_meta['wall_clock']):.1f}s"
            )
        lines.append(
            f"- **scheduling:** {engine_meta.get('dispatched', 0)} dispatched, "
            f"{engine_meta.get('requeues', 0)} requeued"
        )
        if retried:
            lines.append(
                f"- **retried:** {len(retried)} workload(s) charged a retry: "
                + "; ".join(f"`{r.get('id', '?')}` attempt "
                            f"{r.get('attempt', '?')}: {failure_text(r)}"
                            for r in retried)
            )
        if engine_meta.get("workers_killed"):
            lines.append(
                f"- **workers killed:** {engine_meta['workers_killed']} "
                f"(crash or per-workload timeout)"
            )
        if engine_meta.get("items_resumed"):
            lines.append(
                f"- **resumed:** {engine_meta['items_resumed']} workload(s) "
                f"restored from the checkpoint journal, not re-executed"
            )
        if engine_meta.get("interrupted"):
            lines.append(
                "- **interrupted:** campaign stopped early; findings are a "
                "lower bound (resume with `--resume`)"
            )
        lines.append("")
    if quarantined:
        lines += ["## Quarantined workloads", ""]
        lines.append(
            f"{len(quarantined)} workload(s) exhausted their retry budget "
            f"and were excluded; their coverage is missing from this report."
        )
        lines.append("")
        lines.append("| workload | retries | last error | raised at |")
        lines.append("| --- | ---: | --- | --- |")
        for record in quarantined:
            frame = last_frame(record.get("traceback", ""))
            lines.append(
                f"| `{record.get('id', '?')}` | {record.get('retries', '?')} "
                f"| {record.get('error', '?')} "
                f"| {f'`{frame}`' if frame else '-'} |"
            )
        lines.append("")
    return lines


_FRAME = re.compile(r'File "([^"]+)", line (\d+), in (\S+)')


def last_frame(traceback_text: str) -> str:
    """``file.py:LINE in func`` of a traceback's innermost frame ("" when
    there is none — e.g. a worker that died rather than raised)."""
    frames = _FRAME.findall(traceback_text or "")
    if not frames:
        return ""
    path, line, func = frames[-1]
    return f"{os.path.basename(path)}:{line} in {func}"


def _forensics_section(exemplar, finding_index: int) -> List[str]:
    """Markdown forensics block for one cluster exemplar's provenance.

    Shows the crash-region store lineage (the fence epoch the crash
    interrupted, with each store's persistence fate) and points at
    ``repro explain`` for the full timeline, minimization, and image diff.
    """
    prov = exemplar.provenance
    if prov is None:
        return []
    counts = prov.counts()
    lines: List[str] = ["**Forensics**", ""]
    lines.append(
        f"Crash {prov.where()} (fence epoch {prov.fence_index} of "
        f"{prov.n_epochs}, state `{prov.state_kind}`): "
        f"{counts['replayed']} in-flight store(s) persisted, "
        f"{counts['dropped']} dropped, {counts['durable']} already durable."
    )
    region = [e for e in prov.crash_region() if e.kind in ("store", "flush")]
    if region:
        lines.append("")
        lines.append("```")
        for e in region:
            lines.append(
                f"seq {e.seq:>4}  {e.kind:<6} {e.status:<9} {e.func:<28} "
                f"addr={e.addr:#08x} len={e.length}"
            )
        lines.append("```")
    lines.append("")
    lines.append(
        f"Full timeline, store-set minimization, and image diff: "
        f"`python -m repro explain bugs.json --index "
        f"{finding_index - 1} --minimize`"
    )
    lines.append("")
    return lines


def render_markdown(
    summary: CampaignSummary,
    title: Optional[str] = None,
    engine_meta: Optional[Dict[str, object]] = None,
    quarantined: Optional[List[dict]] = None,
    retried: Optional[List[dict]] = None,
) -> str:
    """Render a campaign summary as a markdown report.

    ``engine_meta``, ``quarantined`` and ``retried`` come from the parallel
    campaign engine (:mod:`repro.campaign`); serial callers omit them and
    get the original report shape.
    """
    lines: List[str] = []
    lines.append(f"# {title or f'Crash-consistency report: {summary.fs_name}'}")
    lines.append("")
    lines.append(f"- **file system:** `{summary.fs_name}`")
    lines.append(f"- **workload generator:** {summary.generator}")
    lines.append(f"- **workloads tested:** {summary.workloads_tested}")
    lines.append(
        f"- **crash states:** {summary.crash_states} generated, "
        f"{summary.unique_states} unique checked"
    )
    lines.append(f"- **wall time:** {summary.wall_time:.1f}s")
    if summary.truncated_workloads:
        lines.append(
            f"- **truncated workloads:** {summary.truncated_workloads} "
            f"(hit the per-workload report cap; findings are a lower bound)"
        )
    lines.append(f"- **findings:** {len(summary.clusters)} triaged cluster(s)")
    lines.append("")
    lines.extend(_engine_section(engine_meta, quarantined, retried))
    lines.extend(_telemetry_section(summary))
    if not summary.clusters:
        lines.append("No crash-consistency violations found.")
        lines.append("")
        return "\n".join(lines)
    for index, cluster in enumerate(summary.clusters, 1):
        exemplar = cluster.exemplar
        lines.append(f"## Finding {index}: {exemplar.consequence.value}")
        lines.append("")
        lines.append(f"*{cluster.count} report(s) in this cluster; first seen at "
                     f"workload #{summary.first_seen.get(index - 1, '?')}.*")
        lines.append("")
        if cluster.prov_key is not None and cluster.sites:
            lines.append(
                f"*Clustered by culprit sites: {cluster.describe_sites()}.*"
            )
            lines.append("")
        lines.append("**Reproduction workload**")
        lines.append("")
        lines.append("```")
        lines.append(exemplar.workload_desc)
        lines.append("```")
        lines.append("")
        lines.append("**Crash point**")
        lines.append("")
        lines.append("```")
        lines.append(exemplar.crash_desc)
        lines.append("```")
        lines.append("")
        lines.append("**Observed divergence**")
        lines.append("")
        lines.append(exemplar.detail)
        if exemplar.paths:
            lines.append("")
            lines.append(f"Affected paths: {', '.join(f'`{p}`' for p in exemplar.paths)}")
        lines.append("")
        lines.extend(_forensics_section(exemplar, index))
    return "\n".join(lines)
