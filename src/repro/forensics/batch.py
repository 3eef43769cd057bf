"""``repro explain --all``: campaign-scale batch forensics.

Walks a campaign's ``bugs.json``, runs the full forensic pass on every
provenance-carrying report through one shared
:class:`~repro.forensics.cache.ForensicsCache` (K reports sharing a
reproduction context cost one recording, not K), triages the reports with
the provenance-guided clustering mode, and renders everything into a
``forensics.md`` document next to the campaign's ``report.md``.

The output is deliberately wall-clock-free: the same ``bugs.json`` always
renders to byte-identical markdown, so the document can be diffed across
campaign runs (and the test suite asserts a ``--workers 1`` and a
``--workers 4`` campaign over the same spec explain identically).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.report import BugReport
from repro.core.triage import Cluster, Triage
from repro.forensics.cache import ForensicsCache
from repro.forensics.explain import (
    Explanation,
    explain_report,
    load_report_dicts,
)
from repro.forensics.minimize import DEFAULT_BUDGET, DEFAULT_WORKLOAD_BUDGET

#: File name written next to ``report.md``.
FORENSICS_BASENAME = "forensics.md"


@dataclass
class BatchExplanation:
    """Everything ``repro explain --all`` derived from one campaign."""

    #: Per-report forensic results, in ``bugs.json`` order.  Reports without
    #: provenance are skipped (counted in ``skipped``).
    explanations: List[Explanation]
    #: Provenance-guided cluster assignment over the explained reports.
    clusters: List[Cluster]
    #: The shared cache (hit/miss counters readable after the run).
    cache: ForensicsCache
    #: Indices of reports skipped for missing provenance.
    skipped: List[int] = field(default_factory=list)
    #: The rendered ``forensics.md`` document.
    text: str = ""

    @property
    def reproduced(self) -> int:
        return sum(1 for e in self.explanations if e.reproduced)


def _cluster_section(
    clusters: List[Cluster], assigned: List[Cluster]
) -> List[str]:
    """``assigned[i]`` is the cluster the i-th explained report joined."""
    lines = ["## Cluster assignment (provenance-guided)", ""]
    for n, cluster in enumerate(clusters, 1):
        members = ", ".join(
            f"#{i}" for i, joined in enumerate(assigned) if joined is cluster
        )
        mode = "sites" if cluster.prov_key is not None else "lexical"
        line = (
            f"- cluster {n} ({cluster.exemplar.consequence.name}, "
            f"x{cluster.count}, {mode}): report(s) {members}"
        )
        if cluster.sites:
            line += f" — culprit sites: {cluster.describe_sites()}"
        lines.append(line)
    lines.append("")
    return lines


def explain_all(
    reports: List[BugReport],
    minimize: bool = True,
    budget: int = DEFAULT_BUDGET,
    minimize_ops: bool = False,
    workload_budget: int = DEFAULT_WORKLOAD_BUDGET,
    telemetry=None,
    title: str = "Batch forensics",
) -> BatchExplanation:
    """Explain every provenance-carrying report through one shared cache."""
    cache = ForensicsCache(telemetry=telemetry)
    explanations: List[Explanation] = []
    explained: List[BugReport] = []
    skipped: List[int] = []
    for i, report in enumerate(reports):
        if report.provenance is None:
            skipped.append(i)
            continue
        explanations.append(
            explain_report(
                report,
                minimize=minimize,
                budget=budget,
                telemetry=telemetry,
                cache=cache,
                minimize_ops=minimize_ops,
                workload_budget=workload_budget,
            )
        )
        explained.append(report)
    triage = Triage(provenance=True)
    assigned = [triage.add(report) for report in explained]
    clusters = triage.clusters

    lines: List[str] = [f"# {title}", ""]
    lines.append(f"- **reports:** {len(reports)}")
    lines.append(
        f"- **explained:** {len(explanations)} "
        f"({sum(1 for e in explanations if e.reproduced)} reproduced offline)"
    )
    if skipped:
        lines.append(
            f"- **skipped (no provenance):** "
            f"{', '.join(f'#{i}' for i in skipped)}"
        )
    lines.append(f"- **clusters:** {len(clusters)}")
    lines.append("")
    if clusters:
        lines.extend(_cluster_section(clusters, assigned))
    for i, explanation in zip(
        (j for j in range(len(reports)) if j not in set(skipped)),
        explanations,
    ):
        lines.append(
            f"## Report {i}: {explanation.report.consequence.name}"
        )
        lines.append("")
        lines.append("```")
        lines.append(explanation.text)
        lines.append("```")
        lines.append("")
    lines.append("## Cache")
    lines.append("")
    lines.extend(f"- {line}" for line in cache.describe_lines())
    lines.append("")
    return BatchExplanation(
        explanations=explanations,
        clusters=clusters,
        cache=cache,
        skipped=skipped,
        text="\n".join(lines),
    )


def explain_campaign(
    campaign_dir: str,
    minimize: bool = True,
    budget: int = DEFAULT_BUDGET,
    minimize_ops: bool = False,
    workload_budget: int = DEFAULT_WORKLOAD_BUDGET,
    telemetry=None,
    out: Optional[str] = None,
) -> BatchExplanation:
    """Explain a campaign directory's ``bugs.json`` and write ``forensics.md``.

    ``campaign_dir`` may also point directly at a report JSON file, in which
    case ``forensics.md`` lands next to it (or at ``out``).
    """
    if os.path.isdir(campaign_dir):
        bugs_path = os.path.join(campaign_dir, "bugs.json")
        out_dir = campaign_dir
    else:
        bugs_path = campaign_dir
        out_dir = os.path.dirname(campaign_dir) or "."
    reports = [BugReport.from_dict(d) for d in load_report_dicts(bugs_path)]
    batch = explain_all(
        reports,
        minimize=minimize,
        budget=budget,
        minimize_ops=minimize_ops,
        workload_budget=workload_budget,
        telemetry=telemetry,
        title=f"Batch forensics: {os.path.basename(bugs_path)}",
    )
    out_path = out if out is not None else os.path.join(
        out_dir, FORENSICS_BASENAME
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(batch.text)
    return batch
