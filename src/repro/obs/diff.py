"""Campaign differencing: the semantic gate behind ``repro diff A B``.

Every roadmap perf item — per-family mech rules, output-equivalence
pruning, the vectorized hot path — is a change that must prove "same bugs,
fewer states, more states/sec".  ``cmp bugs.json`` proves byte equality and
nothing else: it cannot say *which* bug appeared, tolerates no benign
re-ordering, and ignores the state/throughput half of the claim entirely.
This module compares two campaigns at the level the triage layer already
defines:

* **Bug clusters** are matched by feeding both sides' reports through one
  provenance-aware :class:`~repro.core.triage.Triage` — the culprit-site
  key ``(fs, consequence, intersecting (persistence func, layout region)
  sites)``, with lexical Jaccard as the fallback for reports without
  provenance.  A cluster fed only by side B **appeared**, only by side A
  **disappeared**, by both **persisting**.  Appeared/disappeared clusters
  are bug-set divergence; the CLI exits non-zero on them.
* **Metrics** (states enumerated/checked, memo hit-rate, mech plan and
  fallback counts, states/sec, coverage headroom) are folded from each
  side's checkpoint journal or telemetry trace and reported as deltas with
  a tolerance threshold — informational, never part of the exit code,
  because wall-clock numbers differ across hosts while bug sets must not.

``--strict`` additionally demands the two serialized exemplar report lists
be equal object-for-object — the old ``cmp bugs.json`` contract — for
callers (CI's subset-vs-mech gate) that pin byte-level equivalence on top
of cluster-level equivalence.

A side is a campaign directory (``bugs.json`` + ``journal.jsonl``), a bare
``*.json`` report file (``{"reports": [...]}`` or a list), or a ``*.jsonl``
telemetry trace (metrics only — cluster comparison needs reports).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.report import BugReport
from repro.obs.campaign import ResultFold

__all__ = ["DiffSide", "CampaignDiff", "load_side", "diff_sides", "render_diff"]

#: Metrics compared between sides, in render order.  ``direction`` marks
#: which way is better for the delta annotation ("higher"/"lower"/None).
METRICS = (
    ("workloads", None),
    ("states_enumerated", "lower"),
    ("states_checked", "lower"),
    ("memo_hit_rate", "higher"),
    ("mech_plans_emitted", None),
    ("mech_fallback_epochs", "lower"),
    ("reports", None),
    ("wall_time_seconds", "lower"),
    ("states_per_sec", "higher"),
    ("coverage_headroom", None),
)


@dataclass
class DiffSide:
    """One comparand: its reports (if available) and folded metrics."""

    path: str
    #: Parsed bug reports; ``None`` when the source has none (trace files).
    reports: Optional[List[BugReport]] = None
    #: The raw serialized report list, for ``--strict`` object equality.
    report_dicts: Optional[List[dict]] = None
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class CampaignDiff:
    """The diff of two sides; ``divergent`` drives the CLI exit code."""

    a: DiffSide
    b: DiffSide
    #: Clusters fed only by side B — new bugs.
    appeared: List[object] = field(default_factory=list)
    #: Clusters fed only by side A — bugs the change lost.
    disappeared: List[object] = field(default_factory=list)
    #: Clusters fed by both sides.
    persisting: List[object] = field(default_factory=list)
    #: True when both sides carried reports and clusters could be matched.
    clusters_compared: bool = False
    #: ``--strict`` verdict: None = not requested/unavailable.
    strict_equal: Optional[bool] = None

    @property
    def divergent(self) -> bool:
        if self.appeared or self.disappeared:
            return True
        return self.strict_equal is False


def _metrics_of(agg) -> Dict[str, float]:
    """Headline metrics from a :class:`~repro.obs.campaign.ResultFold`."""
    t = agg.total
    metrics = {
        "workloads": float(agg.workloads_tested),
        "states_enumerated": float(agg.crash_states),
        "states_checked": float(agg.unique_states),
        "memo_hit_rate": agg.memo_hit_rate,
        "mech_plans_emitted": float(t("mech_plans_emitted")),
        "mech_fallback_epochs": float(t("mech_fallback_epochs")),
        "reports": float(t("n_reports")),
        "wall_time_seconds": agg.wall_time,
        "states_per_sec": agg.states_per_second,
    }
    if agg.memo_misses:
        metrics["coverage_headroom"] = (
            1.0 - t("n_unique_outcomes") / agg.memo_misses
        )
    return metrics


def _parse_report_dicts(doc) -> List[dict]:
    if isinstance(doc, dict):
        doc = doc.get("reports", [])
    if not isinstance(doc, list):
        raise ValueError("report file is neither a list nor {'reports': [...]}")
    return [dict(d) for d in doc]


def _parse_reports(report_dicts: List[dict]) -> List[BugReport]:
    try:
        return [BugReport.from_dict(d) for d in report_dicts]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bug report: {exc}") from exc


def load_side(path: str) -> DiffSide:
    """Load one comparand; raises ``FileNotFoundError``/``ValueError``."""
    if os.path.isdir(path):
        from repro.campaign.journal import CheckpointJournal

        side = DiffSide(path=path)
        bugs_path = os.path.join(path, "bugs.json")
        if os.path.exists(bugs_path):
            with open(bugs_path, "r", encoding="utf-8") as fh:
                side.report_dicts = _parse_report_dicts(json.load(fh))
            side.reports = _parse_reports(side.report_dicts)
        state = CheckpointJournal.replay(path)
        if state.results:
            if side.reports is None:
                # No merged bugs.json (campaign interrupted before merge):
                # fold the journal the way the merge does and take the
                # cluster exemplars — what bugs.json would have held.
                from repro.analysis.reporting import CampaignSummary

                summary = CampaignSummary()
                for result_dict in state.ordered_results():
                    summary.add_dict(result_dict)
                side.reports = [c.exemplar for c in summary.clusters]
                side.report_dicts = json.loads(json.dumps(
                    [r.to_dict() for r in side.reports]
                ))
                agg = summary
            else:
                agg = ResultFold()
                for result_dict in state.ordered_results():
                    agg.add_fields(result_dict)
            side.metrics = _metrics_of(agg)
        if side.reports is None and not side.metrics:
            raise FileNotFoundError(
                f"{path}: neither bugs.json nor journal.jsonl found"
            )
        return side
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if path.endswith(".jsonl"):
        agg = ResultFold.from_traces([path])
        return DiffSide(path=path, metrics=_metrics_of(agg))
    with open(path, "r", encoding="utf-8") as fh:
        report_dicts = _parse_report_dicts(json.load(fh))
    return DiffSide(
        path=path,
        reports=_parse_reports(report_dicts),
        report_dicts=report_dicts,
    )


def diff_sides(a: DiffSide, b: DiffSide, strict: bool = False) -> CampaignDiff:
    """Match both sides' bug clusters and compute the divergence verdict."""
    from repro.core.triage import Triage

    diff = CampaignDiff(a=a, b=b)
    if a.reports is not None and b.reports is not None:
        triage = Triage(provenance=True)
        sides_of: Dict[int, set] = {}
        for label, reports in (("A", a.reports), ("B", b.reports)):
            for report in reports:
                cluster = triage.add(report)
                sides_of.setdefault(id(cluster), set()).add(label)
        for cluster in triage.clusters:
            sides = sides_of[id(cluster)]
            if sides == {"A"}:
                diff.disappeared.append(cluster)
            elif sides == {"B"}:
                diff.appeared.append(cluster)
            else:
                diff.persisting.append(cluster)
        diff.clusters_compared = True
    if strict:
        if a.report_dicts is None or b.report_dicts is None:
            raise ValueError(
                "--strict needs serialized report lists (bugs.json) on both sides"
            )
        diff.strict_equal = a.report_dicts == b.report_dicts
    return diff


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.3g}"


def _cluster_lines(clusters) -> List[str]:
    lines = []
    for cluster in clusters:
        ex = cluster.exemplar
        line = f"- **{ex.consequence.value}** [{ex.fs_name}]: {ex.detail[:160]}"
        sites = cluster.describe_sites()
        if sites:
            line += f"\n  - culprit sites: {sites}"
        lines.append(line)
    return lines


def render_diff(diff: CampaignDiff, tol: float = 0.1) -> str:
    """The ``diff.md`` document."""
    out: List[str] = []
    out.append("# Campaign diff")
    out.append("")
    out.append(f"- A: `{diff.a.path}`")
    out.append(f"- B: `{diff.b.path}`")
    out.append("")
    out.append("## Bug clusters")
    out.append("")
    if not diff.clusters_compared:
        out.append(
            "*(cluster comparison unavailable — a side carries no reports)*"
        )
    else:
        out.append(
            f"{len(diff.appeared)} appeared, {len(diff.disappeared)} "
            f"disappeared, {len(diff.persisting)} persisting — "
            + ("**DIVERGENT**" if diff.appeared or diff.disappeared
               else "bug sets match")
        )
        for title, clusters in (
            ("Appeared (B only)", diff.appeared),
            ("Disappeared (A only)", diff.disappeared),
            ("Persisting (both)", diff.persisting),
        ):
            out.append("")
            out.append(f"### {title}")
            out.append("")
            out.extend(_cluster_lines(clusters) or ["*(none)*"])
    if diff.strict_equal is not None:
        out.append("")
        out.append(
            "Strict serialized-report equality: "
            + ("**equal**" if diff.strict_equal else "**NOT equal**")
        )
    out.append("")
    out.append("## Metrics")
    out.append("")
    if not diff.a.metrics and not diff.b.metrics:
        out.append("*(no metrics on either side)*")
    else:
        out.append(f"| metric | A | B | delta | >±{tol * 100:.0f}%? |")
        out.append("| --- | ---: | ---: | ---: | :---: |")
        for name, direction in METRICS:
            va = diff.a.metrics.get(name)
            vb = diff.b.metrics.get(name)
            if va is None and vb is None:
                continue
            if va is None or vb is None:
                out.append(
                    f"| {name} | {_fmt(va) if va is not None else '-'} | "
                    f"{_fmt(vb) if vb is not None else '-'} | - | - |"
                )
                continue
            delta = vb - va
            rel = delta / abs(va) if va else (0.0 if not delta else float("inf"))
            flagged = abs(rel) > tol
            note = ""
            if flagged and direction is not None:
                better = (rel > 0) == (direction == "higher")
                note = " (better)" if better else " (worse)"
            rel_text = f"{rel * 100:+.1f}%" if rel != float("inf") else "new"
            out.append(
                f"| {name} | {_fmt(va)} | {_fmt(vb)} | "
                f"{rel_text} | {'yes' + note if flagged else ''} |"
            )
    out.append("")
    return "\n".join(out)
