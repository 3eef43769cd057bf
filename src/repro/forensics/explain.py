"""``repro explain``: offline bug forensics from a saved report.

Given one serialized :class:`~repro.core.report.BugReport` carrying
provenance, this module rebuilds the exact crash state (recording is
deterministic), re-runs the checker to confirm the saved consequence still
reproduces, optionally minimizes the dropped store set, and renders the
full forensic view: the fence-epoch ordering timeline with the culprit set
highlighted, an annotated image diff against the fully-persisted reference,
and (on request) a Chrome trace-event file of the lineage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.core.report import BugReport
from repro.forensics.cache import ForensicsCache
from repro.forensics.minimize import (
    DEFAULT_BUDGET,
    DEFAULT_WORKLOAD_BUDGET,
    MinimizationResult,
    WorkloadMinimizationResult,
    minimize_dropped_set,
    minimize_workload,
)
from repro.forensics.replay import materialize_state, outcome_of, rebuild_session
from repro.forensics.timeline import (
    render_image_diff,
    render_timeline,
    write_chrome_trace,
)


def load_report_dicts(path: str) -> List[Dict[str, object]]:
    """Read saved bug-report dicts from ``path``.

    Accepts the three shapes the toolchain writes: a single report object,
    a bare list of reports, or a ``{"reports": [...]}`` document (the
    ``--save-reports`` format, also used by the campaign's ``bugs.json``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "reports" in data:
        data = data["reports"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: not a bug-report document")
    return data


@dataclass
class Explanation:
    """Everything ``repro explain`` derived from one saved report."""

    report: BugReport
    #: Checker outcome of the rebuilt original crash state.
    outcome: FrozenSet[str]
    #: True when the saved consequence still reproduces offline.
    reproduced: bool
    minimization: Optional[MinimizationResult]
    #: The rendered forensic view (timeline + diff + verdicts).
    text: str
    #: Workload minimization result, when that pass was requested.
    workload_minimization: Optional[WorkloadMinimizationResult] = None


def explain_report(
    report: BugReport,
    minimize: bool = False,
    budget: int = DEFAULT_BUDGET,
    chrome_out: Optional[str] = None,
    telemetry=None,
    cache: Optional[ForensicsCache] = None,
    minimize_ops: bool = False,
    workload_budget: int = DEFAULT_WORKLOAD_BUDGET,
) -> Explanation:
    """Run the full forensic pass on one provenance-carrying report.

    With a ``cache`` the session rebuild and every ddmin verdict go through
    the cross-report memo, so batch callers pay one recording per
    reproduction context instead of one per report.  ``minimize_ops``
    additionally runs workload ddmin, shrinking the op sequence to the ops
    essential for the consequence.
    """
    prov = report.provenance
    if prov is None:
        raise ValueError(
            "report carries no provenance (was the campaign run with "
            "forensics disabled?)"
        )
    if cache is not None:
        session = cache.session(prov)
    else:
        session = rebuild_session(prov, telemetry=telemetry)
    target = report.consequence.name
    outcome = outcome_of(session.original_reports())
    reproduced = target in outcome
    lines = [report.render(), ""]
    if reproduced:
        lines.append(f"offline replay reproduces {target} "
                     f"(outcome: {', '.join(sorted(outcome)) or 'clean'})")
    else:
        lines.append(
            f"WARNING: offline replay does NOT reproduce {target} "
            f"(outcome: {', '.join(sorted(outcome)) or 'clean'})"
        )
    minimization: Optional[MinimizationResult] = None
    culprits: tuple = ()
    if minimize and reproduced:
        minimization = minimize_dropped_set(
            session, target, budget=budget, telemetry=telemetry, cache=cache
        )
        culprits = minimization.culprit_seqs
        lines.append(minimization.describe())
        if minimization.reproduced and not minimization.minimal_dropped:
            lines.append(
                "  (the state fails even with every in-flight store "
                "persisted: the required persist is missing from the log "
                "entirely — a missing-flush bug)"
            )
    workload_min: Optional[WorkloadMinimizationResult] = None
    if minimize_ops and reproduced:
        workload_min = minimize_workload(
            prov, target, budget=workload_budget, telemetry=telemetry
        )
        lines.append(workload_min.describe())
    layout = session.chipmunk.fs_class.layout_map(session.base)
    lines.append("")
    lines.append(render_timeline(prov, layout, culprits, workload_min))
    reference = materialize_state(
        prov, session.region, range(len(session.region.units)), kind="subset"
    ).image.materialize()
    lines.append("")
    lines.append(
        render_image_diff(
            session.original_state().image.materialize(),
            reference,
            layout,
            label="image with all in-flight stores persisted",
        )
    )
    if chrome_out is not None:
        n = write_chrome_trace(prov, chrome_out, culprits)
        lines.append("")
        lines.append(f"wrote {n} Chrome trace event(s) to {chrome_out}")
    return Explanation(
        report=report,
        outcome=outcome,
        reproduced=reproduced,
        minimization=minimization,
        text="\n".join(lines),
        workload_minimization=workload_min,
    )
