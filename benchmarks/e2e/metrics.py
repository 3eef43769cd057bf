"""Metric definitions and the statistics every report uses.

``BENCHMARK.json`` at the repository root is the one place the gated
end-to-end metrics (name, unit, direction, bound) and the per-layer metric
names are declared; this module loads it rather than repeating it.  Two more
end-to-end numbers are printed, compared and kept in ``latest.json`` but are
not gated through ``BENCHMARK.json`` (README, "Contract deviations"):
``time_to_last_cluster_s`` moves with which sampled workload first shows the
rarest cluster, so its spread across seeds is far wider than any bound; and
``failed_share`` is 0 on four workloads, and travels in the result line as
``failed``/``attempted`` instead.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def load_manifest() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: Printed and compared next to the manifest's end-to-end metrics.
#: ``failed_share`` has bound 0: it may not rise at all.
EXTRA_END_TO_END = (
    {"name": "time_to_last_cluster_s", "unit": "s", "better": "lower",
     "bound": 0.10, "workloads": ("nova-serial",)},
    {"name": "failed_share", "unit": "share", "better": "lower", "bound": 0.0},
)


def end_to_end_metrics() -> List[dict]:
    return list(load_manifest()["end_to_end"]) + [dict(m) for m in EXTRA_END_TO_END]


def applies(metric: dict, workload: str) -> bool:
    return workload in metric.get("workloads", (workload,))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of one metric's runs."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative = better)."""
    if not parent:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def count_keys(counts: dict) -> List[str]:
    """The counts that must repeat exactly from pass to pass and commit to
    commit.  With the shared memo, which worker checks a state first is a
    race: its checked-state count is published as a range and left out."""
    racy = "states_checked_range" in counts
    return [k for k in counts
            if not (racy and k.startswith("states_checked"))]
