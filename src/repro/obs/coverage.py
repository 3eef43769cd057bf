"""Crash-state space coverage analytics (``python -m repro coverage``).

Every remaining exploration lever — WITCHER-style output-equivalence
pruning — starts from a distribution question: how big
are in-flight windows per fence epoch, which persistence mechanisms carry
the stores, how many checked states recover to distinct outcomes, how much
of the stored data does recovery even read?
:class:`CoverageReport` aggregates those distributions from data the
pipeline already produces (serialized :class:`~repro.core.harness.TestResult`
dicts in a campaign's checkpoint journal, or ``workload_result`` events in
``--trace`` JSONL files), folded by the same
:class:`~repro.obs.campaign.ResultFold` as every campaign aggregate, and
renders them as a markdown report with ASCII CDFs that campaigns drop next
to ``report.md`` and ``forensics.md``.

The module stays dependency-light like the rest of :mod:`repro.obs`:
campaign-journal access is deferred into the builder function, so importing
the analytics never pulls the engine in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.campaign import ResultFold

#: Bar width of the ASCII CDF / histogram renderings.
BAR_WIDTH = 40


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + " " * (width - filled)


def ascii_cdf(values: Sequence[int], label: str = "value") -> List[str]:
    """Cumulative distribution of integer observations, one row per value.

    ``P(X <= v)`` per distinct observed ``v`` — the Silhouette-style
    window-size CDF shape, in monospace.
    """
    if not values:
        return ["(no observations)"]
    total = len(values)
    counts: Dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    lines = [f"{label + ' <=':>12}  count    cum%"]
    cum = 0
    for v in sorted(counts):
        cum += counts[v]
        frac = cum / total
        lines.append(
            f"{v:>12}  {counts[v]:>5}  {frac * 100:>5.1f}%  |{_bar(frac)}|"
        )
    return lines


def ascii_histogram(values: Sequence[int], label: str = "value") -> List[str]:
    """Frequency histogram; collapses to ranges past 12 distinct values."""
    if not values:
        return ["(no observations)"]
    total = len(values)
    distinct = sorted(set(values))
    if len(distinct) <= 12:
        buckets: List[Tuple[str, int]] = []
        counts: Dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for v in distinct:
            buckets.append((str(v), counts[v]))
    else:
        lo, hi = distinct[0], distinct[-1]
        n_buckets = 8
        span = max(1, (hi - lo + n_buckets) // n_buckets)
        counted: Dict[int, int] = {}
        for v in values:
            counted[(v - lo) // span] = counted.get((v - lo) // span, 0) + 1
        buckets = [
            (f"{lo + i * span}-{lo + (i + 1) * span - 1}", counted[i])
            for i in sorted(counted)
        ]
    lines = [f"{label:>12}  count   share"]
    for name, count in buckets:
        frac = count / total
        lines.append(
            f"{name:>12}  {count:>5}  {frac * 100:>5.1f}%  |{_bar(frac)}|"
        )
    return lines


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    if not sorted_values:
        return 0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


@dataclass
class CoverageReport(ResultFold):
    """Aggregated exploration-coverage distributions of one campaign.

    The counters are the shared result fold (:attr:`totals`, keyed by
    ``TestResult`` field names); only the per-workload distributions below
    are coverage's own.
    """

    buggy_workloads: int = 0
    fences_per_workload: List[int] = field(default_factory=list)
    stores_per_workload: List[int] = field(default_factory=list)

    def add_fields(self, fields: Dict[str, object]) -> None:
        """Fold one journal result dict or ``workload_result`` event."""
        super().add_fields(fields)
        # Every file system seen gets a window table, in-flight data or not.
        self.inflight.setdefault(str(fields.get("fs", self.fs_name)), {})
        if fields.get("n_reports", len(fields.get("reports", ()))):
            self.buggy_workloads += 1
        self.fences_per_workload.append(int(fields.get("n_fences", 0)))
        self.stores_per_workload.append(sum(
            int(mix.get("stores", 0)) + int(mix.get("flushes", 0))
            for mix in dict(fields.get("persistence", {})).values()
        ))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def outcome_headroom(self) -> float:
        """Fraction of checked states recovering to an already-seen outcome."""
        if not self.unique_states:
            return 0.0
        return 1.0 - self.total("n_unique_outcomes") / self.unique_states

    @property
    def recovery_unread_fraction(self) -> float:
        """Fraction of stored cache lines recovery never reads, estimated
        on the sampled workloads (:func:`~repro.core.harness.recovery_sampled`)."""
        recovery = self.total("recovery_overlap", {})
        stored = recovery.get("store_lines", 0)
        if not stored:
            return 0.0
        return 1.0 - recovery.get("overlap_lines", 0) / stored

    def all_window_sizes(self, fs: Optional[str] = None) -> List[int]:
        merged: List[int] = []
        for name, per_syscall in self.inflight.items():
            if fs is not None and name != fs:
                continue
            for counts in per_syscall.values():
                merged.extend(counts)
        return merged

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        t = self.total
        return {
            "fs": self.fs_name,
            "generator": self.generator,
            "workloads": self.workloads_tested,
            "buggy_workloads": self.buggy_workloads,
            "reports": t("n_reports"),
            "truncated_workloads": self.truncated_workloads,
            "states_enumerated": self.crash_states,
            "states_checked": self.unique_states,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_shared_hits": self.memo_shared_hits,
            "unique_outcomes": t("n_unique_outcomes"),
            "outcome_headroom": self.outcome_headroom,
            "outcome_hits": t("outcome_hits"),
            "outcome_misses": t("outcome_misses"),
            "recovery_hits": t("recovery_hits"),
            "recovery_misses": t("recovery_misses"),
            "recovery_resets": t("recovery_resets"),
            "fences_per_workload": list(self.fences_per_workload),
            "stores_per_workload": list(self.stores_per_workload),
            "persistence": {k: dict(v) for k, v in t("persistence", {}).items()},
            "store_regions": {k: dict(v) for k, v in t("store_regions", {}).items()},
            "recovery": dict(t("recovery_overlap", {})),
            "recovery_unread_fraction": self.recovery_unread_fraction,
            "inflight": {
                fs: {s: list(c) for s, c in per.items()}
                for fs, per in self.inflight.items()
            },
        }

    # ------------------------------------------------------------------
    # Markdown rendering
    # ------------------------------------------------------------------
    def render_markdown(self) -> str:
        t = self.total
        lines: List[str] = []
        lines.append(
            f"# Exploration coverage: {self.fs_name} ({self.generator})"
        )
        lines.append("")
        extras = {
            k: v for k, v in sorted(self.meta.items())
            if k not in ("fs", "generator")
        }
        if extras:
            lines.append(
                "- " + ", ".join(f"**{k}:** {v}" for k, v in extras.items())
            )
        truncated = self.truncated_workloads
        lines.append(f"- **workloads:** {self.workloads_tested}"
                     + (f" ({truncated} truncated)" if truncated else ""))
        lines.append(
            f"- **findings:** {t('n_reports')} report(s) across "
            f"{self.buggy_workloads} buggy workload(s)"
        )
        lines.append("")

        lines.append("## Crash-state space")
        lines.append("")
        lines.append(
            f"| enumerated | checked | memo hits | shared hits | "
            f"memo hit-rate | unique outcomes |"
        )
        lines.append("| ---: | ---: | ---: | ---: | ---: | ---: |")
        lines.append(
            f"| {self.crash_states} | {self.unique_states} | "
            f"{self.memo_hits} | {self.memo_shared_hits} | "
            f"{self.memo_hit_rate * 100:.1f}% | "
            f"{t('n_unique_outcomes')} |"
        )
        lines.append("")
        if self.memo_shared_hits:
            lines.append(
                f"The campaign-wide shared memo served "
                f"{self.memo_shared_hits} clean-verdict hit(s) across "
                f"workloads/workers."
            )
            lines.append("")
        if self.unique_states:
            realised = []
            hits = t("recovery_hits")
            if hits or t("recovery_misses"):
                realised.append(
                    f"the read-trace recovery memo skipped mount, walk + "
                    f"usability on {hits} state(s) "
                    f"({hits / self.unique_states * 100:.1f}% of checked"
                    + (f"; its trie was reset {t('recovery_resets')} time(s) "
                       f"at the node budget" if t("recovery_resets") else "")
                    + ")"
                )
            hits, misses = t("outcome_hits"), t("outcome_misses")
            if hits or misses:
                realised.append(
                    f"the recovered-outcome cache skipped walk + "
                    f"usability on {hits} state(s) "
                    f"({hits / self.unique_states * 100:.1f}% "
                    f"of checked; {misses} ran in full)"
                )
            lines.append(
                f"Of {self.unique_states} checked states, only "
                f"{t('n_unique_outcomes')} recovered to distinct observable "
                f"outcomes — **{self.outcome_headroom * 100:.1f}% headroom** "
                f"for WITCHER-style output-equivalence pruning."
                + ("  Realised: " + "; ".join(realised) + "."
                   if realised else "")
            )
            lines.append("")

        lines.append("## In-flight window size CDF (per fence epoch)")
        lines.append("")
        for fs in sorted(self.inflight):
            windows = self.all_window_sizes(fs)
            if not windows:
                continue
            ordered = sorted(windows)
            lines.append(
                f"**{fs}** — {len(windows)} fence epoch(s) with in-flight "
                f"writes; avg {sum(windows) / len(windows):.1f}, "
                f"p95 {_percentile(ordered, 0.95)}, max {ordered[-1]} units"
            )
            lines.append("")
            lines.append("```")
            lines.extend(ascii_cdf(windows, label="units"))
            lines.append("```")
            lines.append("")
            per_syscall = self.inflight[fs]
            if per_syscall:
                lines.append("| syscall | epochs | avg units | p95 | max |")
                lines.append("| --- | ---: | ---: | ---: | ---: |")
                for syscall in sorted(per_syscall):
                    counts = sorted(per_syscall[syscall])
                    lines.append(
                        f"| {syscall} | {len(counts)} | "
                        f"{sum(counts) / len(counts):.1f} | "
                        f"{_percentile(counts, 0.95)} | {counts[-1]} |"
                    )
                lines.append("")

        lines.append("## Fence epochs per workload")
        lines.append("")
        lines.append("```")
        lines.extend(ascii_histogram(self.fences_per_workload, label="fences"))
        lines.append("```")
        lines.append("")
        lines.append("## Stores per workload")
        lines.append("")
        lines.append("```")
        lines.extend(ascii_histogram(self.stores_per_workload, label="stores"))
        lines.append("```")
        lines.append("")

        lines.append("## Persistence-mechanism store breakdown")
        lines.append("")
        persistence = t("persistence", {})
        if persistence:
            lines.append("| function | stores | flushes | fences | bytes |")
            lines.append("| --- | ---: | ---: | ---: | ---: |")
            ordered_funcs = sorted(
                persistence.items(),
                key=lambda kv: -(kv[1]["stores"] + kv[1]["flushes"] + kv[1]["fences"]),
            )
            for func, mix in ordered_funcs:
                lines.append(
                    f"| `{func}` | {mix['stores']} | {mix['flushes']} | "
                    f"{mix['fences']} | {mix['bytes']} |"
                )
        else:
            lines.append("(no persistence data)")
        lines.append("")

        lines.append("## Store placement by layout region")
        lines.append("")
        regions = t("store_regions", {})
        if regions:
            lines.append("| region | writes | bytes |")
            lines.append("| --- | ---: | ---: |")
            for region, traffic in sorted(
                regions.items(), key=lambda kv: -kv[1]["writes"]
            ):
                lines.append(
                    f"| `{region}` | {traffic['writes']} | {traffic['bytes']} |"
                )
        else:
            lines.append("(no layout data)")
        lines.append("")

        lines.append("## Recovery-read redundancy")
        lines.append("")
        from repro.core.harness import RECOVERY_SAMPLE

        recovery = t("recovery_overlap", {})
        if recovery.get("store_lines"):
            # Journals older than the sample measured every workload and
            # carry no ``sampled`` count.
            over = (
                f"over {recovery['sampled']} sampled workload(s), one in "
                f"{RECOVERY_SAMPLE}" if "sampled" in recovery else "over workloads"
            )
            lines.append(
                f"Summed {over}: recovery read "
                f"{recovery.get('read_lines', 0)} cache line(s) at "
                f"mount, workloads stored {recovery['store_lines']}, "
                f"overlap {recovery.get('overlap_lines', 0)} — "
                f"**{self.recovery_unread_fraction * 100:.1f}%** of stored "
                f"lines are never read by recovery (Vinter-heuristic "
                f"redundancy)."
            )
        else:
            lines.append("(no recovery-read data)")
        lines.append("")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def coverage_from_results(
    result_dicts: Iterable[Dict[str, object]],
    fs: str = "?",
    generator: str = "?",
    meta: Optional[Dict[str, object]] = None,
) -> CoverageReport:
    """Build a report from serialized ``TestResult`` dicts."""
    report = CoverageReport(fs_name=fs, generator=generator)
    if meta:
        report.meta.update(meta)
    for fields in result_dicts:
        report.add_fields(fields)
    return report


def coverage_from_campaign_dir(campaign_dir: str) -> CoverageReport:
    """Build a report from a campaign directory's checkpoint journal.

    Works on any campaign — traced or not — because the journal's
    ``item_done`` records carry full serialized results.
    """
    from repro.campaign.journal import CheckpointJournal  # deferred: no cycle
    from repro.campaign.spec import CampaignSpec

    state = CheckpointJournal.replay(campaign_dir)
    fs, generator = "?", "?"
    meta: Dict[str, object] = {}
    if state.spec_dict is not None:
        spec = CampaignSpec.from_dict(state.spec_dict)
        fs, generator = spec.fs, spec.generator
        meta["seq"] = spec.seq
    report = CoverageReport(fs_name=fs, generator=generator)
    report.meta.update(meta)
    for fields in state.ordered_results():
        report.add_fields(fields)
    return report
