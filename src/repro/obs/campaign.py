"""Campaign-level aggregation of per-workload telemetry.

:class:`CampaignStats` consumes per-workload
:class:`~repro.core.harness.TestResult` objects (in-process) or a JSONL
trace written via ``--trace`` (offline, :meth:`CampaignStats.from_trace`)
and derives the quantities the paper's evaluation reports:

* cumulative time-to-bug series (Figure 3 shape) — the campaign second and
  workload index at which each new triaged cluster appeared;
* crash-states/sec throughput and dedup hit-rate (§4.3's per-FS crash-state
  counts and runtime);
* checker-outcome breakdown by consequence class;
* per-FS in-flight write-unit histograms (Obs. 7 shape).

The class is symmetric with the trace format: ``add_result`` both folds a
result in and (when a telemetry object is attached) emits the
``cluster_found`` events that :meth:`from_trace` later folds back, so the
in-process and offline views of a campaign agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.tracing import read_jsonl

#: Pipeline stages in display order.
STAGES = ("record", "oracle", "enumerate", "check", "triage", "analyze")


@dataclass(frozen=True)
class TimeToBug:
    """One point of the cumulative time-to-bug series."""

    cluster: int
    workload: int
    t: float
    consequence: str


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


@dataclass
class CampaignStats:
    """Aggregated telemetry of one testing campaign."""

    fs_name: str = "?"
    generator: str = "?"
    #: When set, new-cluster discoveries are emitted as ``cluster_found``
    #: trace events so offline ``stats`` sees the same series.
    telemetry: Optional[object] = None
    meta: Dict[str, object] = field(default_factory=dict)

    n_workloads: int = 0
    n_truncated: int = 0
    n_crash_states: int = 0
    n_unique_states: int = 0
    n_fences: int = 0
    n_reports: int = 0
    #: Check-memoization counters (``checker.memo.*``): states skipped
    #: because a byte-identical image was already checked / states checked.
    n_memo_hits: int = 0
    n_memo_misses: int = 0
    #: Memo-miss attribution (``checker.memo.miss.*``): reason -> count,
    #: summing exactly to :attr:`n_memo_misses` when every result carries
    #: attribution data.
    memo_miss_reasons: Dict[str, int] = field(default_factory=dict)
    #: Overlay writes dropped as no-ops before digesting
    #: (``checker.memo.noop_writes_dropped``).
    n_memo_noop_dropped: int = 0
    #: Hits served by the campaign-wide shared memo service
    #: (``checker.memo.shared.hits``); subset of :attr:`n_memo_hits`.
    n_memo_shared_hits: int = 0
    #: Shared-service calls that failed and degraded to local misses
    #: (``checker.memo.shared.errors``).
    n_memo_shared_errors: int = 0
    #: Clean entries LRU-evicted from local memos
    #: (``checker.memo.evictions``).
    n_memo_evictions: int = 0
    #: Distinct recovered outcomes among checked states (summed per
    #: workload — outcomes are not deduplicated across workloads).
    n_unique_outcomes: int = 0
    #: Recovered-outcome cache (``checker.outcome_cache.*``): mounted states
    #: whose walk + usability pass were reused from a byte-identical
    #: post-mount image / ran in full.
    n_outcome_hits: int = 0
    n_outcome_misses: int = 0
    #: Crash-plan mode the campaign ran under ("subset" | "mech"; "?" until
    #: the first result arrives, "mixed" if results disagree).
    crash_plans: str = "?"
    #: Mechanism recognition (``mech.recognized.{kind}``): fence epochs per
    #: recognized mechanism kind, across all workloads.
    mech_recognized: Dict[str, int] = field(default_factory=dict)
    #: Targeted crash states emitted from mechanism plans
    #: (``mech.plans.emitted``).
    n_mech_plans_emitted: int = 0
    #: Epochs the recognizers could not explain, enumerated as full
    #: subsets (``mech.fallback_epochs``).
    n_mech_fallback_epochs: int = 0
    wall_time: float = 0.0
    stage_totals: Dict[str, float] = field(default_factory=dict)
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    #: fs name -> syscall name -> in-flight unit counts at each fence.
    inflight: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    time_to_bug: List[TimeToBug] = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.core.triage import Triage  # deferred: obs stays core-free

        self._triage = Triage()

    # ------------------------------------------------------------------
    # In-process ingestion
    # ------------------------------------------------------------------
    def add_result(self, result) -> None:
        """Fold one :class:`TestResult` into the campaign aggregates."""
        self.n_workloads += 1
        self.n_crash_states += result.n_crash_states
        self.n_unique_states += result.n_unique_states
        self.n_fences += result.n_fences
        self.n_reports += len(result.reports)
        self.n_memo_hits += getattr(result, "memo_hits", 0)
        self.n_memo_misses += getattr(result, "memo_misses", 0)
        self.n_memo_noop_dropped += getattr(result, "memo_noop_dropped", 0)
        self.n_memo_shared_hits += getattr(result, "memo_shared_hits", 0)
        self.n_memo_shared_errors += getattr(result, "memo_shared_errors", 0)
        self.n_memo_evictions += getattr(result, "memo_evictions", 0)
        self.n_unique_outcomes += getattr(result, "n_unique_outcomes", 0)
        self.n_outcome_hits += getattr(result, "outcome_hits", 0)
        self.n_outcome_misses += getattr(result, "outcome_misses", 0)
        for reason, n in getattr(result, "memo_miss_reasons", {}).items():
            self.memo_miss_reasons[reason] = (
                self.memo_miss_reasons.get(reason, 0) + n
            )
        self._fold_mech(
            getattr(result, "crash_plans", "subset"),
            getattr(result, "mech_recognized", {}),
            getattr(result, "mech_plans_emitted", 0),
            getattr(result, "mech_fallback_epochs", 0),
        )
        self.wall_time += result.elapsed
        if getattr(result, "truncated", False):
            self.n_truncated += 1
        for stage, dt in getattr(result, "stage_times", {}).items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + dt
        for report in result.reports:
            name = report.consequence.name
            self.outcome_counts[name] = self.outcome_counts.get(name, 0) + 1
        self._merge_inflight(self.fs_name, result.inflight)
        new = self._triage.add_new(result.reports)
        base = len(self._triage.clusters) - len(new)
        for offset, cluster in enumerate(new):
            self._record_cluster(base + offset, self.n_workloads, self.wall_time,
                                 cluster.exemplar.consequence.name)

    def _record_cluster(self, cluster: int, workload: int, t: float,
                        consequence: str) -> None:
        self.time_to_bug.append(TimeToBug(cluster, workload, t, consequence))
        if self.telemetry is not None:
            self.telemetry.event(
                "cluster_found", cluster=cluster, workload=workload,
                t=t, consequence=consequence,
            )

    def _fold_mech(
        self,
        crash_plans: str,
        recognized: Dict[str, int],
        plans_emitted: int,
        fallback_epochs: int,
    ) -> None:
        if self.crash_plans == "?":
            self.crash_plans = crash_plans
        elif self.crash_plans != crash_plans:
            self.crash_plans = "mixed"
        for kind, n in dict(recognized).items():
            self.mech_recognized[str(kind)] = (
                self.mech_recognized.get(str(kind), 0) + int(n)
            )
        self.n_mech_plans_emitted += int(plans_emitted)
        self.n_mech_fallback_epochs += int(fallback_epochs)

    def _merge_inflight(self, fs: str, per_syscall: Dict[str, List[int]]) -> None:
        if not per_syscall:
            return
        bucket = self.inflight.setdefault(fs, {})
        for syscall, counts in per_syscall.items():
            bucket.setdefault(syscall, []).extend(counts)

    @property
    def clusters(self):
        return self._triage.clusters

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of generated crash states skipped as duplicates."""
        if not self.n_crash_states:
            return 0.0
        return 1.0 - self.n_unique_states / self.n_crash_states

    @property
    def states_per_second(self) -> float:
        return self.n_crash_states / self.wall_time if self.wall_time else 0.0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of crash states the check memo skipped."""
        total = self.n_memo_hits + self.n_memo_misses
        return self.n_memo_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Offline ingestion
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, path: str) -> "CampaignStats":
        """Rebuild campaign aggregates from a ``--trace`` JSONL file."""
        return cls.from_traces([path])

    @classmethod
    def from_traces(cls, paths: Sequence[str]) -> "CampaignStats":
        """Rebuild aggregates from one or more JSONL traces, merged.

        Multiple traces arise from parallel campaigns — one file per
        worker (``python -m repro stats DIR/worker-*.trace.jsonl``).
        Counters and histograms add; ``cluster_found`` events carry
        per-trace cluster numbering (each worker triages its own universe),
        so the merged time-to-bug series is re-numbered in discovery-time
        order.  Note this series counts *per-worker* discoveries: the
        cross-worker dedup of the final bug set happens in the campaign
        merge stage, not here.
        """
        stats = cls()
        for path in paths:
            for rec in read_jsonl(path):
                kind = rec.get("type")
                if kind == "meta":
                    stats.meta.update(
                        {k: v for k, v in rec.items() if k != "type"}
                    )
                    stats.fs_name = str(stats.meta.get("fs", stats.fs_name))
                    stats.generator = str(
                        stats.meta.get("generator", stats.generator)
                    )
                elif kind == "event" and rec.get("name") == "workload_result":
                    stats._fold_workload_event(rec.get("fields", {}))
                elif kind == "event" and rec.get("name") == "cluster_found":
                    f = rec.get("fields", {})
                    stats.time_to_bug.append(TimeToBug(
                        cluster=int(f.get("cluster", len(stats.time_to_bug))),
                        workload=int(f.get("workload", 0)),
                        t=float(f.get("t", 0.0)),
                        consequence=str(f.get("consequence", "?")),
                    ))
        stats.time_to_bug.sort(key=lambda e: (e.t, e.workload, e.cluster))
        if len(paths) > 1:
            stats.time_to_bug = [
                TimeToBug(i, e.workload, e.t, e.consequence)
                for i, e in enumerate(stats.time_to_bug)
            ]
        return stats

    def _fold_workload_event(self, fields: Dict[str, object]) -> None:
        self.n_workloads += 1
        self.n_crash_states += int(fields.get("n_crash_states", 0))
        self.n_unique_states += int(fields.get("n_unique_states", 0))
        self.n_fences += int(fields.get("n_fences", 0))
        self.n_reports += int(fields.get("n_reports", 0))
        self.n_memo_hits += int(fields.get("memo_hits", 0))
        self.n_memo_misses += int(fields.get("memo_misses", 0))
        self.n_memo_noop_dropped += int(fields.get("memo_noop_dropped", 0))
        self.n_memo_shared_hits += int(fields.get("memo_shared_hits", 0))
        self.n_memo_shared_errors += int(fields.get("memo_shared_errors", 0))
        self.n_memo_evictions += int(fields.get("memo_evictions", 0))
        self.n_unique_outcomes += int(fields.get("n_unique_outcomes", 0))
        self.n_outcome_hits += int(fields.get("outcome_hits", 0))
        self.n_outcome_misses += int(fields.get("outcome_misses", 0))
        for reason, n in dict(fields.get("memo_miss_reasons", {})).items():
            self.memo_miss_reasons[str(reason)] = (
                self.memo_miss_reasons.get(str(reason), 0) + int(n)
            )
        self._fold_mech(
            str(fields.get("crash_plans", "subset")),
            dict(fields.get("mech_recognized", {})),
            int(fields.get("mech_plans_emitted", 0)),
            int(fields.get("mech_fallback_epochs", 0)),
        )
        self.wall_time += float(fields.get("elapsed", 0.0))
        if fields.get("truncated"):
            self.n_truncated += 1
        for stage, dt in dict(fields.get("stages", {})).items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + float(dt)
        for outcome, n in dict(fields.get("outcomes", {})).items():
            self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + int(n)
        fs = str(fields.get("fs", self.fs_name))
        if self.fs_name == "?":
            self.fs_name = fs
        self._merge_inflight(fs, {
            str(k): [int(c) for c in v]
            for k, v in dict(fields.get("inflight", {})).items()
        })

    # ------------------------------------------------------------------
    # Machine-readable export (``python -m repro stats --json``)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """The aggregates as one JSON-serializable document.

        Keys mirror the :meth:`render` tables so dashboards and scripts
        consume the same quantities the text summary shows.
        """
        return {
            "fs": self.fs_name,
            "generator": self.generator,
            "meta": {k: v for k, v in self.meta.items()
                     if k not in ("fs", "generator")},
            "workloads": self.n_workloads,
            "truncated_workloads": self.n_truncated,
            "crash_states": self.n_crash_states,
            "unique_states": self.n_unique_states,
            "dedup_hit_rate": self.dedup_hit_rate,
            "memo_hits": self.n_memo_hits,
            "memo_misses": self.n_memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_miss_reasons": dict(self.memo_miss_reasons),
            "memo_noop_writes_dropped": self.n_memo_noop_dropped,
            "memo_shared_hits": self.n_memo_shared_hits,
            "memo_shared_errors": self.n_memo_shared_errors,
            "memo_evictions": self.n_memo_evictions,
            "crash_plans": self.crash_plans,
            "mech_recognized": dict(self.mech_recognized),
            "mech_plans_emitted": self.n_mech_plans_emitted,
            "mech_fallback_epochs": self.n_mech_fallback_epochs,
            "unique_outcomes": self.n_unique_outcomes,
            "outcome_hits": self.n_outcome_hits,
            "outcome_misses": self.n_outcome_misses,
            "fences": self.n_fences,
            "reports": self.n_reports,
            "wall_time": self.wall_time,
            "states_per_second": self.states_per_second,
            "stage_totals": dict(self.stage_totals),
            "outcome_counts": dict(self.outcome_counts),
            "time_to_bug": [
                {
                    "cluster": e.cluster,
                    "workload": e.workload,
                    "t": e.t,
                    "consequence": e.consequence,
                }
                for e in self.time_to_bug
            ],
            "inflight": {
                fs: {syscall: list(counts) for syscall, counts in per.items()}
                for fs, per in self.inflight.items()
            },
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Multi-table text summary (the ``python -m repro stats`` output)."""
        lines: List[str] = []
        head = f"Campaign: {self.fs_name} ({self.generator})"
        extras = {k: v for k, v in self.meta.items()
                  if k not in ("fs", "generator")}
        if extras:
            head += "  [" + ", ".join(f"{k}={v}" for k, v in sorted(extras.items())) + "]"
        lines.append(head)
        trunc = f" ({self.n_truncated} truncated)" if self.n_truncated else ""
        lines.append(
            f"workloads: {self.n_workloads}{trunc}   crash states: "
            f"{self.n_crash_states} generated, {self.n_unique_states} unique "
            f"(dedup hit-rate {self.dedup_hit_rate * 100:.1f}%)"
        )
        lines.append(
            f"wall time: {self.wall_time:.2f}s   throughput: "
            f"{self.states_per_second:.1f} crash states/sec   "
            f"fences: {self.n_fences}   reports: {self.n_reports}"
        )
        if self.n_memo_hits or self.n_memo_misses:
            line = (
                f"check memo (checker.memo.*): {self.n_memo_hits} hit(s), "
                f"{self.n_memo_misses} miss(es) "
                f"(hit-rate {self.memo_hit_rate * 100:.1f}%)"
            )
            if self.n_memo_shared_hits:
                line += f"; {self.n_memo_shared_hits} served by the shared service"
            if self.n_memo_noop_dropped:
                line += f"; {self.n_memo_noop_dropped} no-op write(s) dropped"
            lines.append(line)
            if self.n_memo_evictions or self.n_memo_shared_errors:
                lines.append(
                    f"memo pressure: {self.n_memo_evictions} clean "
                    f"eviction(s), {self.n_memo_shared_errors} shared-service "
                    f"error(s) degraded to local misses"
                )
        if self.memo_miss_reasons:
            ordered = sorted(
                self.memo_miss_reasons.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append(
                "memo misses by reason: "
                + ", ".join(f"{reason} {n}" for reason, n in ordered)
            )
        if self.n_unique_outcomes and self.n_memo_misses:
            lines.append(
                f"recovered outcomes: {self.n_unique_outcomes} distinct of "
                f"{self.n_memo_misses} checked (equivalence-pruning headroom "
                f"{(1 - self.n_unique_outcomes / self.n_memo_misses) * 100:.1f}%)"
            )
        if self.n_outcome_hits or self.n_outcome_misses:
            keyed = self.n_outcome_hits + self.n_outcome_misses
            lines.append(
                f"outcome cache (checker.outcome_cache.*): "
                f"{self.n_outcome_hits} hit(s), {self.n_outcome_misses} "
                f"miss(es) (walk + usability skipped on "
                f"{self.n_outcome_hits / keyed * 100:.1f}% of mounted states)"
            )
        if self.mech_recognized:
            ordered = sorted(
                self.mech_recognized.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append(
                f"mechanism recognition (--crash-plans {self.crash_plans}): "
                + ", ".join(f"{kind} {n}" for kind, n in ordered)
            )
            lines.append(
                f"mech plans: {self.n_mech_plans_emitted} targeted state(s) "
                f"emitted, {self.n_mech_fallback_epochs} epoch(s) fell back "
                f"to subset enumeration"
            )
        lines.append("")
        lines.append("Per-stage timings")
        total = sum(self.stage_totals.values()) or 1.0
        stage_rows = []
        for stage in STAGES:
            if stage in self.stage_totals:
                dt = self.stage_totals[stage]
                stage_rows.append((stage, f"{dt * 1000:.1f}", f"{dt / total * 100:.1f}%"))
        for stage in sorted(set(self.stage_totals) - set(STAGES)):
            dt = self.stage_totals[stage]
            stage_rows.append((stage, f"{dt * 1000:.1f}", f"{dt / total * 100:.1f}%"))
        lines.extend(_table(("stage", "total (ms)", "share"), stage_rows))
        lines.append("")
        lines.append("Checker outcomes")
        outcome_rows = [(k, v) for k, v in
                        sorted(self.outcome_counts.items(), key=lambda kv: -kv[1])]
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
