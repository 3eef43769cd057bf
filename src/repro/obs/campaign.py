"""Campaign-level aggregation of per-workload results: the one fold.

A workload result has one schema — the fields of
:class:`~repro.core.harness.TestResult` — and three carriers: the object
itself (in-process), its wire dict (worker → parent, checkpoint journal),
and the ``workload_result`` trace event (``--trace``), which is the wire
dict minus ``reports`` plus ``fs``, ``n_reports``, ``n_clusters`` and
``outcomes``.  :func:`fold` adds any of the three into a totals dict keyed
by those same field names, with no per-counter code: a counter declared on
``TestResult`` reaches ``repro stats``, ``coverage``, ``watch``, ``diff``
and report.md without another edit.

:class:`ResultFold` is the shared base of the campaign aggregates
(:class:`~repro.analysis.reporting.CampaignSummary`, the one campaign
summary, and :class:`~repro.obs.coverage.CoverageReport`): workload count,
totals, per-FS in-flight histograms, and the trace reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.obs.tracing import read_jsonl


def fold(totals: Dict[str, object], fields: Mapping[str, object]) -> None:
    """Add one result's fields into ``totals``.

    Numbers and bools add (a bool counts the workloads where it held) and
    dicts merge recursively; lists and strings are left to the caller.
    """
    for key, value in fields.items():
        if isinstance(value, (int, float)):
            totals[key] = totals.get(key, 0) + value
        elif isinstance(value, dict):
            fold(totals.setdefault(key, {}), value)


def folded(key: str, default=0) -> property:
    """A read-only attribute view of one folded ``TestResult`` field."""
    return property(lambda self: self.totals.get(key, default))


@dataclass(frozen=True)
class TimeToBug:
    """One point of the cumulative time-to-bug series."""

    cluster: int
    workload: int
    t: float
    consequence: str


@dataclass
class ResultFold:
    """Workload results of one campaign, folded by :func:`fold`."""

    fs_name: str = "?"
    generator: str = "?"
    meta: Dict[str, object] = field(default_factory=dict)
    workloads_tested: int = 0
    #: ``TestResult`` field name -> campaign total (see :func:`fold`).
    totals: Dict[str, object] = field(default_factory=dict)
    #: fs name -> syscall name -> in-flight unit counts at each fence.
    inflight: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)

    crash_states = folded("n_crash_states")
    unique_states = folded("n_unique_states")
    wall_time = folded("elapsed", 0.0)
    truncated_workloads = folded("truncated")
    memo_hits = folded("memo_hits")
    memo_misses = folded("memo_misses")
    memo_shared_hits = folded("memo_shared_hits")

    def total(self, key: str, default=0):
        return self.totals.get(key, default)

    def add_fields(self, fields: Mapping[str, object]) -> None:
        """Fold one result: a wire dict, a trace event, or ``vars(result)``."""
        self.workloads_tested += 1
        fold(self.totals, fields)
        reports = fields.get("reports")
        if reports is not None:
            self.totals["n_reports"] = self.total("n_reports") + len(reports)
        fs = str(fields.get("fs", self.fs_name))
        if self.fs_name == "?":
            self.fs_name = fs
        per_syscall = fields.get("inflight")
        if per_syscall:
            bucket = self.inflight.setdefault(fs, {})
            for syscall, counts in per_syscall.items():
                bucket.setdefault(syscall, []).extend(counts)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of generated crash states skipped as duplicates."""
        if not self.crash_states:
            return 0.0
        return 1.0 - self.unique_states / self.crash_states

    @property
    def states_per_second(self) -> float:
        return self.crash_states / self.wall_time if self.wall_time else 0.0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of crash states the check memo skipped."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def counter_lines(self) -> List[Tuple[str, str]]:
        """``(label, text)`` for each skip/exploration counter with data —
        the lines ``repro stats``, ``repro watch`` and report.md's
        Telemetry section share."""
        t = self.total
        out: List[Tuple[str, str]] = []
        if self.memo_hits or self.memo_misses:
            text = (f"{self.memo_hits} hit(s), {self.memo_misses} miss(es) "
                    f"(hit-rate {self.memo_hit_rate * 100:.1f}%)")
            if self.memo_shared_hits:
                text += f"; {self.memo_shared_hits} served by the shared service"
            if t("memo_shared_errors"):
                text += (f"; {t('memo_shared_errors')} shared-service "
                         f"error(s) degraded to local misses")
            out.append(("check memo (memo_hits/memo_misses)", text))
        unique_outcomes = t("n_unique_outcomes")
        if unique_outcomes and self.memo_misses:
            out.append(("recovered outcomes", (
                f"{unique_outcomes} distinct of {self.memo_misses} checked "
                f"(equivalence-pruning headroom "
                f"{(1 - unique_outcomes / self.memo_misses) * 100:.1f}%)")))
        hits, misses = t("recovery_hits"), t("recovery_misses")
        if hits or misses:
            out.append(("recovery memo", (
                f"{hits} hit(s), {misses} miss(es) (mount, walk + usability "
                f"skipped on {hits / (hits + misses) * 100:.1f}% of checked "
                f"states; recovery_hits/recovery_misses)"
                + (f"; {t('recovery_resets')} trie reset(s) at the node "
                   f"budget" if t("recovery_resets") else ""))))
        hits, misses = t("outcome_hits"), t("outcome_misses")
        if hits or misses:
            out.append(("outcome cache", (
                f"{hits} hit(s), {misses} miss(es) (walk + usability skipped "
                f"on {hits / (hits + misses) * 100:.1f}% of mounted states; "
                f"outcome_hits/outcome_misses)")))
        return out

    # ------------------------------------------------------------------
    # Offline ingestion
    # ------------------------------------------------------------------
    @classmethod
    def from_traces(cls, paths: Sequence[str]):
        """Rebuild the aggregate from one or more ``--trace`` JSONL files.

        Multiple traces arise from parallel campaigns — one file per
        worker — and fold as one campaign.  Each writer's ring buffer drops
        its own oldest records, so ``meta["dropped_records"]`` is the sum
        over every meta record read (see :attr:`dropped_records`).
        """
        agg = cls()
        dropped = 0
        for path in paths:
            for rec in read_jsonl(path):
                kind = rec.get("type")
                if kind == "meta":
                    agg.meta.update({k: v for k, v in rec.items() if k != "type"})
                    agg.fs_name = str(agg.meta.get("fs", agg.fs_name))
                    agg.generator = str(agg.meta.get("generator", agg.generator))
                    dropped += int(rec.get("dropped_records", 0))
                elif kind == "event":
                    agg.add_event(str(rec.get("name")), rec.get("fields", {}))
        if dropped:
            agg.meta["dropped_records"] = dropped
        return agg

    @property
    def dropped_records(self) -> int:
        """Trace records lost to full ring buffers: the folded totals miss
        every ``workload_result`` event among them."""
        return int(self.meta.get("dropped_records", 0))

    def add_event(self, name: str, fields: Dict[str, object]) -> None:
        if name != "workload_result":
            return
        if "stages" in fields:
            # Traces written before the event carried the wire dict.
            fields = dict(fields)
            fields["stage_times"] = fields.pop("stages")
        self.add_fields(fields)
