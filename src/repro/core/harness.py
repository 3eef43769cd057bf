"""Chipmunk orchestration: record → replay → check (paper Figure 2).

:class:`Chipmunk` runs one workload against one file system: it formats a
device, attaches probes to the file system's persistence functions, executes
the workload while recording the write log and observing the tree around
every syscall (the oracle), enumerates crash states, checks each, and
triages the findings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Type, Union

from repro.config import ChipmunkConfig
from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.oracle import OracleResult, TreeState
# The pipeline no longer calls the reference two-instance oracle, but the
# e2e layer tracer (benchmarks/e2e/spans.py) resolves it by this module.
from repro.core.oracle import run_oracle  # noqa: F401
from repro.core.outcome_cache import OutcomeCache
from repro.core.recovery_memo import RecoveryMemo
from repro.core.probes import ProbeSet, probe_targets_of
from repro.core.replayer import (
    ReplayStats,
    enumerate_crash_states,
    inflight_histogram,
    persistence_breakdown,
    store_region_counts,
)
from repro.core.report import BugReport
from repro.core.triage import Cluster, layout_map_for, triage_reports
from repro.fs.bugs import BugConfig
from repro.fs.registry import fs_class as lookup_fs_class
from repro.obs import NULL
from repro.obs import profile as _profile
from repro.pm.device import PMDevice
from repro.pm.log import PMLog
from repro.vfs.interface import FileSystem
from repro.workloads.ops import Op, Workload, describe_workload, execute_op


#: Stop checking a workload after this many reports (the triage layer
#: dedups anyway; this bounds worst-case work on very buggy states).
MAX_REPORTS_PER_WORKLOAD = 64


#: Pipeline stage keys of :attr:`TestResult.stage_times`, in execution order.
#: ``analyze`` is the post-check analytics pass (persistence breakdowns, and
#: recovery-read overlap for one workload in sixteen) feeding
#: ``repro coverage``.
STAGES = ("record", "oracle", "enumerate", "check", "triage", "analyze")

#: Value of :attr:`TestResult.image_backend`.  There is one crash-image
#: data plane (:mod:`repro.pm.image`); the field keeps the name older
#: journals and host fingerprints carry.
IMAGE_BACKEND = "python"

#: Cache-line granularity of the recovery-read overlap estimate, matching
#: :func:`repro.core.recovery_reads.recovery_read_set`.
RECOVERY_LINE = 64

#: One workload in this many gets the recovery-read overlap estimate, which
#: costs a second mount of its final image (see :func:`recovery_sampled`).
RECOVERY_SAMPLE = 16


def recovery_sampled(desc: str) -> bool:
    """Whether the workload described by ``desc`` measures recovery-read
    overlap.

    A ``blake2b`` digest, not the per-process salted ``hash()``: the
    choice is a pure function of the workload, the same with one worker or
    many, on resume, and under ``repro ace`` or ``repro campaign``.
    """
    digest = hashlib.blake2b(desc.encode(), digest_size=8).digest()
    return digest[0] % RECOVERY_SAMPLE == 0


@dataclass
class TestResult:
    """Outcome of testing one workload.

    The fields are the one schema of a workload result: :meth:`to_dict`,
    :meth:`from_dict`, the ``workload_result`` trace event and the campaign
    fold (:func:`repro.obs.campaign.fold`) all derive from them, so a new
    counter is declared here and nowhere else.
    """

    workload_desc: str
    reports: List[BugReport] = field(default_factory=list)
    clusters: List[Cluster] = field(default_factory=list)
    n_crash_states: int = 0
    n_unique_states: int = 0
    n_fences: int = 0
    log_length: int = 0
    inflight: Dict[str, List[int]] = field(default_factory=dict)
    #: Total pipeline time; always the sum of :attr:`stage_times`.
    elapsed: float = 0.0
    errnos: List[Optional[str]] = field(default_factory=list)
    #: Per-stage wall time (keys from :data:`STAGES`): the pipeline's stage
    #: clock (:class:`repro.obs.profile.StageClock`) minus its ``other``
    #: bucket.  The trace's stage spans are written from the same clock.
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: True when checking stopped early at :data:`MAX_REPORTS_PER_WORKLOAD` —
    #: a capped campaign is not a clean one.
    truncated: bool = False
    #: Check-memo traffic: states skipped because a byte-identical image
    #: was already checked / states checked.
    memo_hits: int = 0
    memo_misses: int = 0
    #: Hits served by the campaign-wide shared memo service; also counted
    #: in :attr:`memo_hits`.
    memo_shared_hits: int = 0
    #: Shared-service calls that failed and degraded to local misses.
    memo_shared_errors: int = 0
    #: Distinct recovered observable outcomes among the checked states —
    #: the numerator of the output-equivalence pruning headroom.
    n_unique_outcomes: int = 0
    #: Recovered-outcome cache traffic: mounted states whose post-mount
    #: image was already walked and found usable (walk + usability skipped)
    #: / that ran both in full.
    outcome_hits: int = 0
    outcome_misses: int = 0
    #: Read-trace recovery memo traffic: checked states whose recovery
    #: reads matched a recorded one (mount, walk and usability skipped) /
    #: that missed and ran.
    recovery_hits: int = 0
    recovery_misses: int = 0
    #: Times the recovery memo's trie hit its node budget and was cleared
    #: — each one discards a warm trie.
    recovery_resets: int = 0
    #: Persistence-function mix: func -> {stores, flushes, fences, bytes}.
    persistence: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Write traffic per layout region: region -> {writes, bytes}.
    store_regions: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Recovery-read overlap on the final persistent image
    #: ({read_lines, store_lines, overlap_lines}, 64-byte cache lines, plus
    #: ``sampled: 1``), measured on one workload in sixteen
    #: (:func:`recovery_sampled`); empty on the rest.
    recovery_overlap: Dict[str, int] = field(default_factory=dict)
    #: Hot-path profile (:meth:`repro.obs.profile.Profiler.to_dict`):
    #: ``stages``, per-stage seconds (:attr:`stage_times` plus ``other``),
    #: and ``sites``, ``[stage, site, calls, self seconds]`` rows.
    #: Empty unless the workload ran with ``ChipmunkConfig.profile``.
    profile: Dict[str, object] = field(default_factory=dict)
    @property
    def image_backend(self) -> str:
        """Crash-image data plane the workload ran under (always the one)."""
        return IMAGE_BACKEND

    @property
    def buggy(self) -> bool:
        return bool(self.reports)

    def summary(self) -> str:
        head = (
            f"workload [{self.workload_desc}]: {len(self.reports)} report(s) in "
            f"{len(self.clusters)} cluster(s), {self.n_unique_states} unique of "
            f"{self.n_crash_states} crash states, {self.n_fences} fences, "
            f"{self.elapsed * 1000:.1f} ms"
        )
        if self.truncated:
            head += " [TRUNCATED at report cap]"
        if self.stage_times:
            head += "\n  stages: " + "  ".join(
                f"{stage} {self.stage_times[stage] * 1000:.1f}ms"
                for stage in STAGES
                if stage in self.stage_times
            )
        if not self.clusters:
            return head
        return head + "\n" + "\n".join(
            "  - " + c.exemplar.consequence.value + ": " + c.exemplar.detail[:120]
            for c in self.clusters
        )

    # ------------------------------------------------------------------
    # JSON round-trip.  The dataclass fields are the one schema of a
    # workload result: campaign workers return results to the parent as
    # this dict, the checkpoint journal persists it across kills, and the
    # ``workload_result`` trace event is the same dict minus ``reports``.
    # Clusters are not serialized — they are a pure function of the reports
    # and are re-derived on load, which keeps the journal compact.
    # ------------------------------------------------------------------
    def to_dict(self, reports: bool = True) -> Dict[str, object]:
        data = {name: getattr(self, name) for name in _WIRE_FIELDS}
        data["image_backend"] = IMAGE_BACKEND
        if reports:
            data["reports"] = [r.to_dict() for r in self.reports]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TestResult":
        """Inverse of :meth:`to_dict`: unknown keys are ignored and missing
        keys take their defaults, so older journals still load.

        A campaign journal's compact report entries (a triage ``key``
        without the report's fields) do not load: fold those through
        :meth:`repro.analysis.reporting.CampaignSummary.add_dict`.
        """
        entries = data.get("reports", ())
        if any("fs_name" not in entry for entry in entries):
            raise ValueError(
                "result holds compact campaign report entries (a triage key "
                "without the report); fold it with CampaignSummary.add_dict"
            )
        reports = [BugReport.from_dict(r) for r in entries]
        return cls(
            reports=reports,
            clusters=triage_reports(reports),
            **{name: data[name] for name in _WIRE_FIELDS if name in data},
        )


#: Serialized :class:`TestResult` fields: all but the report objects.
_WIRE_FIELDS = tuple(
    f.name for f in fields(TestResult) if f.name not in ("reports", "clusters")
)


class Chipmunk:
    """Crash-consistency tester for one file system configuration."""

    def __init__(
        self,
        fs: Union[str, Type[FileSystem]],
        bugs: Optional[BugConfig] = None,
        config: Optional[ChipmunkConfig] = None,
        telemetry=None,
        shared_memo=None,
    ) -> None:
        self.fs_class = lookup_fs_class(fs) if isinstance(fs, str) else fs
        self.bugs = bugs if bugs is not None else BugConfig.buggy(self.fs_class.name)
        self.config = config or ChipmunkConfig()
        #: Telemetry sink (:class:`repro.obs.Telemetry`); defaults to the
        #: null object, which keeps the pipeline uninstrumented.
        self.telemetry = telemetry if telemetry is not None else NULL
        #: Campaign-wide shared memo backend (the campaign worker's
        #: ``MemoClient`` or anything compatible); every
        #: workload's :class:`CheckMemo` consults it for cross-workload
        #: clean-verdict dedup.  None runs local-only.
        self.shared_memo = shared_memo
        #: Recovered-outcome cache handed to every workload's checker, so
        #: a post-mount image judged in one workload is not walked and
        #: probed again in the next.  Always on; ``None`` detaches it (the
        #: equivalence tests' control side).
        self.outcome_cache: Optional[OutcomeCache] = OutcomeCache()
        #: Read-trace recovery memo handed to every workload's checker:
        #: a state whose recovery would read only bytes already seen with
        #: the same values is not mounted again.  Always on; ``None``
        #: detaches it, like :attr:`outcome_cache`.
        self.recovery_memo: Optional[RecoveryMemo] = RecoveryMemo()

    # ------------------------------------------------------------------
    def record(self, workload: Workload, setup: Workload = (), coverage=None) -> tuple:
        """Run the workload with probes attached; return (base, log, oracle).

        ``setup`` operations run before recording starts (the ACE dependency
        phase — crash states are only explored for the core workload, as in
        CrashMonkey/ACE).  ``coverage`` optionally attaches a
        :class:`~repro.workloads.coverage.CoverageMap` to the instance.

        The :class:`~repro.core.oracle.OracleResult` comes from this same
        run: the tree is walked before each syscall and after the last one,
        and ``oracle.errnos`` are the syscall results.  A walk only reads,
        so ``log`` is what an unobserved run records; a walk that appends
        to the log raises ``RuntimeError``.  Inside a pipeline the walks are
        charged to the stage clock's ``oracle`` stage.
        """
        tel = self.telemetry
        device = PMDevice(self.config.device_size)
        fs = self.fs_class.mkfs(device, bugs=self.bugs)
        for op in setup:
            execute_op(fs, op)
        if coverage is not None:
            fs.coverage = coverage
        base = device.snapshot()
        log = PMLog()
        probes = ProbeSet(log)
        probes.attach(probe_targets_of(fs))
        oracle = OracleResult(workload=list(workload))
        states, errnos = oracle.states, oracle.errnos
        try:
            for index, op in enumerate(workload):
                states.append(self._observe(fs, log))
                log.syscall_begin(index, op.name, ", ".join(map(repr, op.args)))
                if tel.enabled:
                    with tel.span("syscall", index=index, op=op.name):
                        errnos.append(execute_op(fs, op))
                else:
                    errnos.append(execute_op(fs, op))
                log.syscall_end()
            states.append(self._observe(fs, log))
        finally:
            probes.detach()
        return base, log, oracle

    def _observe(self, fs: FileSystem, log: PMLog) -> TreeState:
        """Walk the recording instance for the oracle, off the record clock."""
        clock = _profile.CLOCK
        if clock is not None:
            outer = clock.stage
            clock.set_stage("oracle")
        logged = len(log)
        tree = fs.walk()
        if clock is not None:
            clock.set_stage(outer)
        if len(log) != logged:
            raise RuntimeError(
                f"{self.fs_class.name}: an oracle walk appended "
                f"{len(log) - logged} entries to the write log"
            )
        return tree

    def test_workload(
        self, workload: Workload, setup: Workload = (), coverage=None
    ) -> TestResult:
        """Full pipeline for one workload.

        One stage clock (:class:`repro.obs.profile.StageClock`) times every
        stage: ``record``, ``oracle`` (the observation walks :meth:`record`
        makes between syscalls), ``enumerate``, ``check``, ``triage`` and
        ``analyze``.  :attr:`TestResult.stage_times` is its stages and
        ``elapsed`` their sum.  Enumeration and checking interleave (crash
        states are generated lazily), so the clock switches at crash-state
        boundaries — each ``next()`` on the generator is enumeration,
        everything after it is checking.  With telemetry on, the clock also
        writes one ``record``, ``oracle``, ``triage`` and ``analyze`` span
        each, carrying the workload description; ``syscall`` and ``oracle``
        spans nest in ``record``.

        With ``config.profile`` the clock is a hot-path profiler
        (:mod:`repro.obs.profile`), so the profile's stages are the same
        numbers plus the ``other`` bucket for setup between stages.
        """
        workload = list(workload)
        desc = describe_workload(workload)
        tracer = self.telemetry.tracer
        clock = (_profile.Profiler(tracer, desc) if self.config.profile
                 else _profile.StageClock(tracer, desc))
        with _profile.install(clock):
            return self._run_pipeline(workload, desc, setup, coverage, clock)

    def _run_pipeline(
        self, workload: Workload, desc: str, setup: Workload, coverage, clock
    ) -> TestResult:
        tel = self.telemetry
        clock.set_stage("record")
        base, log, oracle = self.record(workload, setup=setup, coverage=coverage)
        # Pipeline setup (checker, forensics recorder) belongs to no stage.
        clock.set_stage("other")
        crash_points = self.config.crash_points or (
            "fence" if self.fs_class.strong_guarantees else "fsync"
        )
        recorder = None
        if self.config.forensics:
            from repro.forensics.provenance import ProvenanceRecorder

            recorder = ProvenanceRecorder(
                log,
                fs_name=self.fs_class.name,
                workload=workload,
                setup=list(setup),
                bug_ids=sorted(self.bugs.enabled),
                config=replace(self.config, crash_points=crash_points),
            )
        checker = ConsistencyChecker(
            self.fs_class,
            oracle,
            desc,
            bugs=self.bugs,
            provenance=recorder,
            outcome_cache=self.outcome_cache,
            recovery_memo=self.recovery_memo,
        )
        stats = ReplayStats()
        # The memo is the single entry point for checking: dedup by
        # canonical content key, the ``check_state`` telemetry span, and
        # the checker call all live behind it.
        memo = CheckMemo(checker, telemetry=tel, shared=self.shared_memo)
        reports: List[BugReport] = []
        n_states = 0
        truncated = False
        states = enumerate_crash_states(
            base,
            log,
            cap=self.config.cap,
            coalesce_threshold=self.config.coalesce_threshold,
            crash_points=crash_points,
            stats=stats,
        )
        clock.set_stage("enumerate")
        while True:
            state = next(states, None)
            if state is None:
                break
            clock.set_stage("check")
            n_states += 1
            # None on a memo hit: a byte-identical state was already checked.
            found = memo.check(state)
            if found:
                reports.extend(found)
            clock.set_stage("enumerate")
            if len(reports) >= MAX_REPORTS_PER_WORKLOAD:
                truncated = True
                break
        clock.set_stage("triage")
        clusters = triage_reports(reports)
        clock.set_stage("analyze")
        inflight = inflight_histogram(log, self.config.coalesce_threshold)
        persistence = persistence_breakdown(log)
        try:
            layout = layout_map_for(self.fs_class.name, self.config.device_size)
            store_regions = store_region_counts(log, layout)
        except Exception:  # noqa: BLE001 — analytics never sink a run
            store_regions = {}
        recovery_overlap = self._recovery_overlap(base, log, desc)
        clock.stop()
        stage_times = clock.stage_times()
        result = TestResult(
            workload_desc=desc,
            reports=reports,
            clusters=clusters,
            n_crash_states=n_states,
            n_unique_states=memo.checked,
            n_fences=stats.n_fences,
            log_length=len(log),
            inflight=inflight,
            elapsed=sum(stage_times.values()),
            errnos=oracle.errnos,
            stage_times=stage_times,
            truncated=truncated,
            memo_hits=memo.hits,
            memo_misses=memo.misses,
            memo_shared_hits=memo.shared_hits,
            memo_shared_errors=memo.shared_errors,
            n_unique_outcomes=len(checker.outcome_digests),
            outcome_hits=checker.outcome_hits,
            outcome_misses=checker.outcome_misses,
            recovery_hits=checker.recovery_hits,
            recovery_misses=checker.recovery_misses,
            recovery_resets=checker.recovery_resets,
            persistence=persistence,
            store_regions=store_regions,
            recovery_overlap=recovery_overlap,
            profile=clock.to_dict() if self.config.profile else {},
        )
        if tel.enabled:
            self._emit_result(tel, result)
        return result

    def _recovery_overlap(
        self, base: bytes, log: PMLog, desc: str
    ) -> Dict[str, int]:
        """Recovery-read overlap with the workload's write set, on the
        sampled workloads (:func:`recovery_sampled`); ``{}`` on the rest.

        Mounts the final persistent image under the device's read trace
        (:func:`repro.core.recovery_reads.recovery_read_set` with
        ``writes=``) and intersects the cache lines recovery reads with the
        lines the workload stored.
        A large never-read remainder is the Vinter-heuristic redundancy the
        coverage report surfaces: in-flight writes recovery does not even
        look at rarely change a verdict.
        """
        if not recovery_sampled(desc):
            return {}
        from repro.core.recovery_reads import recovery_read_set

        store_lines: set = set()
        overlay = []
        for entry in log.writes():
            data = entry.data
            overlay.append((entry.addr, data))
            first = entry.addr // RECOVERY_LINE
            last = (entry.addr + max(len(data), 1) - 1) // RECOVERY_LINE
            store_lines.update(range(first, last + 1))
        read_lines = recovery_read_set(
            self.fs_class, base, bugs=self.bugs,
            granularity=RECOVERY_LINE, writes=overlay,
        )
        return {
            "read_lines": len(read_lines),
            "store_lines": len(store_lines),
            "overlap_lines": len(read_lines & store_lines),
            "sampled": 1,
        }

    def _emit_result(self, tel, result: TestResult) -> None:
        """The ``workload_result`` trace event that
        :meth:`repro.analysis.reporting.CampaignSummary.from_traces` folds
        back: the wire dict minus ``reports``, plus the per-report tallies."""
        outcomes: Dict[str, int] = {}
        for report in result.reports:
            name = report.consequence.name
            outcomes[name] = outcomes.get(name, 0) + 1
        tel.event(
            "workload_result",
            fs=self.fs_class.name,
            n_reports=len(result.reports),
            n_clusters=len(result.clusters),
            outcomes=outcomes,
            **result.to_dict(reports=False),
        )

    # ------------------------------------------------------------------
    def test_many(self, workloads: List[Workload], stop_after: Optional[int] = None):
        """Test a batch of workloads, yielding (workload, TestResult).

        ``stop_after`` stops the campaign once that many buggy workloads
        have been seen (useful for time-to-first-bug measurements).
        """
        buggy = 0
        for workload in workloads:
            result = self.test_workload(workload)
            yield workload, result
            if result.buggy:
                buggy += 1
                if stop_after is not None and buggy >= stop_after:
                    return
