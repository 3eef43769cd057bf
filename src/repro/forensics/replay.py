"""Offline rematerialization of crash states from saved provenance.

Recording is deterministic (the simulated file systems have no hidden
entropy), so a :class:`~repro.forensics.provenance.CrashProvenance` is a
complete recipe: rebuild the harness from its config, re-record the
workload to recover the base image and write log, then replay any subset of
the crash region's in-flight write units — including subsets the original
enumeration never generated, which is what the minimizer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.checker import ConsistencyChecker
from repro.core.harness import Chipmunk
from repro.core.replayer import (
    CrashState,
    coalesce_units,
    unit_positions,
)
from repro.core.report import BugReport
from repro.forensics.provenance import CrashProvenance, ops_from_tuples
from repro.fs.bugs import BugConfig
from repro.pm.image import CrashImage, PersistTracker, RegionBase
from repro.pm.log import Fence, Flush, NTStore, PMLog, WriteEntry
from repro.workloads.ops import describe_workload


def outcome_of(reports: Sequence[BugReport]) -> FrozenSet[str]:
    """Checker outcome of one state: the set of consequence names."""
    return frozenset(r.consequence.name for r in reports)


@dataclass
class CrashRegion:
    """The crash fence region of a rebuilt log: base image + in-flight units."""

    #: Persistent image with every pre-crash fence applied, as the shared
    #: fence base every rematerialized state of this region builds on —
    #: the minimizer re-checks dozens of subsets per region, and each one
    #: costs O(overlay) instead of an image copy.
    base: RegionBase
    #: In-flight write entries of the crash region, in program order.
    inflight: List[WriteEntry]
    #: Coalesced replay units; ``units[i]`` covers ``unit_positions[i]``.
    units: List[List[WriteEntry]]
    #: In-flight vector positions covered by each unit.
    unit_positions: List[Tuple[int, ...]]

    @property
    def persistent(self) -> bytes:
        """The flat persistent image (the fence base's snapshot)."""
        return self.base.data

    def positions_of(self, unit_indices: Sequence[int]) -> Tuple[int, ...]:
        out: List[int] = []
        for i in unit_indices:
            out.extend(self.unit_positions[i])
        return tuple(sorted(out))

    def units_of(self, positions: Sequence[int]) -> Tuple[int, ...]:
        """Map in-flight positions back to the units covering them.

        Raises ``ValueError`` when the positions split a unit — replay
        always persists whole units.
        """
        wanted = set(positions)
        chosen: List[int] = []
        for i, covered in enumerate(self.unit_positions):
            hit = wanted & set(covered)
            if not hit:
                continue
            if hit != set(covered):
                raise ValueError(
                    f"positions {sorted(wanted)} split replay unit {i} "
                    f"(covers {covered})"
                )
            chosen.append(i)
        return tuple(chosen)


def crash_region(prov: CrashProvenance, base: bytes, log: PMLog) -> CrashRegion:
    """Walk the rebuilt log up to the crash point and split it into the
    persistent base and the crash region's coalesced in-flight units."""
    persistent = PersistTracker(base)
    inflight: List[WriteEntry] = []
    for entry in log.entries[: prov.log_pos]:
        if isinstance(entry, Fence):
            persistent.apply(inflight)
            inflight.clear()
        elif isinstance(entry, (NTStore, Flush)):
            inflight.append(entry)
    units = coalesce_units(inflight, prov.config.coalesce_threshold)
    return CrashRegion(
        base=persistent.base(),
        inflight=inflight,
        units=units,
        unit_positions=unit_positions(units),
    )


def materialize_state(
    prov: CrashProvenance,
    region: CrashRegion,
    unit_indices: Sequence[int],
    kind: Optional[str] = None,
) -> CrashState:
    """Build the crash state persisting exactly ``unit_indices``.

    With ``kind=None`` the state reproduces the provenance's original
    crash-point flavor (so descriptions — and therefore report text —
    match byte-for-byte); the minimizer passes explicit unit subsets and
    keeps the original flavor's checker semantics via the copied
    ``mid_syscall``/``after_syscall`` fields.
    """
    kind = kind if kind is not None else prov.state_kind
    chosen: List[WriteEntry] = []
    for i in sorted(unit_indices):
        chosen.extend(region.units[i])
    image = CrashImage(region.base, tuple((e.addr, e.data) for e in chosen))
    if kind == "post":
        desc: Tuple[str, ...] = (
            ("<post-syscall; in-flight writes lost>",)
            if region.inflight
            else ("<post-syscall>",)
        )
    elif kind == "final":
        desc = ("<final state>",)
    else:
        desc = tuple(e.describe() for e in chosen) or ("<none persisted>",)
    return CrashState(
        image=image,
        fence_index=prov.fence_index,
        syscall=prov.syscall,
        syscall_name=prov.syscall_name,
        mid_syscall=prov.mid_syscall,
        after_syscall=prov.after_syscall,
        subset_desc=desc,
        n_replayed=len(unit_indices),
        log_pos=prov.log_pos,
        replayed_entries=region.positions_of(unit_indices),
        kind=kind,
    )


@dataclass
class ReplaySession:
    """Everything needed to re-check crash states of one saved bug."""

    prov: CrashProvenance
    chipmunk: Chipmunk
    base: bytes
    log: PMLog
    checker: ConsistencyChecker
    region: CrashRegion
    #: Unit indices the original crash state persisted.
    original_units: Tuple[int, ...]

    @property
    def dropped_units(self) -> Tuple[int, ...]:
        return tuple(
            i for i in range(len(self.region.units))
            if i not in set(self.original_units)
        )

    def check_units(self, unit_indices: Sequence[int]) -> List[BugReport]:
        """Checker verdict for the state persisting ``unit_indices``."""
        state = materialize_state(
            self.prov,
            self.region,
            unit_indices,
            kind=None if set(unit_indices) == set(self.original_units)
            else "subset",
        )
        return self.checker.check(state)

    def original_state(self) -> CrashState:
        return materialize_state(self.prov, self.region, self.original_units)

    def original_reports(self) -> List[BugReport]:
        return self.checker.check(self.original_state())


@dataclass
class Recording:
    """The crash-point-independent part of a rebuilt session.

    Re-recording the workload (mkfs + setup + probed, observed execution)
    dominates the cost of :func:`rebuild_session`; everything in this
    object depends only on the provenance's *reproduction context* — not on
    where the crash happened — so reports sharing a context can share one
    ``Recording`` (:mod:`repro.forensics.cache`).
    """

    chipmunk: Chipmunk
    base: bytes
    log: PMLog
    checker: ConsistencyChecker


def rebuild_recording(prov: CrashProvenance, telemetry=None) -> Recording:
    """Re-record the workload of a saved provenance and set up checking.

    The rebuilt harness uses the same bug configuration and harness config
    as the original campaign run, so the recovered write log — and every
    derived crash state — is bit-identical.
    """
    bugs = BugConfig(frozenset(prov.bug_ids))
    chipmunk = Chipmunk(prov.fs_name, bugs=bugs, config=prov.config,
                        telemetry=telemetry)
    workload = ops_from_tuples(prov.workload)
    setup = ops_from_tuples(prov.setup)
    base, log, oracle = chipmunk.record(workload, setup=setup)
    checker = ConsistencyChecker(
        chipmunk.fs_class, oracle, describe_workload(workload), bugs=bugs
    )
    return Recording(chipmunk=chipmunk, base=base, log=log, checker=checker)


def session_from_recording(
    prov: CrashProvenance, recording: Recording
) -> ReplaySession:
    """Derive the crash-point-specific session from a shared recording.

    This is the cheap half of :func:`rebuild_session`: walking the already-
    recorded log up to this provenance's crash point and coalescing the
    in-flight units.  The caller is responsible for only pairing a
    provenance with a recording rebuilt from the same reproduction context.
    """
    region = crash_region(prov, recording.base, recording.log)
    if prov.log_pos > len(recording.log.entries):
        raise ValueError(
            f"provenance crash point {prov.log_pos} beyond rebuilt log of "
            f"{len(recording.log.entries)} entries — recording is not "
            "reproducing"
        )
    original_units = region.units_of(prov.replayed_entries)
    return ReplaySession(
        prov=prov,
        chipmunk=recording.chipmunk,
        base=recording.base,
        log=recording.log,
        checker=recording.checker,
        region=region,
        original_units=original_units,
    )


def rebuild_session(prov: CrashProvenance, telemetry=None) -> ReplaySession:
    """One-shot rebuild: re-record the context, then derive the session.

    Batch callers explaining many reports should go through
    :class:`repro.forensics.cache.ForensicsCache` instead, which shares the
    expensive recording across reports with the same reproduction context.
    """
    return session_from_recording(prov, rebuild_recording(prov, telemetry))
