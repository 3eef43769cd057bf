"""Crash-state construction from the recorded write log.

The replayer walks the log of flushes, non-temporal stores, and fences
(paper section 3.3): writes accumulate in an *in-flight vector*; at each
store fence it emits crash states by replaying subsets of the vector, in
program order, on top of everything already persistent.  Subsets are
enumerated in increasing size (Observation 7: most bugs need only one or two
replayed writes) and can be capped.  Logically related data writes — large
non-temporal stores to adjacent addresses within one syscall — are coalesced
into single replay units, the heuristic that collapses the 2^128 states of a
1 KiB file write into a handful.

One walk (:class:`FenceWalk`) visits the crash points and one constructor
(:meth:`CrashRegion.state`) builds every state; forensics rebuilds a saved
state through the same two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.pm.image import CrashImage, PersistTracker, RegionBase
from repro.pm.log import (
    Fence, Flush, LogEntry, NTStore, PMLog, SyscallBegin, SyscallEnd, WriteEntry,
)

#: NT stores at least this large are treated as file-data writes for
#: coalescing (the paper's "non-temporal memcpy on a large buffer usually
#: indicates a file data write" heuristic).
DATA_WRITE_THRESHOLD = 256

SYNC_SYSCALLS = ("fsync", "fdatasync", "sync")


@dataclass(frozen=True)
class CrashState:
    """One possible post-crash device image plus its provenance.

    ``image`` is a lazy :class:`~repro.pm.image.CrashImage` (fence base +
    sparse overlay, O(delta) to build), whose
    :meth:`~repro.pm.image.CrashImage.materialize` gives the flat bytes.
    :meth:`CrashRegion.state` builds every enumerated and rebuilt state; a
    hand-built one wraps its flat image as ``CrashImage(fence_base(flat))``.
    """

    image: CrashImage
    #: Index of the fence region the state was built in.
    fence_index: int
    #: Syscall during which the crash happened (None between syscalls).
    syscall: Optional[int]
    syscall_name: Optional[str]
    #: True when the state replays a strict subset of the in-flight writes
    #: (an interrupted operation); False for post-syscall synchrony states.
    mid_syscall: bool
    #: Index of the last fully completed syscall before the crash.
    after_syscall: int
    #: Human-readable description of the replayed subset.
    subset_desc: Tuple[str, ...]
    #: Number of in-flight write units replayed onto the persistent base.
    n_replayed: int
    #: Index into ``PMLog.entries`` of the crash point: the fence or
    #: syscall-end marker the state was emitted at (``len(log)`` for
    #: end-of-log states).  Together with ``replayed_entries`` this pins the
    #: state precisely enough to rematerialize it offline (forensics).
    log_pos: int = 0
    #: Positions, within the crash region's in-flight vector (program
    #: order), of the write entries this state persisted.  Independent of
    #: any unit ranker's ordering.
    replayed_entries: Tuple[int, ...] = ()
    #: Crash-point kind: ``"subset"`` (mid-region subset replay), ``"post"``
    #: (post-syscall synchrony point, in-flight lost), ``"final"`` (end of
    #: workload, everything persisted).
    kind: str = "subset"

    def describe(self) -> str:
        where = (
            f"during syscall #{self.syscall} {self.syscall_name}"
            if self.mid_syscall
            else f"after syscall #{self.after_syscall}"
        )
        return (
            f"crash {where} at fence {self.fence_index}, "
            f"replaying {self.n_replayed} in-flight write(s): "
            + "; ".join(self.subset_desc)
        )


def coalesce_units(inflight: Sequence[WriteEntry], threshold: int = DATA_WRITE_THRESHOLD) -> List[List[WriteEntry]]:
    """Group the in-flight vector into replay units.

    Large NT stores that are address-contiguous with the previous large NT
    store from the same syscall form one unit (a logically related file-data
    write); everything else is its own unit.
    """
    units: List[List[WriteEntry]] = []
    for entry in inflight:
        is_data = isinstance(entry, NTStore) and entry.length >= threshold
        if units and is_data:
            last = units[-1][-1]
            if (
                isinstance(last, NTStore)
                and last.length >= threshold
                and last.syscall == entry.syscall
                and last.addr + last.length == entry.addr
            ):
                units[-1].append(entry)
                continue
        units.append([entry])
    return units


def unit_positions(units: Sequence[Sequence[WriteEntry]]) -> List[Tuple[int, ...]]:
    """In-flight vector positions covered by each coalesced unit.

    Valid only for units in program order (straight out of
    :func:`coalesce_units`): unit ``i`` covers the positions following
    unit ``i-1``'s, so a running cursor recovers them without touching the
    entries.
    """
    positions: List[Tuple[int, ...]] = []
    cursor = 0
    for unit in units:
        positions.append(tuple(range(cursor, cursor + len(unit))))
        cursor += len(unit)
    return positions


@dataclass
class CrashRegion:
    """One crash point of a recorded log and the states it can crash into.

    The persistent base every state of the point shares, the in-flight
    writes a state may replay onto it, and where in the workload the crash
    happens.  :meth:`state` is the one constructor of a
    :class:`CrashState`: enumeration builds every subset, post-syscall and
    final state through it, and forensics rebuilds saved states the same
    way, so each description lives in one place.
    """

    base: RegionBase
    #: In-flight write entries of the crash region, in program order.
    inflight: Tuple[WriteEntry, ...]
    #: Coalesced replay units; ``units[i]`` covers ``unit_positions[i]``.
    units: List[List[WriteEntry]]
    #: In-flight vector positions covered by each unit.
    unit_positions: List[Tuple[int, ...]]
    log_pos: int
    fence_index: int
    #: Syscall the crash interrupts (None between syscalls).
    syscall: Optional[int]
    syscall_name: Optional[str]
    after_syscall: int

    def state(self, unit_indices: Sequence[int], kind: str = "subset") -> CrashState:
        """The crash state persisting the units ``unit_indices`` (ascending).

        ``kind`` picks the description: ``"subset"`` names the replayed
        writes, ``"post"`` and ``"final"`` name the crash point.  A final
        state persists every unit yet counts none as replayed.
        """
        chosen: List[WriteEntry] = []
        replayed: List[int] = []
        for i in unit_indices:
            chosen.extend(self.units[i])
            replayed.extend(self.unit_positions[i])
        if kind == "subset":
            desc = tuple(e.describe() for e in chosen) or ("<none persisted>",)
        elif kind == "post":
            desc = (
                ("<post-syscall; in-flight writes lost>",)
                if self.inflight
                else ("<post-syscall>",)
            )
        else:
            desc = ("<final state>",)
        return CrashState(
            image=CrashImage(self.base, tuple((e.addr, e.data) for e in chosen)),
            fence_index=self.fence_index,
            syscall=self.syscall,
            syscall_name=self.syscall_name,
            mid_syscall=self.syscall is not None,
            after_syscall=self.after_syscall,
            subset_desc=desc,
            n_replayed=0 if kind == "final" else len(unit_indices),
            log_pos=self.log_pos,
            replayed_entries=tuple(replayed),
            kind=kind,
        )

    def positions_of(self, unit_indices: Sequence[int]) -> Tuple[int, ...]:
        """In-flight positions covered by ``unit_indices``, ascending."""
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


class FenceWalk:
    """The replayer's walk of a write log, one crash point at a time.

    Iterating yields ``(log_pos, entry)`` at every crash point: each
    ``SyscallEnd``, each ``Fence`` before it persists the in-flight vector,
    and the end of the log (``entry`` None).  While the caller holds a
    point, :meth:`region` snapshots it; the walk then moves on.  Every log
    entry must lie inside ``base_image``; an entry outside
    ``[0, len(base_image))`` raises ``ValueError`` (real logs cannot hold
    one: probes log only after the device bounds-checks the access).
    """

    def __init__(self, base_image: bytes, log: PMLog,
                 coalesce_threshold: int = DATA_WRITE_THRESHOLD) -> None:
        self.log = log
        self.coalesce_threshold = coalesce_threshold
        self.persistent = PersistTracker(base_image)
        self.inflight: List[WriteEntry] = []
        #: The syscall in progress at the current point (None between).
        self.syscall: Optional[int] = None
        self.syscall_name: Optional[str] = None
        self.completed = -1
        self.fence_index = 0

    def __iter__(self) -> Iterator[Tuple[int, Optional[LogEntry]]]:
        size = self.persistent.size
        for log_pos, entry in enumerate(self.log):
            if isinstance(entry, SyscallBegin):
                self.syscall, self.syscall_name = entry.index, entry.name
            elif isinstance(entry, SyscallEnd):
                self.completed = entry.index
                yield log_pos, entry
                self.syscall, self.syscall_name = None, None
            elif isinstance(entry, Fence):
                yield log_pos, entry
                self.persistent.apply(self.inflight)
                self.inflight.clear()
                self.fence_index += 1
            elif isinstance(entry, (NTStore, Flush)):
                if entry.addr < 0 or entry.addr + len(entry.data) > size:
                    raise ValueError(
                        f"log entry {log_pos} writes [{entry.addr}, "
                        f"{entry.addr + len(entry.data)}) outside the "
                        f"{size}-byte image"
                    )
                self.inflight.append(entry)
        yield len(self.log), None

    def region(self, log_pos: int, syscall: Optional[int],
               syscall_name: Optional[str]) -> CrashRegion:
        """The current crash point, crashing inside ``syscall`` (or None)."""
        units = coalesce_units(self.inflight, self.coalesce_threshold)
        return CrashRegion(
            base=self.persistent.base(),
            inflight=tuple(self.inflight),
            units=units,
            unit_positions=unit_positions(units),
            log_pos=log_pos,
            fence_index=self.fence_index,
            syscall=syscall,
            syscall_name=syscall_name,
            after_syscall=self.completed,
        )


@dataclass
class ReplayStats:
    """Aggregate statistics gathered while enumerating crash states."""

    n_states: int = 0
    n_fences: int = 0
    max_inflight: int = 0
    total_inflight: int = 0
    #: in-flight unit count per fence region that had any writes
    inflight_per_fence: List[int] = field(default_factory=list)
    capped_regions: int = 0

    @property
    def avg_inflight(self) -> float:
        if not self.inflight_per_fence:
            return 0.0
        return sum(self.inflight_per_fence) / len(self.inflight_per_fence)


def enumerate_crash_states(
    base_image: bytes,
    log: PMLog,
    cap: Optional[int] = 2,
    coalesce_threshold: int = DATA_WRITE_THRESHOLD,
    crash_points: str = "fence",
    stats: Optional[ReplayStats] = None,
) -> Iterator[CrashState]:
    """Enumerate crash states for a recorded workload.

    ``crash_points`` selects the strategy:

    * ``"fence"`` — strong-guarantee systems: crash states during and after
      every operation (Chipmunk's strategy);
    * ``"post"`` — crash states only *between* syscalls (the
      CrashMonkey-style baseline used to demonstrate Observation 5);
    * ``"fsync"`` — weak-guarantee systems: states only after fsync-family
      calls (CrashMonkey's actual strategy for traditional file systems).

    ``cap`` limits how many in-flight write units are replayed per state
    (the paper finds a cap of two exposes every bug; section 5.1.2).

    Every log entry must lie inside ``base_image`` (see :class:`FenceWalk`).
    """
    if crash_points not in ("fence", "post", "fsync"):
        raise ValueError(f"unknown crash_points mode {crash_points!r}")
    if stats is None:
        stats = ReplayStats()
    walk = FenceWalk(base_image, log, coalesce_threshold)
    for log_pos, entry in walk:
        if isinstance(entry, SyscallEnd):
            if crash_points != "fsync" or entry.name in SYNC_SYSCALLS:
                # Synchrony crash point: the syscall has returned; anything
                # still in flight is lost in the worst case.
                stats.n_states += 1
                yield walk.region(log_pos, None, entry.name).state((), "post")
            continue
        # With nothing in flight the boundary state is already covered by
        # the adjacent regions' subsets and the post-syscall states.
        if crash_points == "fence" and walk.inflight:
            region = walk.region(log_pos, walk.syscall, walk.syscall_name)
            n = len(region.units)
            stats.max_inflight = max(stats.max_inflight, n)
            stats.inflight_per_fence.append(n)
            max_size = n - 1
            if cap is not None and cap < max_size:
                stats.capped_regions += 1
                max_size = cap
            # Units are in program order and combinations() enumerates
            # indices ascending, so every combo is already program-ordered.
            for size in range(max_size + 1):
                for combo in itertools.combinations(range(n), size):
                    stats.n_states += 1
                    yield region.state(combo)
        if entry is not None:
            stats.n_fences += 1
    if crash_points != "fsync":
        # The final state: a crash after the workload ends, with every
        # write persisted.  The fsync-only policy has no crash point here
        # — its last checkpoint is the workload's final sync call
        # (CrashMonkey semantics).
        region = walk.region(len(log), None, None)
        stats.n_states += 1
        yield region.state(range(len(region.units)), "final")


def persistence_breakdown(log: PMLog) -> Dict[str, Dict[str, int]]:
    """Per persistence-function mix of stores, flushes, fences, and bytes.

    One O(log) walk, same shape as :func:`inflight_histogram`: keyed by the
    probed persistence function name (``memcpy_to_pmem_nocache``,
    ``nova_flush_buffer``, …), so the coverage report can show *which
    persistence mechanisms* a file system leans on.
    """
    out: Dict[str, Dict[str, int]] = {}
    for entry in log:
        if isinstance(entry, NTStore):
            kind = "stores"
        elif isinstance(entry, Flush):
            kind = "flushes"
        elif isinstance(entry, Fence):
            kind = "fences"
        else:
            continue
        bucket = out.setdefault(
            entry.func, {"stores": 0, "flushes": 0, "fences": 0, "bytes": 0}
        )
        bucket[kind] += 1
        if kind != "fences":
            bucket["bytes"] += len(entry.data)
    return out


def store_region_counts(log: PMLog, layout) -> Dict[str, Dict[str, int]]:
    """Write traffic per on-device layout region.

    ``layout`` is a :class:`repro.fs.common.layout.LayoutMap` (duck-typed:
    only ``region_of`` is used) — normally the cached mkfs-fresh map from
    :func:`repro.core.triage.layout_map_for`.  Each store/flush is charged
    to the region containing its start address, which is exact for this
    codebase's probes (persistence functions never straddle regions).
    """
    out: Dict[str, Dict[str, int]] = {}
    for entry in log:
        if not isinstance(entry, (NTStore, Flush)):
            continue
        region = layout.region_of(entry.addr)
        bucket = out.setdefault(region, {"writes": 0, "bytes": 0})
        bucket["writes"] += 1
        bucket["bytes"] += len(entry.data)
    return out


def inflight_histogram(log: PMLog, threshold: int = DATA_WRITE_THRESHOLD) -> Dict[str, List[int]]:
    """Per-syscall in-flight write-unit counts at each fence.

    Used to reproduce the paper's observation that metadata operations keep
    the in-flight set small (average 3, maximum 10 in the tested systems).
    """
    counts: Dict[str, List[int]] = {}
    inflight: List[WriteEntry] = []
    current: Optional[str] = None
    for entry in log:
        if isinstance(entry, SyscallBegin):
            current = entry.name
        elif isinstance(entry, SyscallEnd):
            current = None
        elif isinstance(entry, Fence):
            if inflight and current is not None:
                units = coalesce_units(inflight, threshold)
                counts.setdefault(current, []).append(len(units))
            inflight.clear()
        elif isinstance(entry, (NTStore, Flush)):
            inflight.append(entry)
    return counts
