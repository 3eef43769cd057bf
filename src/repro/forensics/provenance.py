"""Crash-state provenance: the store-level lineage behind a checker failure.

A :class:`~repro.core.report.BugReport` used to say *what* diverged; this
module records *why* — which persistence operations were in flight at the
crash, which subset the replayer persisted, and which were dropped.  The
lineage is derived from the recorded :class:`~repro.pm.log.PMLog` and
travels inside the report as a compact, JSON-serializable
:class:`CrashProvenance`.

A checker failure captures only the crash point and a reference to the
workload's log (:class:`ProvenanceRecorder`); the tagged entry list is
built on first read — serialization, the timeline, minimization — and
triage's culprit sites come from the crash region alone
(:meth:`CrashProvenance.dropped`).  A campaign keeps and serializes only
its cluster exemplars, so capture cost scales with exemplars, not with
reports.

The provenance also carries the full *reproduction context* — file system,
workload and setup operations, bug configuration, and the harness
:class:`~repro.config.ChipmunkConfig` — so
``python -m repro explain`` can rebuild the exact crash state offline from
a saved report, re-run the checker, and minimize the culprit store set
(:mod:`repro.forensics.minimize`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ChipmunkConfig
from repro.pm.log import Fence, Flush, NTStore, PMLog, SyscallBegin, SyscallEnd

#: Entry statuses.  ``durable`` — fenced before the crash region;
#: ``replayed`` — in flight at the crash and persisted in this state;
#: ``dropped`` — in flight at the crash and lost in this state;
#: ``fence`` / ``marker`` — ordering structure, not data.
DURABLE = "durable"
REPLAYED = "replayed"
DROPPED = "dropped"
FENCE = "fence"
MARKER = "marker"

#: Maximum store payload bytes embedded per provenance entry.  Data-heavy
#: workloads log block-sized (512 B+) stores; embedding them whole would
#: blow up ``bugs.json`` by orders of magnitude, and the first cache line is
#: what a developer actually reads in a lineage (the replay layer never
#: needs the payload — it re-records).  Longer payloads are truncated with
#: an explicit ``payload_truncated`` marker.
PAYLOAD_CAP = 32

#: The harness knobs a recording depends on, in ``bugs.json`` key order.
#: A provenance keeps these and leaves every other knob at its default.
RECORDED_KNOBS = ("cap", "coalesce_threshold", "device_size", "crash_points")


@functools.lru_cache(maxsize=64)
def _recorded_config(knobs: Tuple[Tuple[str, object], ...]) -> ChipmunkConfig:
    """One shared (immutable) config per set of recorded knobs: the
    thousands of provenances of a campaign hold a single instance."""
    return ChipmunkConfig(**dict(knobs))


@dataclass(frozen=True)
class ProvEntry:
    """One log entry of the crash lineage, tagged with its persistence fate."""

    #: Position in ``PMLog.entries`` (stable across re-recordings).
    seq: int
    #: ``"store"`` | ``"flush"`` | ``"fence"`` | ``"syscall_begin"`` |
    #: ``"syscall_end"``.
    kind: str
    status: str
    #: Fence epoch the entry belongs to (fences close their own epoch).
    epoch: int
    #: Issuing persistence function — the probe site that recorded it.
    func: str = ""
    addr: int = -1
    length: int = 0
    syscall: Optional[int] = None
    #: Marker text (syscall name and arguments) for begin/end entries.
    label: str = ""
    #: Hex of the store payload's first :data:`PAYLOAD_CAP` bytes ("" for
    #: non-store entries or payload-free captures).
    payload: str = ""
    #: True when the payload was longer than :data:`PAYLOAD_CAP`.
    payload_truncated: bool = False

    def to_dict(self) -> Dict[str, object]:
        out = {
            "seq": self.seq,
            "kind": self.kind,
            "status": self.status,
            "epoch": self.epoch,
            "func": self.func,
            "addr": self.addr,
            "length": self.length,
            "syscall": self.syscall,
            "label": self.label,
        }
        # Payload keys only when present: fences, markers, and short-store
        # captures pay zero serialization cost.
        if self.payload:
            out["payload"] = self.payload
        if self.payload_truncated:
            out["payload_truncated"] = True
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProvEntry":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            status=str(data["status"]),
            epoch=int(data["epoch"]),
            func=str(data.get("func", "")),
            addr=int(data.get("addr", -1)),
            length=int(data.get("length", 0)),
            syscall=data.get("syscall"),
            label=str(data.get("label", "")),
            payload=str(data.get("payload", "")),
            payload_truncated=bool(data.get("payload_truncated", False)),
        )


def _ops_to_tuples(ops: Sequence) -> Tuple[Tuple[str, Tuple], ...]:
    return tuple((op.name, tuple(op.args)) for op in ops)


def ops_from_tuples(packed: Sequence[Sequence]) -> List:
    """Rebuild :class:`~repro.workloads.ops.Op` values from packed form."""
    from repro.workloads.ops import Op  # deferred: keep this module light

    return [Op(str(name), tuple(args)) for name, args in packed]


@dataclass(frozen=True)
class CrashProvenance:
    """Full lineage of one failing crash state plus its repro context.

    A provenance from :class:`ProvenanceRecorder` holds the recorded log
    instead of ``entries`` and builds them on first read (then drops the
    log); equality, hashing and :meth:`to_dict` read ``entries`` like any
    other field, so the two forms are indistinguishable.
    """

    fs_name: str
    #: Crash-point identity (mirrors :class:`~repro.core.replayer.CrashState`).
    fence_index: int
    log_pos: int
    mid_syscall: bool
    syscall: Optional[int]
    syscall_name: Optional[str]
    after_syscall: int
    state_kind: str  # "subset" | "post" | "final"
    #: Positions (within the crash region's in-flight vector) persisted.
    replayed_entries: Tuple[int, ...]
    #: Every log entry up to the crash point, tagged.
    entries: Tuple[ProvEntry, ...]
    #: Reproduction context: the workload as (name, args) pairs.
    workload: Tuple[Tuple[str, Tuple], ...] = ()
    setup: Tuple[Tuple[str, Tuple], ...] = ()
    bug_ids: Tuple[int, ...] = ()
    #: The harness config the crash state was recorded under, reduced to
    #: :data:`RECORDED_KNOBS` (``crash_points`` resolved): re-running
    #: ``Chipmunk`` with it re-records the same log.
    config: ChipmunkConfig = ChipmunkConfig()

    @classmethod
    def _on_demand(cls, log: PMLog, crash_point: Dict[str, object],
                   context: Dict[str, object]) -> "CrashProvenance":
        """A provenance whose ``entries`` :meth:`__getattr__` builds from
        ``log`` on first read."""
        prov = cls.__new__(cls)
        prov.__dict__.update(crash_point, **context, _log=log)
        return prov

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks, which for a
        # field means the ``entries`` of an on-demand provenance.
        log = self.__dict__.get("_log")
        if name != "entries" or log is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        entries = _lineage(log, self.log_pos, self.replayed_entries)
        object.__setattr__(self, "entries", entries)
        object.__delattr__(self, "_log")
        return entries

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def stores(self) -> List[ProvEntry]:
        return [e for e in self.entries if e.kind in ("store", "flush")]

    def dropped(self) -> List[ProvEntry]:
        """The in-flight stores this state lost — what triage keys on.

        Before ``entries`` are built this reads only the crash region of
        the log: the replayer emits every state with ``fence_index`` equal
        to the fences before ``log_pos``, which is the region's epoch.
        """
        log = self.__dict__.get("_log")
        if log is None:
            return [e for e in self.entries if e.status == DROPPED]
        entries, replayed = log.entries, set(self.replayed_entries)
        dropped: List[ProvEntry] = []
        pos = 0
        for seq in range(_region_start(entries, self.log_pos), self.log_pos):
            entry = entries[seq]
            if isinstance(entry, (NTStore, Flush)):
                if pos not in replayed:
                    dropped.append(
                        _store_entry(seq, entry, DROPPED, self.fence_index)
                    )
                pos += 1
        return dropped

    def counts(self) -> Dict[str, int]:
        out = {DURABLE: 0, REPLAYED: 0, DROPPED: 0}
        for entry in self.stores():
            out[entry.status] += 1
        return out

    @property
    def n_epochs(self) -> int:
        return max((e.epoch for e in self.entries), default=-1) + 1

    def crash_region(self) -> List[ProvEntry]:
        """Entries of the fence epoch the crash happened in."""
        return [e for e in self.entries if e.epoch == self.fence_index]

    def where(self) -> str:
        if self.mid_syscall:
            return f"during syscall #{self.syscall} {self.syscall_name}"
        return f"after syscall #{self.after_syscall}"

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "fs_name": self.fs_name,
            "fence_index": self.fence_index,
            "log_pos": self.log_pos,
            "mid_syscall": self.mid_syscall,
            "syscall": self.syscall,
            "syscall_name": self.syscall_name,
            "after_syscall": self.after_syscall,
            "state_kind": self.state_kind,
            "replayed_entries": list(self.replayed_entries),
            "entries": [e.to_dict() for e in self.entries],
            "workload": [[name, list(args)] for name, args in self.workload],
            "setup": [[name, list(args)] for name, args in self.setup],
            "bug_ids": list(self.bug_ids),
            **{k: getattr(self.config, k) for k in RECORDED_KNOBS},
            # The usability pass always runs; the key keeps old readers
            # and ``bugs.json`` bytes unchanged.
            "usability_check": True,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CrashProvenance":
        return cls(
            fs_name=str(data["fs_name"]),
            fence_index=int(data["fence_index"]),
            log_pos=int(data["log_pos"]),
            mid_syscall=bool(data["mid_syscall"]),
            syscall=data.get("syscall"),
            syscall_name=data.get("syscall_name"),
            after_syscall=int(data["after_syscall"]),
            state_kind=str(data.get("state_kind", "subset")),
            replayed_entries=tuple(
                int(i) for i in data.get("replayed_entries", ())
            ),
            entries=tuple(
                ProvEntry.from_dict(e) for e in data.get("entries", ())
            ),
            workload=tuple(
                (str(name), tuple(args)) for name, args in data.get("workload", ())
            ),
            setup=tuple(
                (str(name), tuple(args)) for name, args in data.get("setup", ())
            ),
            bug_ids=tuple(int(b) for b in data.get("bug_ids", ())),
            config=_recorded_config(
                tuple((k, data[k]) for k in RECORDED_KNOBS if k in data)
            ),
        )


def _region_start(entries: Sequence, log_pos: int) -> int:
    """Position of the crash region's first entry: just past the last
    fence before ``log_pos`` (0 when there is none)."""
    start = log_pos
    while start and not isinstance(entries[start - 1], Fence):
        start -= 1
    return start


def _store_entry(seq: int, entry, status: str, epoch: int) -> ProvEntry:
    data = entry.data
    return ProvEntry(
        seq=seq,
        kind="store" if isinstance(entry, NTStore) else "flush",
        status=status,
        epoch=epoch,
        func=entry.func,
        addr=entry.addr,
        length=entry.length,
        syscall=entry.syscall,
        payload=data[:PAYLOAD_CAP].hex(),
        payload_truncated=len(data) > PAYLOAD_CAP,
    )


def _lineage(
    log: PMLog, log_pos: int, replayed_entries: Sequence[int]
) -> Tuple[ProvEntry, ...]:
    """Tag every log entry before ``log_pos``.

    Stores before the crash region's opening fence are ``durable``; stores
    inside the crash region are ``replayed`` or ``dropped`` according to
    the ``replayed_entries`` positions; fences and syscall markers keep
    their structural role.
    """
    prefix = log.entries[:log_pos]
    region = _region_start(prefix, len(prefix))
    replayed = set(replayed_entries)
    entries: List[ProvEntry] = []
    epoch = 0
    pos_in_region = 0
    for seq, entry in enumerate(prefix):
        if isinstance(entry, (NTStore, Flush)):
            if seq < region:
                status = DURABLE
            else:
                status = REPLAYED if pos_in_region in replayed else DROPPED
                pos_in_region += 1
            entries.append(_store_entry(seq, entry, status, epoch))
        elif isinstance(entry, Fence):
            entries.append(
                ProvEntry(
                    seq=seq,
                    kind="fence",
                    status=FENCE,
                    epoch=epoch,
                    func=entry.func,
                    syscall=entry.syscall,
                )
            )
            epoch += 1
        elif isinstance(entry, SyscallBegin):
            entries.append(
                ProvEntry(
                    seq=seq,
                    kind="syscall_begin",
                    status=MARKER,
                    epoch=epoch,
                    syscall=entry.index,
                    label=f"{entry.name}({entry.args})",
                )
            )
        elif isinstance(entry, SyscallEnd):
            entries.append(
                ProvEntry(
                    seq=seq,
                    kind="syscall_end",
                    status=MARKER,
                    epoch=epoch,
                    syscall=entry.index,
                    label=entry.name,
                )
            )
    return tuple(entries)


def _crash_point(state) -> Dict[str, object]:
    """The provenance fields that identify ``state``'s crash point."""
    return dict(
        fence_index=state.fence_index,
        log_pos=state.log_pos,
        mid_syscall=state.mid_syscall,
        syscall=state.syscall,
        syscall_name=state.syscall_name,
        after_syscall=state.after_syscall,
        state_kind=getattr(state, "kind", "subset"),
        replayed_entries=tuple(sorted(state.replayed_entries)),
    )


def _context(
    fs_name: str,
    workload: Sequence = (),
    setup: Sequence = (),
    bug_ids: Sequence[int] = (),
    config: ChipmunkConfig = ChipmunkConfig(),
) -> Dict[str, object]:
    """The provenance fields shared by every crash state of a workload."""
    return dict(
        fs_name=fs_name,
        workload=_ops_to_tuples(workload),
        setup=_ops_to_tuples(setup),
        bug_ids=tuple(sorted(bug_ids)),
        config=_recorded_config(
            tuple((k, getattr(config, k)) for k in RECORDED_KNOBS)
        ),
    )


def capture_provenance(log: PMLog, state, **context) -> CrashProvenance:
    """The provenance of ``state`` with its lineage built now.

    ``context`` is the keywords of :class:`ProvenanceRecorder`: ``fs_name``
    and optionally ``workload``, ``setup``, ``bug_ids`` and ``config`` (the
    harness config ``log`` was recorded under, ``crash_points`` resolved).
    """
    return CrashProvenance(
        entries=_lineage(log, state.log_pos, state.replayed_entries),
        **_crash_point(state),
        **_context(**context),
    )


class ProvenanceRecorder:
    """Per-workload provenance factory handed to the consistency checker.

    :meth:`for_state` keeps the crash point and a reference to ``log``, not
    the state, and leaves the lineage to be built on first read.  It
    memoizes by crash-point identity: a crash state producing several
    reports (e.g. unreadable + unusable) shares one provenance.
    """

    def __init__(self, log: PMLog, **context) -> None:
        self.log = log
        self.context = _context(**context)
        self._cache: Dict[Tuple[int, Tuple[int, ...]], CrashProvenance] = {}

    def for_state(self, state) -> CrashProvenance:
        key = (state.log_pos, tuple(state.replayed_entries))
        hit = self._cache.get(key)
        if hit is None:
            hit = CrashProvenance._on_demand(
                self.log, _crash_point(state), self.context
            )
            self._cache[key] = hit
        return hit
