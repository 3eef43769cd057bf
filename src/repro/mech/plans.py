"""Mechanism-targeted crash-plan generation.

Given the per-epoch mechanism classification from
:mod:`repro.mech.recognize`, :class:`MechPlanner` replaces the replayer's
combinatorial subset enumeration with a handful of *targeted* crash plans
per epoch — the states where the recognized mechanism can actually break:

* ``journal_update`` — all-but-commit-record persisted, commit-record-only
  persisted (torn transaction);
* ``log_append`` — torn tail: individual appended entries persisted alone;
* ``log_commit`` — the commit pointer persisted without (some of) the
  entries it publishes, and vice versa;
* ``replica_update`` — primary/replica divergence needs the full subset
  space at today's cap (divergence is inherently pairwise);
* ``bulk_init`` — torn bulk initialization;
* ``unstructured`` — no claim: fall back to capped subset enumeration.

Two invariants make ``--crash-plans mech`` safe to substitute for subset
mode:

1. **Subsequence.**  Every plan is a subset of the combos subset mode
   would enumerate for the same epoch, emitted in the same canonical
   order (size-ascending, lexicographic).  The mech state stream is
   therefore a subsequence of the subset state stream, so triage founds
   clusters in the same order and ``bugs.json`` stays byte-equal whenever
   the plans cover every cluster-founding state.
2. **Fallback on doubt.**  Epochs the recognizers cannot explain — which
   is what fence-discipline bugs look like in the log — enumerate exactly
   as subset mode does, so perturbed traces lose nothing.

A file system opts individual mechanism kinds into more aggressive
policies via ``MechanismHints.plan_overrides`` when its recovery
semantics provably ignore the pruned states (e.g. a redo journal that
discards uncommitted records).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.config import ChipmunkConfig
from repro.mech.recognize import EpochClass, MechanismHints, iter_epochs

Combo = Tuple[int, ...]
Plan = Optional[List[Combo]]  # None = full subset enumeration (fallback)

#: Plan policies by name.  ``subset`` means "no pruning for this epoch";
#: ``skip`` emits nothing (legal only when the epoch's boundary states are
#: provably redundant for the FS at hand — never a default).
PLAN_POLICIES = (
    "subset",
    "skip",
    "empty",
    "empty+singles",
    "empty+tail",
    "journal",
    "commit-pairs",
)

#: Conservative defaults per mechanism kind.  These already cut the
#: quadratic pair space to O(n) for every recognized epoch; hints opt
#: specific kinds into sharper policies per FS.
DEFAULT_POLICY: Dict[str, str] = {
    "journal_update": "journal",
    "log_append": "empty+singles",
    "log_commit": "commit-pairs",
    "replica_update": "subset",
    "bulk_init": "empty+singles",
    "unstructured": "subset",
}


def _canonical(combos) -> List[Combo]:
    """Dedup and order combos exactly as subset enumeration emits them."""
    return sorted({tuple(sorted(c)) for c in combos}, key=lambda c: (len(c), c))


def plan_epoch(epoch: EpochClass, max_size: int, policy: str) -> Plan:
    """Targeted combos for one epoch, or ``None`` for full enumeration.

    ``max_size`` is the replayer's effective subset-size bound for the
    epoch (``min(cap, n_units - 1)``); every combo respects it so the plan
    stays inside the subset-mode state space.
    """
    n = epoch.n_units
    if policy == "subset":
        return None
    if policy == "skip":
        return []
    combos: List[Combo] = [()]
    if policy == "empty":
        pass
    elif policy == "empty+singles":
        combos += [(i,) for i in range(n) if max_size >= 1]
    elif policy == "empty+tail":
        # Torn tail: the last unit persisted without its predecessors.
        if n >= 1 and max_size >= 1:
            combos.append((n - 1,))
    elif policy == "journal":
        # The two canonical torn-transaction states: commit record alone,
        # and everything but the commit record (the journal's last unit is
        # its most recently written — the commit/tail write).
        if max_size >= 1:
            combos += [(i,) for i in range(n)]
        if n - 1 <= max_size:
            combos.append(tuple(range(n - 1)))
    elif policy == "commit-pairs":
        # Commit-pointer divergence: each unit alone (pointer without
        # payload, payload without pointer) plus every pair coupling a
        # commit unit with one published unit.
        if max_size >= 1:
            combos += [(i,) for i in range(n)]
        if max_size >= 2:
            commits = [i for i, r in enumerate(epoch.roles) if r == "commit"]
            combos += [
                (i, c)
                for c in commits
                for i in range(n)
                if i != c
            ]
    else:
        raise ValueError(f"unknown plan policy {policy!r}")
    return _canonical(c for c in combos if len(c) <= max_size)


#: Journal-transaction phases for the sequence-aware rules.  One journal
#: transaction, as the recognized FSes write it, is four epochs: *record*
#: the undo/redo entries (invisible until armed), *flag* the transaction
#: valid (the visibility edge), apply the protected in-place writes
#: (a ``log_commit``/``unstructured`` epoch), then *clear* the flag.
_JOURNAL_PHASES = ("idle", "recording", "armed", "applied")


def _journal_step(epoch: EpochClass, phase: str):
    """Advance the journal state machine through one epoch.

    Returns ``(visible, next_phase)`` where ``visible`` is ``None`` when
    the epoch's visibility must be decided by the recovery-read test
    instead (log appends and bulk init).
    """
    kind = epoch.kind
    if kind == "journal_update":
        if phase == "idle":
            # Recording undo/redo entries: recovery ignores a journal
            # whose valid flag is unset, so these writes are invisible.
            return False, "recording"
        if phase == "recording":
            # The valid/commit flag: THE visibility edge of the whole
            # transaction — always worth crashing around.
            return True, "armed"
        if phase == "applied" and epoch.n_units == 1:
            # Clearing the flag after the apply: recovery replays an
            # armed journal idempotently, so the cleared boundary
            # recovers like the applied one.
            return False, "idle"
        # Unexpected journal traffic (e.g. a second flag write, or a
        # multi-unit clear): no claim — visible, restart the machine.
        return True, "idle"
    if kind == "log_commit":
        if phase == "armed":
            return True, "applied"
        if phase == "recording":
            return True, "idle"
        return True, phase
    if kind in ("unstructured", "replica_update"):
        return True, "idle"
    # log_append / bulk_init: recovery reads decide; phase unaffected.
    return None, phase


def _unit_visible(unit, read_bytes) -> bool:
    """True when recovery, mounted at the epoch's boundary, reads any
    byte the unit writes.

    Recovery is deterministic, so if its read set at the boundary image
    is disjoint from the unit's bytes, persisting the unit cannot change
    any value recovery observes — the crash state recovers identically to
    the boundary.  This catches what a static freshness test cannot: an
    append slot already *published* by an earlier (possibly buggy) commit
    is in the read set even though its bytes are still zero.  The read
    set is byte-granular (``recovery_read_set(granularity=1)``): at cache
    -line granularity a published 16-byte log entry's read bleeds into
    the adjacent unpublished slot and defeats the pruning.
    """
    from repro.core.recovery_reads import write_overlap

    return any(write_overlap(e, read_bytes, granularity=1) for e in unit)


class MechPlanner:
    """Precomputed per-epoch crash plans for one recorded workload.

    Built by the harness when ``--crash-plans mech`` is active and handed
    to :func:`repro.core.replayer.enumerate_crash_states`, which consults
    :meth:`plan_for` at each fence epoch.  Classification runs once, up
    front, over the whole log; ``plan_for`` is a dict lookup.
    """

    def __init__(
        self,
        fs_class,
        log,
        config: ChipmunkConfig,
        base_image: Optional[bytes] = None,
        bugs=None,
        telemetry=None,
    ) -> None:
        # Imported here, not at module top: fs modules import
        # repro.mech.recognize for their hint declarations, and triage
        # imports the fs registry — a top-level import would cycle.
        from repro.core.replayer import coalesce_units
        from repro.core.triage import layout_map_for

        self.cap = cap = config.cap
        self.recognized: Dict[str, int] = {}
        self.plans_emitted = 0
        self.fallback_epochs = 0
        self._tel = telemetry if telemetry is not None and telemetry.enabled else None
        self._plans: Dict[int, Tuple[int, Plan]] = {}
        hints: Optional[MechanismHints] = fs_class.mechanism_hints()
        if hints is None:
            # No hints declared: every epoch falls back to subset
            # enumeration.  plan_for() misses on every index.
            return
        try:
            layout = layout_map_for(fs_class.name, config.device_size)
        except Exception:  # noqa: BLE001 — a torn layout means no claims
            return
        # Sequence-aware boundary-redundancy rules (opt-in per FS): drop
        # an epoch's empty combo when the boundary it reproduces was
        # already emitted — because the previous epoch's writes are
        # invisible to recovery (unread appends, unarmed journal
        # records), because a post-syscall state at the same persistent
        # base preceded it, or because it is the pristine pre-workload
        # base — and drop append/bulk singles whose unit recovery never
        # reads at the boundary.
        seq = hints.sequence_rules and base_image is not None
        if seq:
            from repro.core.recovery_reads import recovery_read_set
        # The boundary image evolves by per-epoch deltas; keep it as the
        # shared base plus an ordered overlay so each read-set mount is
        # O(overlay + bytes read) instead of a device copy per epoch.
        overlay = [] if seq else None
        phase = "idle"
        prev_visible = True
        first_epoch = True
        for epoch, units in iter_epochs(
            log, layout, hints, coalesce_units, config.coalesce_threshold
        ):
            self.recognized[epoch.kind] = self.recognized.get(epoch.kind, 0) + 1
            if self._tel is not None:
                self._tel.count(f"mech.recognized.{epoch.kind}")
            max_size = epoch.n_units - 1
            if cap is not None and cap < max_size:
                max_size = cap
            policy = hints.plan_overrides.get(
                epoch.kind, DEFAULT_POLICY[epoch.kind]
            )
            plan = plan_epoch(epoch, max_size, policy)
            if seq:
                entries = [e for unit in units for e in unit]
                armed_apply = epoch.kind == "log_commit" and phase == "armed"
                visible, phase = _journal_step(epoch, phase)
                unit_vis = None
                if visible is None:
                    # Append/bulk epoch: mount the boundary image (with
                    # the same seeded-bug configuration the campaign
                    # runs) under the device's read trace and test each unit
                    # against recovery's actual read set.
                    reads = recovery_read_set(
                        fs_class, base_image, bugs=bugs, granularity=1,
                        writes=overlay,
                    )
                    unit_vis = [_unit_visible(u, reads) for u in units]
                    visible = any(unit_vis)
                if plan is not None:
                    if armed_apply:
                        # Rule F: in-place applies under an armed
                        # journal — recovery replays the journal over
                        # these slots regardless of which subset
                        # persisted, so only the armed boundary (the
                        # empty combo) is a distinct recovery input.
                        plan = [c for c in plan if c == ()]
                    if unit_vis is not None:
                        # Rule A: a single whose unit recovery never
                        # reads recovers identically to the boundary.
                        plan = [
                            c for c in plan
                            if len(c) != 1 or unit_vis[c[0]]
                        ]
                    if first_epoch or not prev_visible or epoch.post_aligned:
                        # Rules D / B / C: the empty combo duplicates
                        # the pristine base, the previous (invisible)
                        # epoch's boundary, or a post-syscall state
                        # at the same base.
                        plan = [c for c in plan if c != ()]
                for e in entries:
                    overlay.append((e.addr, e.data))
                prev_visible = visible
                first_epoch = False
            if plan is None:
                self.fallback_epochs += 1
                if self._tel is not None:
                    self._tel.count("mech.fallback_epochs")
            self._plans[epoch.fence_index] = (epoch.n_units, plan)

    def plan_for(self, fence_index: int, n_units: int) -> Plan:
        """The epoch's combo list, or ``None`` to enumerate the full subset.

        ``n_units`` is the replayer's coalesced unit count; a mismatch with
        the classification-time count (impossible while both sides share
        one coalescer, but cheap to check) falls back rather than emitting
        combos against the wrong index space.
        """
        expected, plan = self._plans.get(fence_index, (n_units, None))
        if plan is None or expected != n_units:
            return None
        self.plans_emitted += len(plan)
        if self._tel is not None:
            self._tel.count("mech.plans.emitted", len(plan))
        return plan

    def subset_size(self, n_units: int) -> int:
        """How many states subset mode would emit for an ``n_units`` epoch."""
        max_size = n_units - 1
        if self.cap is not None and self.cap < max_size:
            max_size = self.cap
        return sum(
            1
            for size in range(0, max_size + 1)
            for _ in itertools.combinations(range(n_units), size)
        )
