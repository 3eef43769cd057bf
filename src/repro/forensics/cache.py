"""Cross-report minimization cache.

A campaign's ``bugs.json`` typically holds many reports that share one
*reproduction context* (same file system, workload, bug configuration, and
harness knobs) and often one *crash point*: the checker files several
consequences against the same crash state, and triage keeps an exemplar of
each.  Explaining them independently re-records the workload N times and
re-replays the same candidate subsets over and over.

This module caches both layers:

* **Session cache** — rebuilt :class:`~repro.forensics.replay.Recording`
  objects keyed by the full reproduction context.  Explaining N reports
  that share a context costs one recording (the expensive half of
  :func:`~repro.forensics.replay.rebuild_session`); the per-crash-point
  session derivation stays cheap and uncached.
* **Verdict cache** — checker outcomes keyed by (context, crash point,
  persisted-subset).  The subset component is a frozenset of in-flight
  positions, so the key is stable under any reordering of an equal store
  set; ddmin passes over reports sharing a crash point re-use each other's
  replays.

Both caches count their hits and misses (:meth:`ForensicsCache.stats`,
and the ``forensics.md`` cache lines).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.forensics.provenance import CrashProvenance
from repro.forensics.replay import (
    Recording,
    ReplaySession,
    rebuild_recording,
    session_from_recording,
)

#: Hashable identity of one reproduction context.
ContextKey = Tuple
#: Hashable identity of one checker replay.
SubsetKey = Tuple


def context_key(prov: CrashProvenance) -> ContextKey:
    """The reproduction-context identity of a provenance.

    Two provenances with equal keys rebuild byte-identical recordings
    (recording is deterministic); any differing field — file system,
    workload, setup, bug set, or harness config — must yield a different
    key, or the session cache would hand back a mismatched session.
    """
    return (
        prov.fs_name,
        prov.workload,
        prov.setup,
        tuple(sorted(prov.bug_ids)),
        prov.config,
    )


def subset_key(
    prov: CrashProvenance, persisted_positions: Sequence[int]
) -> SubsetKey:
    """Identity of one checker replay: context + crash point + persisted set.

    ``persisted_positions`` are in-flight vector positions (the stable
    coordinates of the crash region); the frozenset makes the key
    order-insensitive, so equal sets presented in any order — ddmin chunks,
    complements, re-splits — hash to the same verdict.
    """
    return (
        context_key(prov),
        prov.log_pos,
        frozenset(int(p) for p in persisted_positions),
    )


class ForensicsCache:
    """Shared recording sessions and ddmin verdicts for a batch of reports."""

    def __init__(self, telemetry=None) -> None:
        self._telemetry = telemetry
        self.session_hits = self.session_misses = 0
        self.verdict_hits = self.verdict_misses = 0
        self._recordings: Dict[ContextKey, Recording] = {}
        self._verdicts: Dict[SubsetKey, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Session layer
    # ------------------------------------------------------------------
    @property
    def n_recordings(self) -> int:
        return len(self._recordings)

    def session(self, prov: CrashProvenance) -> ReplaySession:
        """A replay session for ``prov``, sharing recordings by context.

        Only the context-level recording is cached; the returned session's
        crash region is always derived fresh from this provenance's crash
        point, so a hit can never leak another report's crash state.
        """
        key = context_key(prov)
        recording = self._recordings.get(key)
        if recording is None:
            self.session_misses += 1
            recording = rebuild_recording(prov, telemetry=self._telemetry)
            self._recordings[key] = recording
        else:
            self.session_hits += 1
        return session_from_recording(prov, recording)

    # ------------------------------------------------------------------
    # Verdict layer
    # ------------------------------------------------------------------
    def check_positions(
        self, session: ReplaySession, persisted_units: Sequence[int]
    ) -> FrozenSet[str]:
        """Checker outcome for a persisted unit set, cached by position set.

        The cache key uses in-flight *positions* rather than unit indices:
        positions are the canonical coordinates of the crash region, so two
        sessions over the same context and crash point share verdicts even
        though they coalesced units independently.
        """
        positions = session.region.positions_of(persisted_units)
        key = subset_key(session.prov, positions)
        outcome = self._verdicts.get(key)
        if outcome is None:
            self.verdict_misses += 1
            outcome = frozenset(
                r.consequence.name
                for r in session.check_units(list(persisted_units))
            )
            self._verdicts[key] = outcome
        else:
            self.verdict_hits += 1
        return outcome

    # ------------------------------------------------------------------
    def describe_lines(self) -> Tuple[str, str]:
        """One ``name: hits, misses (rate)`` line per cache layer."""
        return (
            _describe("forensics.cache.session", self.session_hits,
                      self.session_misses),
            _describe("forensics.cache.verdict", self.verdict_hits,
                      self.verdict_misses),
        )

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for reports and tests."""
        return {
            "session_hits": self.session_hits,
            "session_misses": self.session_misses,
            "verdict_hits": self.verdict_hits,
            "verdict_misses": self.verdict_misses,
            "recordings": len(self._recordings),
            "verdicts": len(self._verdicts),
        }


def _describe(name: str, hits: int, misses: int) -> str:
    total = hits + misses
    rate = hits / total if total else 0.0
    return f"{name}: {hits} hit(s), {misses} miss(es) ({rate * 100:.0f}%)"
