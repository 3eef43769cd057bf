"""Recovered-outcome cache: judge each distinct post-recovery image once.

Undo-journal rollback and log replay make many different torn crash states
*converge*: they mount to byte-identical images.  The checker's ``walk()``
and usability pass are deterministic functions of the mounted instance, and
(by the mount-purity contract in :mod:`repro.vfs.interface`) the instance is
a function of the post-mount image — so the second state to reach an image
can reuse the first one's recovered tree and skip both passes.  The oracle
comparison is *not* cached: it runs for every state against that state's own
expectations, which is why reports stay byte-equal with the cache detached.

The cache maps ``content digest of the post-mount image`` (the
:class:`~repro.pm.image.ChunkedDigest` construction, canonical across fence
bases and workloads) to the recovered tree, and holds **only**
outcomes whose walk succeeded and whose usability pass reported nothing.
One cache belongs to one :class:`~repro.core.harness.Chipmunk` and spans its
workloads — ACE seq-2 workloads share prefixes, which is where most hits
come from.

Memory is bounded twice over: keys live in an LRU of :data:`MAX_ENTRIES`
entries, and each distinct tree is interned once (many images recover to one tree) with
interned paths and :class:`~repro.vfs.interface.FileObservation`\\ s, so a
file content that appears in hundreds of trees is held once.  Interning is
weak: a tree lives exactly as long as some LRU entry references it.
"""

from __future__ import annotations

import sys
import weakref
from collections import OrderedDict
from typing import Dict, Optional

from repro.vfs.interface import FileObservation

#: LRU bound on cached post-mount images.  Consecutive ACE workloads share
#: prefixes, so recency is a strong predictor: on the ``benchmarks/e2e``
#: slices 1,024 entries already serve 99 % of the hits an unbounded table
#: would (NOVA 8,929 of 8,997), 4,096 serve all of them on all three file
#: systems, and a full table costs about 1 MiB (entry ~170 B, one interned
#: tree per ~5 entries).
MAX_ENTRIES = 4096


class RecoveredOutcome:
    """One interned recovered tree and its ``_tree_digest``."""

    __slots__ = ("tree", "digest", "__weakref__")

    def __init__(self, tree: Dict[str, FileObservation], digest: bytes) -> None:
        self.tree = tree
        self.digest = digest


class OutcomeCache:
    """Post-mount image digest → clean recovered outcome, LRU-bounded."""

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        #: Image digest -> outcome, least recently used first.
        self._keys: "OrderedDict[bytes, RecoveredOutcome]" = OrderedDict()
        self.evictions = 0
        self._outcomes: "weakref.WeakValueDictionary[bytes, RecoveredOutcome]" = (
            weakref.WeakValueDictionary()
        )
        # hash(obs) -> obs; a hash collision only costs one missed share.
        self._observations: "weakref.WeakValueDictionary[int, FileObservation]" = (
            weakref.WeakValueDictionary()
        )
        self._scope = None

    def bind(self, scope) -> None:
        """Declare what the cached outcomes are a function of besides the
        image (file-system class, bug set, usability knob).  A checker
        arriving with a different scope empties the cache: its outcomes
        were judged by a different file system."""
        if scope != self._scope:
            self._scope = scope
            self._keys = OrderedDict()
            self.evictions = 0

    def lookup(self, key: bytes) -> Optional[RecoveredOutcome]:
        """The outcome cached under ``key``, refreshing its recency."""
        outcome = self._keys.get(key)
        if outcome is not None:
            self._keys.move_to_end(key)
        return outcome

    def store(self, key: bytes, tree: Dict[str, FileObservation],
              digest: bytes) -> None:
        """Cache a clean outcome; ``digest`` is the tree's full-content
        digest, the identity trees are interned under."""
        outcome = self._outcomes.get(digest)
        if outcome is None:
            intern = self._intern
            outcome = RecoveredOutcome(
                {sys.intern(path): intern(obs) for path, obs in tree.items()},
                digest,
            )
            self._outcomes[digest] = outcome
        keys = self._keys
        keys[key] = outcome
        keys.move_to_end(key)
        while len(keys) > self.max_entries:
            keys.popitem(last=False)
            self.evictions += 1

    def _intern(self, obs: FileObservation) -> FileObservation:
        slot = hash(obs)
        known = self._observations.get(slot)
        if known is not None and known == obs:
            return known
        self._observations[slot] = obs
        return obs

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._keys),
            "trees": len(self._outcomes),
            "observations": len(self._observations),
            "evictions": self.evictions,
        }
