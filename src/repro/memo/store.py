"""Bounded verdict store: the table behind the shared memo service and the
recovered-outcome cache.

One :class:`MemoTable` maps an opaque key (the shared service's
context-folded digest, or a post-mount image digest) to a *verdict*:

``CLEAN``
    The state was checked and produced zero reports.  Skipping a re-check
    of a clean state can never change ``bugs.json`` — there is nothing to
    suppress — so clean entries are the ones worth sharing and the ones
    safe to evict (re-checking an evicted clean state costs time, never
    correctness).
``BUGGY``
    The state produced at least one report.  Buggy entries are **pinned**:
    they are never evicted and a later ``CLEAN`` publish never overwrites
    them, so a key's stored verdict can only move from clean to buggy.

Eviction is LRU over the clean entries only, bounded by ``max_entries``
(0 disables the bound).  The table is thread-safe: the shared memo server
serves one thread per connection against a single instance.

A clean entry may carry a *payload* (:meth:`MemoTable.publish` /
:meth:`MemoTable.fetch`): the checker's recovered-outcome cache
(:mod:`repro.core.outcome_cache`) keeps its post-mount-image → recovered
tree map in the same bounded LRU instead of growing a second one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

#: Verdict labels stored per key (and carried over the wire protocol).
CLEAN = "clean"
BUGGY = "buggy"
VERDICTS = (CLEAN, BUGGY)

#: Clean-entry cap of the engine-hosted shared memo service (``repro memod
#: --max-entries`` overrides it for a standalone service).  A seq-2
#: campaign checks ~10^5 distinct states; at ~100 bytes per table entry this
#: bounds the store near 25 MiB while still holding an entire campaign's
#: working set.
DEFAULT_MAX_ENTRIES = 262144


class MemoTable:
    """Thread-safe, LRU/size-bounded verdict table."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._clean: "OrderedDict[object, object]" = OrderedDict()
        self._buggy: set = set()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.publishes = 0

    # ------------------------------------------------------------------
    def lookup(self, key) -> Optional[str]:
        """Return the stored verdict, refreshing LRU recency; None = miss."""
        with self._lock:
            if key in self._buggy:
                self.hits += 1
                return BUGGY
            if key in self._clean:
                self._clean.move_to_end(key)
                self.hits += 1
                return CLEAN
            self.misses += 1
            return None

    def fetch(self, key):
        """The payload published with a clean key, refreshing LRU recency;
        None = miss (buggy keys carry no payload)."""
        with self._lock:
            payload = self._clean.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._clean.move_to_end(key)
            self.hits += 1
            return payload

    def publish(self, key, verdict: str, payload=True) -> None:
        """Record a verdict; idempotent, so racing workers publishing the
        same key (both missed, both checked byte-identical states under the
        same oracle context) converge on the same entry.  ``payload`` (any
        value but ``None``) rides along with a clean entry for
        :meth:`fetch`."""
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        with self._lock:
            self.publishes += 1
            if verdict == BUGGY:
                # Key equality implies verdict equality, so a clean→buggy
                # transition only happens for keys that were never clean;
                # the pop is defensive, keeping the invariant structural.
                self._clean.pop(key, None)
                self._buggy.add(key)
                return
            if key in self._buggy:
                return
            self._clean[key] = payload
            self._clean.move_to_end(key)
            if self.max_entries > 0:
                while len(self._clean) > self.max_entries:
                    self._clean.popitem(last=False)
                    self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._clean) + len(self._buggy)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._buggy or key in self._clean

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._clean) + len(self._buggy),
                "clean": len(self._clean),
                "buggy": len(self._buggy),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "publishes": self.publishes,
                "max_entries": self.max_entries,
            }
