"""Bounded clean-key set: the table behind the shared memo service.

One :class:`MemoTable` holds the keys (:meth:`CheckMemo.shared_key
<repro.core.checker.CheckMemo.shared_key>` digests, as opaque strings) of
crash states some worker checked and found clean.  Only clean states are
worth sharing: skipping a re-check of one can never change ``bugs.json``,
because there is nothing to suppress, while a buggy state must be checked
again by every workload that reaches it so that its reports carry that
workload's identity.  The same argument makes any entry safe to evict:
re-checking an evicted clean state costs time, never correctness.

Eviction is LRU, bounded by ``max_entries`` (0 disables the bound).  The
table is thread-safe: the memo server serves one thread per connection
against one instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict

#: Entry cap of the engine-hosted shared memo service.  A seq-2 campaign
#: checks ~10^5 distinct states; at ~100 bytes per table entry this bounds
#: the store near 25 MiB while still holding an entire campaign's working
#: set.
DEFAULT_MAX_ENTRIES = 262144


class MemoTable:
    """Thread-safe, LRU-bounded set of clean keys."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._clean: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.publishes = 0

    def lookup(self, key: str) -> bool:
        """Whether ``key`` is known clean, refreshing its LRU recency."""
        with self._lock:
            if key in self._clean:
                self._clean.move_to_end(key)
                self.hits += 1
                return True
            self.misses += 1
            return False

    def publish(self, key: str) -> None:
        """Record ``key`` as clean; idempotent, so racing workers that
        checked the same state converge on one entry."""
        with self._lock:
            self.publishes += 1
            self._clean[key] = None
            self._clean.move_to_end(key)
            while 0 < self.max_entries < len(self._clean):
                self._clean.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._clean)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._clean

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._clean),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "publishes": self.publishes,
                "max_entries": self.max_entries,
            }
