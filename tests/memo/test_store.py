"""MemoTable units: an LRU-bounded, thread-safe set of clean keys.

Only clean states are ever published, and evicting one can only cost a
re-check, never a report — so the table needs no verdicts and no pinning.
"""

from repro.memo.store import MemoTable


def k(i):
    return "key-%04d" % i


class TestVerdicts:
    def test_miss_then_hit(self):
        t = MemoTable()
        assert t.lookup(k(1)) is False
        assert t.misses == 1
        t.publish(k(1))
        assert t.lookup(k(1)) is True
        assert t.hits == 1

    def test_idempotent_publish(self):
        t = MemoTable()
        for _ in range(3):
            t.publish(k(1))
        assert len(t) == 1


class TestEviction:
    def test_lru_evicts_oldest_clean(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1))
        t.publish(k(2))
        t.publish(k(3))
        assert t.evictions == 1
        assert t.lookup(k(1)) is False  # oldest went
        assert t.lookup(k(2)) is True
        assert t.lookup(k(3)) is True

    def test_lookup_refreshes_recency(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1))
        t.publish(k(2))
        t.lookup(k(1))  # k1 is now the most recently used
        t.publish(k(3))
        assert t.lookup(k(1)) is True
        assert t.lookup(k(2)) is False

    def test_zero_cap_means_unbounded(self):
        t = MemoTable(max_entries=0)
        for i in range(100):
            t.publish(k(i))
        assert len(t) == 100
        assert t.evictions == 0


class TestStats:
    def test_stats_snapshot(self):
        t = MemoTable(max_entries=2)
        for i in (1, 2, 3):
            t.publish(k(i))
        t.publish(k(3))
        t.lookup(k(3))
        t.lookup(k(99))
        s = t.stats()
        assert s["entries"] == len(t) == 2
        assert s["hits"] == 1
        assert s["misses"] == 1
        assert s["evictions"] == 1
        assert s["publishes"] == 4
        assert s["max_entries"] == 2

    def test_contains(self):
        t = MemoTable()
        t.publish(k(1))
        assert k(1) in t
        assert k(3) not in t
