"""MemoTable units: the LRU bound may only ever evict CLEAN entries.

Evicting a buggy key would make a later identical crash state re-publish
its reports — the one way a bounded memo could change campaign output.
The table therefore pins buggy verdicts forever (bounded in practice by
the per-workload report cap) and LRU-rotates only the clean set.
"""

from repro.memo.store import BUGGY, CLEAN, MemoTable


def k(i):
    return b"key-%04d" % i


class TestVerdicts:
    def test_miss_then_hit(self):
        t = MemoTable()
        assert t.lookup(k(1)) is None
        assert t.misses == 1
        t.publish(k(1), CLEAN)
        assert t.lookup(k(1)) == CLEAN
        assert t.hits == 1

    def test_buggy_round_trip(self):
        t = MemoTable()
        t.publish(k(1), BUGGY)
        assert t.lookup(k(1)) == BUGGY

    def test_buggy_overrides_clean(self):
        """A key observed buggy is buggy forever, whatever arrived first."""
        t = MemoTable()
        t.publish(k(1), CLEAN)
        t.publish(k(1), BUGGY)
        assert t.lookup(k(1)) == BUGGY
        # ... and a late CLEAN publish cannot downgrade it back.
        t.publish(k(1), CLEAN)
        assert t.lookup(k(1)) == BUGGY

    def test_idempotent_publish(self):
        t = MemoTable()
        for _ in range(3):
            t.publish(k(1), CLEAN)
        assert len(t) == 1


class TestPayloads:
    def test_fetch_returns_the_payload_and_refreshes_recency(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), CLEAN, "one")
        t.publish(k(2), CLEAN, "two")
        assert t.fetch(k(1)) == "one"
        t.publish(k(3), CLEAN, "three")
        assert t.fetch(k(2)) is None  # k(1) was fresher
        assert t.fetch(k(1)) == "one"
        assert (t.hits, t.misses) == (2, 1)

    def test_lookup_and_fetch_agree_on_plain_entries(self):
        t = MemoTable()
        t.publish(k(1), CLEAN)
        assert t.lookup(k(1)) == CLEAN
        assert t.fetch(k(1)) is True

    def test_buggy_keys_carry_no_payload(self):
        t = MemoTable()
        t.publish(k(1), CLEAN, "payload")
        t.publish(k(1), BUGGY)
        assert t.fetch(k(1)) is None


class TestEviction:
    def test_lru_evicts_oldest_clean(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), CLEAN)
        t.publish(k(2), CLEAN)
        t.publish(k(3), CLEAN)
        assert t.evictions == 1
        assert t.lookup(k(1)) is None  # oldest went
        assert t.lookup(k(2)) == CLEAN
        assert t.lookup(k(3)) == CLEAN

    def test_lookup_refreshes_recency(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), CLEAN)
        t.publish(k(2), CLEAN)
        t.lookup(k(1))  # k1 is now the most recently used
        t.publish(k(3), CLEAN)
        assert t.lookup(k(1)) == CLEAN
        assert t.lookup(k(2)) is None

    def test_buggy_keys_never_evicted(self):
        t = MemoTable(max_entries=2)
        t.publish(k(0), BUGGY)
        for i in range(1, 10):
            t.publish(k(i), CLEAN)
        assert t.lookup(k(0)) == BUGGY
        assert t.evictions == 7  # clean set stayed at the cap of 2

    def test_zero_cap_means_unbounded(self):
        t = MemoTable(max_entries=0)
        for i in range(100):
            t.publish(k(i), CLEAN)
        assert len(t) == 100
        assert t.evictions == 0


class TestStats:
    def test_stats_snapshot(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), CLEAN)
        t.publish(k(2), BUGGY)
        t.publish(k(3), CLEAN)
        t.publish(k(4), CLEAN)
        t.lookup(k(2))
        t.lookup(k(99))
        s = t.stats()
        assert s["entries"] == len(t)
        assert s["buggy"] == 1
        assert s["hits"] == 1
        assert s["misses"] == 1
        assert s["evictions"] == 1
        assert s["publishes"] == 4

    def test_contains(self):
        t = MemoTable()
        t.publish(k(1), CLEAN)
        t.publish(k(2), BUGGY)
        assert k(1) in t
        assert k(2) in t
        assert k(3) not in t
