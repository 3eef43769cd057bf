"""Crash-state enumeration: subsets, coalescing, caps, crash-point modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replayer import (
    CrashState,
    ReplayStats,
    coalesce_units,
    enumerate_crash_states,
    inflight_histogram,
)
from repro.pm.log import Flush, NTStore, PMLog

BASE = bytes(1024)


def simple_log(n_writes: int, syscall_name: str = "op") -> PMLog:
    """One syscall issuing ``n_writes`` 8-byte stores then a fence."""
    log = PMLog()
    log.syscall_begin(0, syscall_name)
    for i in range(n_writes):
        log.nt_store(i * 64, bytes([i + 1]) * 8, "f")
    log.fence()
    log.syscall_end()
    return log


class TestSubsetEnumeration:
    def test_counts_for_three_writes(self):
        """n in-flight writes yield subsets of size 0..n-1 at the fence, the
        post-syscall state, and the final state."""
        states = list(enumerate_crash_states(BASE, simple_log(3), cap=None))
        mid = [s for s in states if s.mid_syscall]
        # sizes 0,1,2: C(3,0)+C(3,1)+C(3,2) = 1+3+3
        assert len(mid) == 7
        assert len(states) == 7 + 1 + 1

    def test_subsets_applied_in_program_order(self):
        log = PMLog()
        log.syscall_begin(0, "op")
        log.nt_store(0, b"AAAA", "f")
        log.nt_store(2, b"BBBB", "f")
        log.fence()
        log.syscall_end()
        states = list(enumerate_crash_states(BASE, log, cap=None))
        # The full set is the final persistent state: later store wins on
        # the overlap, i.e. program order was respected.
        assert states[-1].image.materialize()[:6] == b"AABBBB"

    def test_cap_limits_subset_size(self):
        states = list(enumerate_crash_states(BASE, simple_log(5), cap=2))
        assert max(s.n_replayed for s in states) == 2

    def test_cap_none_explores_all(self):
        states = list(enumerate_crash_states(BASE, simple_log(4), cap=None))
        assert max(s.n_replayed for s in states) == 3

    def test_empty_subset_is_fence_state(self):
        states = list(enumerate_crash_states(BASE, simple_log(2)))
        empty = [s for s in states if s.mid_syscall and s.n_replayed == 0]
        assert empty and empty[0].image.materialize() == BASE

    def test_final_state_has_everything(self):
        states = list(enumerate_crash_states(BASE, simple_log(3)))
        final = states[-1]
        assert final.image.materialize()[0:8] == bytes([1]) * 8
        assert final.image.materialize()[128:136] == bytes([3]) * 8

    def test_flush_entries_replayed(self):
        log = PMLog()
        log.syscall_begin(0, "op")
        log.flush(0, b"\xaa" * 64, "flushfn")
        log.fence()
        log.syscall_end()
        states = list(enumerate_crash_states(BASE, log, cap=None))
        assert any(s.image.materialize()[:64] == b"\xaa" * 64 for s in states)


class TestContext:
    def test_mid_syscall_attribution(self):
        states = list(enumerate_crash_states(BASE, simple_log(2, "rename")))
        mid = [s for s in states if s.mid_syscall]
        assert all(s.syscall == 0 and s.syscall_name == "rename" for s in mid)

    def test_post_syscall_state_excludes_inflight(self):
        """Unfenced writes at syscall end are lost in the worst case."""
        log = PMLog()
        log.syscall_begin(0, "write")
        log.nt_store(0, b"UNFENCED", "f")
        log.syscall_end()  # no fence!
        states = list(enumerate_crash_states(BASE, log))
        post = [s for s in states if not s.mid_syscall and s.after_syscall == 0]
        assert post[0].image.materialize() == BASE

    def test_two_syscall_attribution(self):
        log = PMLog()
        for i, name in enumerate(["creat", "unlink"]):
            log.syscall_begin(i, name)
            log.nt_store(i * 8, bytes([i + 1]) * 8, "f")
            log.fence()
            log.syscall_end()
        states = list(enumerate_crash_states(BASE, log, cap=None))
        names = {s.syscall_name for s in states if s.mid_syscall}
        assert names == {"creat", "unlink"}

    def test_describe(self):
        states = list(enumerate_crash_states(BASE, simple_log(1, "mkdir")))
        assert any("mkdir" in s.describe() for s in states)


class TestCoalescing:
    def test_adjacent_large_stores_merge(self):
        a = NTStore(0, b"\x01" * 512, "f", 0)
        b = NTStore(512, b"\x02" * 512, "f", 0)
        assert len(coalesce_units([a, b])) == 1

    def test_small_stores_stay_separate(self):
        a = NTStore(0, b"\x01" * 8, "f", 0)
        b = NTStore(8, b"\x02" * 8, "f", 0)
        assert len(coalesce_units([a, b])) == 2

    def test_non_adjacent_large_stores_separate(self):
        a = NTStore(0, b"\x01" * 512, "f", 0)
        b = NTStore(1024, b"\x02" * 512, "f", 0)
        assert len(coalesce_units([a, b])) == 2

    def test_cross_syscall_stores_separate(self):
        a = NTStore(0, b"\x01" * 512, "f", 0)
        b = NTStore(512, b"\x02" * 512, "f", 1)
        assert len(coalesce_units([a, b])) == 2

    def test_1kb_write_is_one_unit(self):
        """The paper's 1 KiB example: 128 8-byte stores would be 2^128
        states; logged as one function-level store it is a single unit."""
        unit = NTStore(0, b"\x03" * 1024, "memcpy_nt", 0)
        assert len(coalesce_units([unit])) == 1

    def test_unit_replay_is_all_or_nothing(self):
        log = PMLog()
        log.syscall_begin(0, "write")
        log.nt_store(0, b"\x01" * 512, "f")
        log.nt_store(512, b"\x02" * 512, "f")  # coalesces with previous
        log.fence()
        log.syscall_end()
        states = list(enumerate_crash_states(BASE, log, cap=None))
        mid = [s for s in states if s.mid_syscall]
        # Only sizes 0 for a single unit (full set excluded at the fence).
        assert {s.n_replayed for s in mid} == {0}


class TestCrashPointModes:
    def _two_op_log(self):
        log = PMLog()
        log.syscall_begin(0, "creat")
        log.nt_store(0, b"\x01" * 8, "f")
        log.fence()
        log.syscall_end()
        log.syscall_begin(1, "fsync")
        log.nt_store(8, b"\x02" * 8, "f")
        log.fence()
        log.syscall_end()
        return log

    def test_fence_mode_has_mid_states(self):
        states = list(enumerate_crash_states(BASE, self._two_op_log(), crash_points="fence"))
        assert any(s.mid_syscall for s in states)

    def test_post_mode_has_no_mid_states(self):
        states = list(enumerate_crash_states(BASE, self._two_op_log(), crash_points="post"))
        assert not any(s.mid_syscall for s in states)
        assert len([s for s in states if s.after_syscall == 0]) >= 1

    def test_fsync_mode_only_sync_points(self):
        states = list(enumerate_crash_states(BASE, self._two_op_log(), crash_points="fsync"))
        named = [s for s in states if s.syscall_name is not None]
        assert all(s.syscall_name == "fsync" for s in named)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_crash_states(BASE, PMLog(), crash_points="bogus"))


class TestStats:
    def test_inflight_tracking(self):
        stats = ReplayStats()
        list(enumerate_crash_states(BASE, simple_log(4), cap=2, stats=stats))
        assert stats.max_inflight == 4
        assert stats.inflight_per_fence == [4]
        assert stats.capped_regions == 1

    def test_histogram_by_syscall(self):
        log = PMLog()
        log.syscall_begin(0, "creat")
        log.nt_store(0, b"\x01" * 8, "f")
        log.nt_store(8, b"\x01" * 8, "f")
        log.fence()
        log.syscall_end()
        log.syscall_begin(1, "write")
        log.nt_store(16, b"\x01" * 8, "f")
        log.fence()
        log.syscall_end()
        hist = inflight_histogram(log)
        assert hist == {"creat": [2], "write": [1]}


class TestHypothesisInvariants:
    @given(n=st.integers(1, 6), cap=st.one_of(st.none(), st.integers(1, 4)))
    @settings(max_examples=30, deadline=None)
    def test_state_count_formula(self, n, cap):
        states = list(enumerate_crash_states(BASE, simple_log(n), cap=cap))
        mid = [s for s in states if s.mid_syscall]
        from math import comb

        max_size = n - 1 if cap is None else min(cap, n - 1)
        expected = sum(comb(n, k) for k in range(max_size + 1))
        assert len(mid) == expected

    @given(n=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_every_image_between_base_and_final(self, n):
        """Every crash-state byte comes from the base image or some write."""
        log = simple_log(n)
        states = list(enumerate_crash_states(BASE, log, cap=None))
        final = states[-1].image.materialize()
        for state in states:
            for addr in range(0, n * 64, 64):
                chunk = state.image.materialize()[addr : addr + 8]
                assert chunk in (BASE[addr : addr + 8], final[addr : addr + 8])
