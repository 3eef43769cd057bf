"""Delta crash-state images and check memoization.

The lazy ``CrashImage`` representation (shared fence base + sparse overlay)
must be observationally identical to the eager ``bytes`` images the seed
replayer built — the property tests here replay random PM logs through the
delta enumerator and an in-test reimplementation of the eager algorithm and
demand byte-identical state sequences across every ``crash_points`` mode.
"""

import hashlib
import itertools

import pytest
from conftest import EagerCheckMemo, eager_memo, hand_built_state
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk
from repro.core.replayer import coalesce_units, enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.pm.device import PMDevice, PMDeviceError
from repro.pm.image import (
    CHUNK,
    ChunkedDigest,
    CrashImage,
    fence_base,
    flatten_overlay,
)
from repro.pm.log import Fence, Flush, NTStore, PMLog, SyscallBegin, SyscallEnd
from repro.workloads.ops import Op

BASE = bytes(1024)


# ---------------------------------------------------------------------------
# Eager reference: the seed's O(device)-per-state enumeration, kept here as
# the ground truth the delta path is checked against.
# ---------------------------------------------------------------------------
def apply_entries(image, entries):
    """Replay write entries onto a ``bytearray``, in program order."""
    for entry in entries:
        image[entry.addr : entry.addr + len(entry.data)] = entry.data


def eager_states(base_image, log, cap=2, threshold=256, crash_points="fence"):
    """Yield (image_bytes, replayed_entries, kind) exactly as the eager
    replayer produced them."""
    persistent = bytearray(base_image)
    inflight = []
    in_syscall = None
    completed = -1

    def subset_states(log_pos):
        units = coalesce_units(inflight, threshold)
        program_order = {id(e): i for i, e in enumerate(inflight)}
        n = len(units)
        if not n:
            return
        max_size = n - 1
        if cap is not None and cap < max_size:
            max_size = cap
        for size in range(0, max_size + 1):
            for combo in itertools.combinations(range(n), size):
                image = bytearray(persistent)
                chosen = []
                for unit_index in combo:
                    chosen.extend(units[unit_index])
                chosen.sort(key=lambda e: program_order[id(e)])
                apply_entries(image, chosen)
                yield (
                    bytes(image),
                    tuple(program_order[id(e)] for e in chosen),
                    "subset",
                )

    for entry in log:
        if isinstance(entry, SyscallBegin):
            in_syscall = entry.index
        elif isinstance(entry, SyscallEnd):
            completed = entry.index
            if crash_points in ("fence", "post") or entry.name in (
                "fsync", "fdatasync", "sync"
            ):
                yield bytes(persistent), (), "post"
            in_syscall = None
        elif isinstance(entry, Fence):
            if crash_points == "fence":
                yield from subset_states(0)
            apply_entries(persistent, inflight)
            inflight.clear()
        elif isinstance(entry, (NTStore, Flush)):
            inflight.append(entry)
    if crash_points == "fence":
        yield from subset_states(0)
    apply_entries(persistent, inflight)
    if crash_points in ("fence", "post"):
        yield bytes(persistent), tuple(range(len(inflight))), "final"


# ---------------------------------------------------------------------------
# Random PM logs
# ---------------------------------------------------------------------------
@st.composite
def pm_logs(draw):
    """A random log: syscalls containing in-bounds stores/flushes and fences."""
    log = PMLog()
    n_syscalls = draw(st.integers(1, 3))
    for index in range(n_syscalls):
        name = draw(st.sampled_from(["creat", "write", "fsync"]))
        log.syscall_begin(index, name)
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["store", "flush", "fence"]))
            if kind == "fence":
                log.fence()
            else:
                length = draw(st.sampled_from([8, 16, 256]))
                addr = draw(st.integers(0, (len(BASE) - length) // 8)) * 8
                data = bytes([draw(st.integers(1, 255))]) * length
                if kind == "store":
                    log.nt_store(addr, data, "persist")
                else:
                    log.flush(addr, data, "flush")
        if draw(st.booleans()):
            log.fence()
        log.syscall_end()
    return log


class TestDeltaMatchesEagerProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        log=pm_logs(),
        cap=st.sampled_from([None, 1, 2]),
        crash_points=st.sampled_from(["fence", "post", "fsync"]),
    )
    def test_images_byte_identical_to_eager(self, log, cap, crash_points):
        delta = list(
            enumerate_crash_states(BASE, log, cap=cap, crash_points=crash_points)
        )
        eager = list(eager_states(BASE, log, cap=cap, crash_points=crash_points))
        assert len(delta) == len(eager)
        for state, (image, replayed, kind) in zip(delta, eager):
            assert state.image.materialize() == image
            assert state.kind == kind
            if kind == "subset":
                assert state.replayed_entries == replayed

    @settings(max_examples=25, deadline=None)
    @given(log=pm_logs(), cap=st.sampled_from([None, 2]))
    def test_digest_equality_matches_byte_equality_one_way(self, log, cap):
        """Content-key equality implies byte-identical images across every
        fence base of a replayed log (the direction memoization relies on)."""
        by_key = {}
        for state in enumerate_crash_states(BASE, log, cap=cap):
            image = state.image
            prior = by_key.setdefault(image.content_key(), image.materialize())
            assert prior == image.materialize()


class TestChunkedDigest:
    def test_matches_fresh_hash_after_invalidation(self):
        buf = bytearray(3 * CHUNK + 100)
        digest = ChunkedDigest(buf)
        first = digest.digest()
        assert first == ChunkedDigest(bytearray(buf)).digest()
        buf[CHUNK + 5 : CHUNK + 9] = b"\xde\xad\xbe\xef"
        digest.invalidate(CHUNK + 5, 4)
        assert digest.digest() == ChunkedDigest(bytearray(buf)).digest()
        assert digest.digest() != first

    def test_stale_without_invalidation(self):
        # The contract: writers must invalidate.  A silent mutation keeps
        # the cached chunk — this pins that the cache is actually used.
        buf = bytearray(2 * CHUNK)
        digest = ChunkedDigest(buf)
        before = digest.digest()
        buf[0] = 0xFF
        assert digest.digest() == before
        digest.invalidate(0, 1)
        assert digest.digest() != before

    def test_content_function_only(self):
        a = ChunkedDigest(bytearray(b"x" * (CHUNK + 1)))
        b = ChunkedDigest(bytearray(b"x" * (CHUNK + 1)))
        assert a.digest() == b.digest()


class TestCrashImage:
    def _image(self):
        base = fence_base(bytes(range(256)) * 4)
        return CrashImage(base, ((8, b"\x00" * 4), (1000, b"\xff\xfe")))

    def test_materializes_overlay(self):
        img = self._image()
        flat = img.materialize()
        assert flat[8:12] == b"\x00" * 4
        assert flat[1000:1002] == b"\xff\xfe"
        assert flat[:8] == bytes(range(8))
        assert len(img) == 1024

    def test_empty_overlay_shares_base_bytes(self):
        base = fence_base(bytes(64))
        assert CrashImage(base).materialize() is base.data

    def test_content_key_ignores_overlay_shape(self):
        base = fence_base(bytes(64))
        a = CrashImage(base, ((0, b"ab"),))
        b = CrashImage(base, ((0, b"a"), (1, b"b")))
        assert a.materialize() == b.materialize()
        assert a.content_key() == b.content_key()
        assert a.content_key() != CrashImage(base, ((0, b"ac"),)).content_key()

    def test_replay_order_wins_on_overlap(self):
        base = fence_base(bytes(8))
        img = CrashImage(base, ((0, b"\x01\x01"), (1, b"\x02")))
        assert img.materialize()[:3] == b"\x01\x02\x00"


class TestNoopOverlayWrites:
    """Overlay writes that change no byte leave the content key alone."""

    def test_noop_write_does_not_perturb_digest(self):
        base = fence_base(bytes(range(256)))
        clean = CrashImage(base, ((10, b"XY"),))
        noisy = CrashImage(base, ((10, b"XY"), (50, bytes(range(50, 54)))))
        assert clean.materialize() == noisy.materialize()
        assert noisy.content_key() == clean.content_key()

    def test_noop_overlapping_kept_write_is_not_dropped(self):
        # Replay order: a base-equal write landing on top of an earlier
        # effective write restores base content there, so it changes the
        # materialized image and the key.
        base = fence_base(bytes(8))
        img = CrashImage(base, ((0, b"\x01\x01"), (1, b"\x00")))
        assert img.materialize()[:3] == b"\x01\x00\x00"
        shape_only = CrashImage(base, ((0, b"\x01\x01"),))
        assert img.content_key() != shape_only.content_key()
        assert img.content_key() == CrashImage(base, ((0, b"\x01"),)).content_key()

    def test_noop_suffix_over_kept_write_drops(self):
        # A rewrite that repeats an earlier write's visible bytes changes
        # nothing, measured against the overlap-resolved content.
        base = fence_base(bytes(8))
        img = CrashImage(base, ((0, b"\x05"), (0, b"\x05\x00")))
        assert img.materialize()[:3] == b"\x05\x00\x00"
        assert img.content_key() == CrashImage(base, ((0, b"\x05"),)).content_key()

    def test_noop_overlapping_dropped_write_still_drops(self):
        # Two stacked no-ops: the first leaves base content in place, so
        # the second overlapping no-op changes nothing either.
        base = fence_base(bytes(range(64)))
        img = CrashImage(
            base, ((0, bytes(range(4))), (2, bytes(range(2, 6))))
        )
        assert img.materialize() == base.data
        assert img.content_key() == CrashImage(base, ()).content_key()

    def test_flattened_writes_preserve_materialization(self):
        base = fence_base(bytes(range(128)))
        writes = (
            (0, b"\xaa\xbb"),
            (10, bytes(range(10, 14))),  # no-op
            (1, b"\xcc"),
            (0, b"\x00\x01"),            # no-op bytes, overlaps earlier writes
        )
        img = CrashImage(base, writes)
        replayed = bytearray(base.data)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        assert img.materialize() == bytes(replayed)
        flat = CrashImage(base, flatten_overlay(base, writes))
        assert flat.materialize() == bytes(replayed)
        assert flat.content_key() == img.content_key()

    @settings(max_examples=60, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, 56),
                st.binary(min_size=1, max_size=8),
            ),
            max_size=6,
        )
    )
    def test_property_digest_canonical_under_noops(self, writes):
        """An overlay and its flattened byte diff materialize alike and
        share a content key."""
        base = fence_base(bytes(range(64)))
        img = CrashImage(base, tuple(writes))
        replayed = bytearray(base.data)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        assert img.materialize() == bytes(replayed)
        canonical = CrashImage(base, flatten_overlay(base.data, writes))
        assert canonical.materialize() == img.materialize()
        assert canonical.content_key() == img.content_key()


#: Bytes drawn from a two-letter alphabet, so random overlays often write
#: what is already there and random pairs often materialize alike.
_BITS = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8).map(bytes)
_OVERLAYS = st.lists(st.tuples(st.integers(0, 56), _BITS), max_size=6)


def _replay(base: bytes, writes) -> bytearray:
    image = bytearray(base)
    for addr, data in writes:
        image[addr:addr + len(data)] = data
    return image


@st.composite
def _reshaped(draw, base: bytes, writes):
    """Another overlay over ``base``: unrelated, ``writes`` split into
    one-byte writes, or ``writes`` with no-op rewrites of the current
    content interleaved (these may overlap earlier writes)."""
    mode = draw(st.sampled_from(["random", "split", "noop"]))
    if mode == "random":
        return draw(_OVERLAYS)
    if mode == "split":
        return [(addr + i, data[i:i + 1])
                for addr, data in writes for i in range(len(data))]
    out = []
    for k in range(len(writes) + 1):
        if draw(st.booleans()):
            lo = draw(st.integers(0, 60))
            hi = draw(st.integers(lo + 1, 64))
            out.append((lo, bytes(_replay(base, writes[:k])[lo:hi])))
        if k < len(writes):
            out.append(writes[k])
    return out


class TestContentKeyPurity:
    """The content key is a pure function of the materialized bytes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           raw=st.lists(st.sampled_from([0, 1]), min_size=64, max_size=64),
           writes=_OVERLAYS)
    def test_same_base_key_equality_iff_byte_equality(self, data, raw, writes):
        raw = bytes(raw)
        other = data.draw(_reshaped(raw, writes))
        base = fence_base(raw)
        a, b = CrashImage(base, writes), CrashImage(base, other)
        assert a.materialize() == bytes(_replay(raw, writes))
        assert (a.content_key() == b.content_key()) == (a.materialize() == b.materialize())

    @settings(max_examples=100, deadline=None)
    @given(raws=st.lists(
               st.lists(st.sampled_from([0, 1]), min_size=64, max_size=64),
               min_size=2, max_size=2),
           same_base=st.booleans(), a=_OVERLAYS, b=_OVERLAYS)
    def test_equal_keys_imply_equal_bytes_across_bases(
        self, raws, same_base, a, b
    ):
        raw_a = bytes(raws[0])
        raw_b = raw_a if same_base else bytes(raws[1])
        x = CrashImage(fence_base(raw_a), a)
        y = CrashImage(fence_base(raw_b), b)
        if x.content_key() == y.content_key():
            assert x.materialize() == y.materialize()
        if raw_a == raw_b:
            # Distinct base objects with equal content share a digest.
            assert (x.content_key() == y.content_key()) == (x.materialize() == y.materialize())


class TestFlattenOverlay:
    def test_exact_diff_against_base(self):
        base = bytes(range(100))
        writes = ((5, b"\xff\xff"), (6, bytes([6, 7])), (50, b"\x00"))
        flat = flatten_overlay(base, writes)
        replayed = bytearray(base)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        rebuilt = bytearray(base)
        for addr, data in flat:
            rebuilt[addr:addr + len(data)] = data
        assert bytes(rebuilt) == bytes(replayed)
        # every flattened byte genuinely differs from base
        for addr, data in flat:
            for i, b in enumerate(data):
                assert base[addr + i] != b

    def test_shape_independent(self):
        base = bytes(64)
        a = flatten_overlay(base, ((0, b"ab"),))
        b = flatten_overlay(base, ((0, b"a"), (1, b"b")))
        assert a == b == ((0, b"ab"),)

    def test_pure_noop_flattens_to_nothing(self):
        base = bytes(range(32))
        assert flatten_overlay(base, ((4, bytes(range(4, 10))),)) == ()

    def test_adjacent_runs_merge(self):
        base = bytes(16)
        flat = flatten_overlay(base, ((2, b"\x01"), (3, b"\x02")))
        assert flat == ((2, b"\x01\x02"),)


class TestCheckMemo:
    WORKLOAD = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]

    def _run(self):
        return Chipmunk("nova").test_workload(self.WORKLOAD)

    def test_same_reports_with_and_without_memo(self):
        on = self._run()
        with eager_memo():
            off = self._run()
        assert on.reports == off.reports
        assert on.n_crash_states == off.n_crash_states

    def test_memo_counters_populated(self):
        result = self._run()
        assert result.memo_misses == result.n_unique_states
        assert result.memo_hits + result.memo_misses == result.n_crash_states
        assert result.memo_hits > 0  # seq-2 workloads repeat states

    def test_counters_round_trip(self):
        from repro.core.harness import TestResult

        result = self._run()
        rebuilt = TestResult.from_dict(result.to_dict())
        assert rebuilt.memo_hits == result.memo_hits
        assert rebuilt.memo_misses == result.memo_misses

    def test_hit_returns_none_and_counts(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        workload = [Op("creat", ("/f",))]
        base, log, _ = cm.record(workload)
        from repro.core.oracle import run_oracle

        oracle = run_oracle(cm.fs_class, workload, cm.config.device_size,
                            bugs=cm.bugs)
        checker = ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)
        memo = CheckMemo(checker)
        state = next(iter(enumerate_crash_states(base, log)))
        first = memo.check(state)
        assert first is not None
        assert memo.check(state) is None
        assert (memo.hits, memo.misses) == (1, 1)

    def test_delta_and_eager_keys_agree_on_flat_bytes(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        base, log, _ = cm.record([Op("creat", ("/f",))])
        for state in enumerate_crash_states(base, log):
            flat = state.image.materialize()
            eager_key = (
                hashlib.sha1(flat).digest(),
                state.syscall,
                state.mid_syscall,
                state.after_syscall,
            )
            # A hand-built copy of the state keys alike in the reference.
            copy = hand_built_state(flat, like=state)
            assert EagerCheckMemo(checker=None).key_of(state) == eager_key
            assert EagerCheckMemo(checker=None).key_of(copy) == eager_key
            # Two hand-built copies (distinct bases, equal content) share
            # the canonical key.
            again = hand_built_state(flat, like=state)
            assert (CheckMemo(checker=None).key_of(copy)
                    == CheckMemo(checker=None).key_of(again))

    def test_canonical_key_ignores_overlay_shape(self):
        """Two overlays that materialize the same bytes share a memo key
        regardless of how the writes are partitioned or how many residual
        no-op bytes they carry — the former ``overlay_shape`` and
        ``noop_write_perturbation`` misses are hits now."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class S:
            image: object
            syscall: object = 1
            mid_syscall: bool = True
            after_syscall: int = -1

        base = fence_base(bytes(range(256)) * 4)
        memo = CheckMemo(checker=None)
        one = CrashImage(base, ((0, b"\xff\xfe"),))
        split = CrashImage(base, ((0, b"\xff"), (1, b"\xfe")))
        noisy = CrashImage(base, ((0, b"\xff\xfe" + bytes(range(2, 4))),))
        assert memo.key_of(S(one)) == memo.key_of(S(split))
        assert memo.key_of(S(one)) == memo.key_of(S(noisy))
        assert one.materialize() == split.materialize() == noisy.materialize()
        different = CrashImage(base, ((0, b"\xff\xfd"),))
        assert memo.key_of(S(one)) != memo.key_of(S(different))


class TestCowCheckIsolation:
    def test_checker_mutations_do_not_leak_between_states(self):
        """The usability pass creates and deletes files on the mounted
        image; with the shared-device COW path those mutations must roll
        back before the next state mounts."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload([Op("mkdir", ("/A",)), Op("creat", ("/A/f",))])
        assert result.reports == []

    def test_cow_view_restores_base_bytes(self):
        dev = PMDevice(256)
        dev.write(0, b"base")
        snapshot = dev.snapshot()
        with dev.cow_view(((0, b"over"), (100, b"lay"))) as view:
            assert view.read(0, 4) == b"over"
            assert view.read(100, 3) == b"lay"
            view.write(50, b"checker-mutation")
        assert dev.snapshot() == snapshot
        # The view disarms the undo log on exit.
        with pytest.raises(PMDeviceError, match="no undo log active"):
            dev.undo_ranges()
