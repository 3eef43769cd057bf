"""The crash-image data plane against tiny reference definitions.

There is one data plane (:mod:`repro.pm.image`): the replayer's live
persistent buffer with an undo chain, region bases that read through it,
and overlays flattened against a base.  Each property pins one piece to the
simplest definition that could be right, kept in this file:

* :func:`flatten_overlay` — later writes win byte by byte, base-equal bytes
  drop, survivors merge into maximal runs;
* every region base the tracker hands out — a naive ``bytearray`` replay of
  the epochs so far, digested by hashing each chunk — checked both while
  its region is current and after enumeration has moved on (the
  ``restore_writes`` and ``read_range`` paths);
* ``recovery_read_set`` — the same reads mounting base + overlay as on the
  flat image.
"""

import hashlib
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.harness import Chipmunk
from repro.core.recovery_reads import recovery_read_set
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.pm.device import PMDevice
from repro.pm.image import CHUNK, PersistTracker, fence_base, flatten_overlay
from repro.workloads.ops import Op

#: A log write as the tracker sees it.
W = namedtuple("W", "addr data")


# ---------------------------------------------------------------------------
# Reference definitions
# ---------------------------------------------------------------------------
def reference_flatten(base, writes):
    """Later writes win per byte; drop base-equal bytes; merge the runs."""
    latest = {}
    for addr, data in writes:
        for i, b in enumerate(data):
            latest[addr + i] = b
    runs = []
    for pos in sorted(latest):
        b = latest[pos]
        if base[pos] == b:
            continue
        if runs and runs[-1][0] + len(runs[-1][1]) == pos:
            runs[-1][1].append(b)
        else:
            runs.append((pos, bytearray([b])))
    return tuple((addr, bytes(data)) for addr, data in runs)


def reference_chunks(buf):
    """sha1 of each CHUNK-sized piece, the last one possibly short."""
    return tuple(
        hashlib.sha1(bytes(buf[i : i + CHUNK])).digest()
        for i in range(0, len(buf), CHUNK)
    )


def reference_digest(buf):
    return hashlib.sha1(b"".join(reference_chunks(buf))).digest()


# ---------------------------------------------------------------------------
# flatten_overlay
# ---------------------------------------------------------------------------
FLAT_SIZE = 64

#: A two-letter alphabet makes base-equal bytes and writes common.
small_bytes = st.lists(st.integers(0, 1), max_size=12).map(bytes)


@st.composite
def overlays(draw):
    """Overlapping, adjacent, base-equal and empty writes over one base."""
    base = bytes(draw(st.lists(st.integers(0, 1), min_size=FLAT_SIZE,
                               max_size=FLAT_SIZE)))
    writes = []
    for data in draw(st.lists(small_bytes, max_size=6)):
        addr = draw(st.integers(0, FLAT_SIZE - len(data)))
        if writes and draw(st.booleans()):
            # Start exactly where the previous write ended (adjacency).
            prev_addr, prev = writes[-1]
            addr = min(prev_addr + len(prev), FLAT_SIZE - len(data))
        writes.append((addr, data))
    return base, tuple(writes)


class TestFlattenOverlay:
    @settings(max_examples=200, deadline=None)
    @given(case=overlays(), region=st.booleans())
    def test_equals_the_per_byte_definition(self, case, region):
        base, writes = case
        against = fence_base(base) if region else base
        assert flatten_overlay(against, writes) == reference_flatten(base, writes)

    def test_adjacent_writes_merge_into_one_run(self):
        assert flatten_overlay(bytes(8), ((2, b"\x01"), (3, b"\x02"))) == (
            (2, b"\x01\x02"),
        )

    def test_empty_and_base_equal_writes_vanish(self):
        base = bytes(range(16))
        assert flatten_overlay(base, ((3, b""), (4, bytes([4, 5])))) == ()


# ---------------------------------------------------------------------------
# PersistTracker region bases
# ---------------------------------------------------------------------------
TRACK_SIZE = 2 * CHUNK + 512  # several chunks, the last one short


@st.composite
def epoch_runs(draw):
    """A starting image plus fence epochs of in-bounds writes."""
    if draw(st.booleans()):
        image = bytes(TRACK_SIZE)  # the fresh-device case: zero chunks
    else:
        image = bytes(range(256)) * (TRACK_SIZE // 256)
    epochs = []
    for _ in range(draw(st.integers(1, 5))):
        epoch = []
        for _ in range(draw(st.integers(0, 3))):
            length = draw(st.sampled_from([1, 8, 64, 300]))
            addr = draw(st.integers(0, TRACK_SIZE - length))
            fill = draw(st.integers(0, 3))
            epoch.append(W(addr, bytes([fill]) * length))
        epochs.append(epoch)
    probes = draw(st.lists(
        st.tuples(st.integers(0, TRACK_SIZE), st.integers(0, TRACK_SIZE))
        .map(sorted),
        min_size=1, max_size=4,
    ))
    return image, epochs, probes


def assert_base_is(base, expected, probes):
    """Digests and random access of ``base`` match the flat ``expected``."""
    assert len(base) == len(expected)
    assert base.digest == reference_digest(expected)
    assert base.chunk_digests == reference_chunks(expected)
    for lo, hi in probes:
        assert base[lo:hi] == expected[lo:hi]
        if lo < len(expected):
            assert base[lo] == expected[lo]
    assert base[-1] == expected[-1]


class TestRegionBases:
    @settings(max_examples=60, deadline=None)
    @given(run=epoch_runs())
    def test_every_region_base_equals_a_naive_replay(self, run):
        image, epochs, probes = run
        tracker = PersistTracker(image)
        replay = bytearray(image)
        taken = []
        for epoch in epochs:
            base = tracker.base()
            assert_base_is(base, bytes(replay), probes)  # region current
            taken.append((base, bytes(replay)))
            tracker.apply(epoch)
            for addr, data in epoch:
                replay[addr : addr + len(data)] = data
        taken.append((tracker.base(), bytes(replay)))
        live = bytes(tracker.buf)
        for base, expected in taken:  # enumeration has moved on
            assert_base_is(base, expected, probes)
            # The checker's mount: the live buffer through the restore patch.
            device = PMDevice.adopt(tracker.buf)
            with device.cow_view(tuple(base.restore_writes())) as view:
                assert bytes(view.image) == expected
            assert bytes(tracker.buf) == live
            assert base.data == expected

    def test_a_recycled_buffer_starts_from_its_image(self):
        image = bytes(range(256)) * (TRACK_SIZE // 256)
        tracker = PersistTracker(image)
        tracker.apply([W(5, b"\xff" * 40), W(CHUNK + 1, b"\x00" * 3)])
        tracker.base()
        del tracker  # the finalizer rolls the buffer back into the pool
        again = PersistTracker(image)
        assert bytes(again.buf) == image
        assert again.base().digest == reference_digest(image)
        other = bytes(TRACK_SIZE)
        assert bytes(PersistTracker(other).buf) == other


# ---------------------------------------------------------------------------
# Recovery reads over a stale overlay base
# ---------------------------------------------------------------------------
class TestRecoveryReadSet:
    def test_overlay_device_reads_what_the_flat_image_reads(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        base, log, _ = cm.record([
            Op("mkdir", ("/d",)),
            Op("creat", ("/d/f",)),
            Op("write", ("/d/f", 0, 0x41, 512)),
            Op("fsync", ("/d/f",)),
        ])
        states = list(enumerate_crash_states(base, log))
        assert states
        for state in states:
            image = state.image
            flat = recovery_read_set(cm.fs_class, image.materialize(), bugs=cm.bugs)
            overlay = recovery_read_set(cm.fs_class, image.base, bugs=cm.bugs,
                                        writes=image.writes)
            assert flat == overlay


@pytest.mark.parametrize("size", [64, CHUNK, CHUNK + 64])
def test_zero_chunks_digest_like_any_other(size):
    """The zero-chunk shortcut assigns exactly what hashing would."""
    base = fence_base(bytes(size))
    assert base.digest == reference_digest(bytes(size))
    assert base.chunk_digests == reference_chunks(bytes(size))
