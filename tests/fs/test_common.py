"""Shared building blocks: allocators, layout codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.common.alloc import AllocatorError, BlockAllocator, SlotAllocator
from repro.fs.common.layout import (
    Region,
    crc32,
    decode_name,
    encode_name,
    pad_to,
    read_u16,
    read_u32,
    read_u64,
    u16,
    u32,
    u64,
)
from repro.vfs.errors import ENOSPC


class TestBlockAllocator:
    def test_alloc_lowest_first(self):
        alloc = BlockAllocator(10, 5)
        assert alloc.alloc() == 10
        assert alloc.alloc() == 11

    def test_exhaustion(self):
        alloc = BlockAllocator(0, 2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(ENOSPC):
            alloc.alloc()

    def test_free_and_realloc(self):
        alloc = BlockAllocator(0, 4)
        block = alloc.alloc()
        alloc.free(block)
        assert alloc.alloc() == block

    def test_double_free_asserts(self):
        alloc = BlockAllocator(0, 4)
        block = alloc.alloc()
        alloc.free(block)
        with pytest.raises(AllocatorError):
            alloc.free(block)

    def test_free_unmanaged_block_asserts(self):
        alloc = BlockAllocator(10, 4)
        with pytest.raises(AllocatorError):
            alloc.free(2)

    def test_contiguous(self):
        alloc = BlockAllocator(0, 10)
        run = alloc.alloc_contiguous(4)
        assert run == [0, 1, 2, 3]

    def test_contiguous_skips_fragmentation(self):
        alloc = BlockAllocator(0, 10)
        for b in (0, 1, 2):
            alloc.mark_used(b)
        alloc.free(1)  # hole at 1
        run = alloc.alloc_contiguous(3)
        assert run == [3, 4, 5]

    def test_contiguous_unavailable(self):
        alloc = BlockAllocator(0, 4)
        alloc.mark_used(1)
        with pytest.raises(ENOSPC):
            alloc.alloc_contiguous(3)

    def test_alloc_many_falls_back(self):
        alloc = BlockAllocator(0, 5)
        alloc.mark_used(1)
        alloc.mark_used(3)
        blocks = alloc.alloc_many(3)
        assert sorted(blocks) == [0, 2, 4]

    def test_mark_used_idempotent(self):
        alloc = BlockAllocator(0, 4)
        alloc.mark_used(2)
        alloc.mark_used(2)
        assert not alloc.is_free(2)

    def test_free_count(self):
        alloc = BlockAllocator(0, 4)
        assert alloc.free_count == 4
        alloc.alloc()
        assert alloc.free_count == 3

    @given(st.lists(st.integers(0, 19), unique=True, max_size=20))
    @settings(max_examples=40)
    def test_alloc_free_invariant(self, to_use):
        alloc = BlockAllocator(0, 20)
        for b in to_use:
            alloc.mark_used(b)
        assert alloc.free_count == 20 - len(to_use)
        for b in to_use:
            alloc.free(b)
        assert alloc.free_count == 20


# ---------------------------------------------------------------------------
# Bulk bitmap <-> free-run conversion, against the per-block loops it replaced
# ---------------------------------------------------------------------------
def loop_from_bitmap(first, n, bitmap):
    """Reference: the per-block mount-time rebuild."""
    alloc = BlockAllocator(first, n)
    for block in range(first, first + n):
        if bitmap[block // 8] & (1 << (block % 8)):
            alloc.mark_used(block)
    return alloc


def loop_used_bitmap(alloc, size):
    """Reference: the per-block commit-time serialization."""
    bitmap = bytearray(size)
    for block in range(alloc.first_block):
        bitmap[block // 8] |= 1 << (block % 8)
    for block in range(alloc.first_block, alloc.first_block + alloc.n_blocks):
        if not alloc.is_free(block):
            bitmap[block // 8] |= 1 << (block % 8)
    return bytes(bitmap)


def free_runs(alloc):
    return list(alloc._free._starts), list(alloc._free._ends), alloc.free_count


def splitfs_kernel_range():
    """(first data block, data blocks) of SplitFS's embedded ext4-DAX."""
    from repro.fs.ext4dax.fs import Ext4DaxGeometry
    from repro.fs.splitfs.fs import SplitfsGeometry

    size = 256 * 1024
    origin = SplitfsGeometry(device_size=size).kernel_origin
    kernel = Ext4DaxGeometry(device_size=size - origin, origin=origin)
    return kernel.first_data_block, kernel.n_data_blocks


@st.composite
def bitmap_ranges(draw):
    """``(first, n, bitmap)``: random, empty and full maps over ranges that
    start off byte boundaries or at a SplitFS-style kernel origin."""
    first, n = draw(st.one_of(
        st.tuples(st.integers(0, 70), st.integers(0, 300)),
        st.just(splitfs_kernel_range()),
    ))
    size = (first + n + 7) // 8 + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "empty", "full"]))
    if kind == "empty":
        bitmap = bytes(size)
    elif kind == "full":
        bitmap = b"\xff" * size
    else:
        bitmap = draw(st.binary(min_size=size, max_size=size))
    return first, n, bitmap


class TestBitmapConversion:
    @given(bitmap_ranges())
    @settings(max_examples=150)
    def test_from_bitmap_equals_the_per_block_rebuild(self, case):
        first, n, bitmap = case
        assert free_runs(BlockAllocator.from_bitmap(first, n, bitmap)) == \
            free_runs(loop_from_bitmap(first, n, bitmap))

    @given(bitmap_ranges(), st.lists(st.integers(0, 10**6), max_size=30))
    @settings(max_examples=150)
    def test_used_bitmap_equals_the_per_block_serialization(self, case, churn):
        """After a mount-time rebuild and any alloc/free churn."""
        first, n, bitmap = case
        alloc = BlockAllocator.from_bitmap(first, n, bitmap)
        for pick in churn:
            if pick % 2 and alloc.free_count:
                alloc.alloc()
            elif n and not alloc.is_free(first + pick % n):
                alloc.free(first + pick % n)
        assert alloc.used_bitmap(len(bitmap)) == loop_used_bitmap(alloc, len(bitmap))

    @given(bitmap_ranges())
    @settings(max_examples=60)
    def test_round_trip_keeps_every_in_range_bit(self, case):
        first, n, bitmap = case
        out = BlockAllocator.from_bitmap(first, n, bitmap).used_bitmap(len(bitmap))
        mask = ((1 << (first + n)) - 1) >> first << first
        assert int.from_bytes(out, "little") & mask == \
            int.from_bytes(bitmap, "little") & mask

    def test_bitmap_too_short_is_an_allocator_error(self):
        with pytest.raises(AllocatorError):
            BlockAllocator.from_bitmap(8, 9, bytes(2))
        with pytest.raises(AllocatorError):
            BlockAllocator(8, 9).used_bitmap(2)

    def test_empty_range_below_the_metadata_end(self):
        """A geometry whose metadata outruns its blocks manages nothing;
        the bitmap still marks every metadata block in use."""
        alloc = BlockAllocator.from_bitmap(12, -4, bytes(2))
        assert alloc.free_count == 0
        assert alloc.used_bitmap(2) == loop_used_bitmap(alloc, 2) == b"\xff\x0f"


class TestSlotAllocator:
    def test_reserved_slots_skipped(self):
        alloc = SlotAllocator(4, reserved=[0])
        assert alloc.alloc() == 1

    def test_double_free_asserts(self):
        alloc = SlotAllocator(4)
        slot = alloc.alloc()
        alloc.free(slot)
        with pytest.raises(AllocatorError):
            alloc.free(slot)

    def test_exhaustion(self):
        alloc = SlotAllocator(1)
        alloc.alloc()
        with pytest.raises(ENOSPC):
            alloc.alloc()


class TestCodecs:
    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=30)
    def test_u16_roundtrip(self, v):
        assert read_u16(u16(v)) == v

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_u32_roundtrip(self, v):
        assert read_u32(u32(v)) == v

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=30)
    def test_u64_roundtrip(self, v):
        assert read_u64(u64(v)) == v

    def test_name_roundtrip(self):
        assert decode_name(encode_name("hello", 32)) == "hello"

    def test_name_too_long_rejected(self):
        with pytest.raises(ValueError):
            encode_name("x" * 32, 32)

    def test_pad_to(self):
        assert pad_to(b"ab", 4) == b"ab\x00\x00"
        with pytest.raises(ValueError):
            pad_to(b"abcde", 4)

    def test_crc32_deterministic(self):
        assert crc32(b"data") == crc32(b"data")
        assert crc32(b"data") != crc32(b"Data")


class TestRegion:
    def test_bounds(self):
        r = Region(100, 50)
        assert r.end == 150
        assert r.contains(100) and r.contains(149)
        assert not r.contains(150)
        assert r.contains(100, 50)
        assert not r.contains(100, 51)

    def test_at(self):
        r = Region(100, 50)
        assert r.at(0) == 100
        assert r.at(50) == 150
        with pytest.raises(ValueError):
            r.at(51)

    def test_slots(self):
        r = Region(0, 256)
        assert r.slot(3, 64) == 192
        assert r.slot_count(64) == 4
        with pytest.raises(ValueError):
            r.slot(4, 64)
