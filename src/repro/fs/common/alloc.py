"""Block allocators.

PM file systems keep their free lists in DRAM for performance and rebuild
them at mount (paper Observation 3) — exactly what :class:`BlockAllocator`
models.  The allocator itself is volatile; persistence of allocation state is
the file system's job (bitmaps for PMFS-family, log rebuild for NOVA-family).

The free set is stored as sorted disjoint ``[start, end)`` intervals
(:class:`_IntervalSet`), not a materialized ``set`` of block numbers:
construction is O(1) regardless of device size, membership is a bisect, and
lowest-address-first allocation peels the head interval.  A freshly mounted
16 MiB device used to pay ~32k set inserts plus an O(n) ``min`` per
allocation — with mounts happening once per *crash state*, that made the
checker's hot loop scale with device size instead of with the delta.  The
interval form keeps every observable semantic of the set form: ascending
allocation order, first-fit contiguous runs, and fatal double frees.

The on-PM bitmap format lives here too, next to the free runs it encodes:
bit ``b`` (byte ``b // 8``, bit ``b % 8``) is set when block ``b`` is in
use, and every block below the managed range — the metadata area — is
permanently in use.  :meth:`BlockAllocator.from_bitmap` (mount) and
:meth:`BlockAllocator.used_bitmap` (commit) convert between that bitmap and
the intervals in bulk, as one arbitrary-precision integer: the zero-bit runs
of the mask *are* the free intervals.  Both run on every ext4-DAX commit or
PMFS-family / ext4-DAX mount, so they cost a handful of integer operations
per free run, never a Python step per block.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Optional

from repro.vfs.errors import ENOSPC


class AllocatorError(Exception):
    """Internal allocator invariant violation (e.g. double free).

    NOVA-Fortis bug 11 manifests as this assertion firing during mount-time
    recovery ("FS attempts to deallocate free blocks").
    """


class _IntervalSet:
    """Sorted disjoint half-open integer intervals with set-like operations.

    Every operation the allocators need is O(log n + k) in the number of
    intervals (k for the list shuffle), and the interval count stays small:
    sequential allocation and mount-time rebuilds only ever split or shrink
    the head, and frees merge back into their neighbours.
    """

    __slots__ = ("_starts", "_ends", "_count")

    def __init__(self, start: int, stop: int) -> None:
        if stop > start:
            self._starts = [start]
            self._ends = [stop]
            self._count = stop - start
        else:
            self._starts = []
            self._ends = []
            self._count = 0

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_mask(cls, mask: int) -> "_IntervalSet":
        """The set bits of ``mask`` (bit ``i`` is member ``i``), one
        interval per run of ones."""
        out = cls(0, 0)
        while mask:
            start = (mask & -mask).bit_length() - 1
            run = mask >> start
            stop = start + (~run & (run + 1)).bit_length() - 1
            out._starts.append(start)
            out._ends.append(stop)
            out._count += stop - start
            mask = run >> (stop - start) << stop
        return out

    def mask(self) -> int:
        """Inverse of :meth:`from_mask`: bit ``i`` set for each member."""
        out = 0
        for start, stop in zip(self._starts, self._ends):
            out |= ((1 << (stop - start)) - 1) << start
        return out

    def __contains__(self, value: int) -> bool:
        i = bisect_right(self._starts, value) - 1
        return i >= 0 and value < self._ends[i]

    def min(self) -> int:
        """Smallest member; the caller guarantees non-emptiness."""
        return self._starts[0]

    def remove(self, value: int) -> None:
        """Remove one member (must be present)."""
        i = bisect_right(self._starts, value) - 1
        start, end = self._starts[i], self._ends[i]
        if value == start:
            if start + 1 == end:
                del self._starts[i]
                del self._ends[i]
            else:
                self._starts[i] = start + 1
        elif value == end - 1:
            self._ends[i] = end - 1
        else:
            self._ends[i] = value
            self._starts.insert(i + 1, value + 1)
            self._ends.insert(i + 1, end)
        self._count -= 1

    def remove_run(self, start: int, count: int) -> None:
        """Remove ``[start, start+count)``; must lie within one interval."""
        i = bisect_right(self._starts, start) - 1
        lo, hi = self._starts[i], self._ends[i]
        end = start + count
        if start == lo and end == hi:
            del self._starts[i]
            del self._ends[i]
        elif start == lo:
            self._starts[i] = end
        elif end == hi:
            self._ends[i] = start
        else:
            self._ends[i] = start
            self._starts.insert(i + 1, end)
            self._ends.insert(i + 1, hi)
        self._count -= count

    def add(self, value: int) -> None:
        """Insert one member (must be absent), merging with neighbours."""
        i = bisect_right(self._starts, value)
        merge_left = i > 0 and self._ends[i - 1] == value
        merge_right = i < len(self._starts) and self._starts[i] == value + 1
        if merge_left and merge_right:
            self._ends[i - 1] = self._ends[i]
            del self._starts[i]
            del self._ends[i]
        elif merge_left:
            self._ends[i - 1] = value + 1
        elif merge_right:
            self._starts[i] = value
        else:
            self._starts.insert(i, value)
            self._ends.insert(i, value + 1)
        self._count += 1

    def first_run(self, count: int) -> Optional[int]:
        """Start of the first (lowest-address) run of ``count`` members.

        Runs of consecutive members are exactly the intervals, so this is
        the same answer a scan over the sorted member list would give.
        """
        for start, end in zip(self._starts, self._ends):
            if end - start >= count:
                return start
        return None


class BlockAllocator:
    """Volatile free-block tracker over a contiguous block range."""

    def __init__(self, first_block: int, n_blocks: int) -> None:
        self.first_block = first_block
        self.n_blocks = n_blocks
        self._free = _IntervalSet(first_block, first_block + n_blocks)

    @classmethod
    def from_bitmap(cls, first_block: int, n_blocks: int, bitmap: bytes) -> "BlockAllocator":
        """Rebuild the free set from a persistent bitmap (mount time).

        Block ``b`` of ``[first_block, first_block + n_blocks)`` is free
        when bit ``b`` of ``bitmap`` is clear; block numbers index the
        bitmap absolutely.
        """
        alloc = cls(first_block, n_blocks)
        end = first_block + n_blocks
        if end > len(bitmap) * 8:
            raise AllocatorError(
                f"{len(bitmap)}-byte bitmap cannot cover blocks up to {end}"
            )
        in_range = ((1 << end) - 1) >> first_block << first_block
        alloc._free = _IntervalSet.from_mask(
            ~int.from_bytes(bitmap, "little") & in_range
        )
        return alloc

    def used_bitmap(self, size: int) -> bytes:
        """The ``size``-byte persistent bitmap of this allocator (commit).

        Bits below ``first_block`` (metadata) and of allocated blocks are
        set; free blocks and blocks past the range are clear.
        """
        top = max(self.first_block, self.first_block + self.n_blocks)
        if top > size * 8:
            raise AllocatorError(
                f"{size}-byte bitmap cannot cover blocks up to {top}"
            )
        used = ((1 << top) - 1) & ~self._free.mask()
        return used.to_bytes(size, "little")

    # ------------------------------------------------------------------
    def mark_used(self, block: int) -> None:
        """Record that ``block`` is in use (mount-time rebuild)."""
        self._check(block)
        if block in self._free:
            self._free.remove(block)

    def alloc(self) -> int:
        """Allocate one block (lowest-address-first for determinism)."""
        if not len(self._free):
            raise ENOSPC("out of data blocks")
        block = self._free.min()
        self._free.remove(block)
        return block

    def alloc_contiguous(self, count: int) -> List[int]:
        """Allocate ``count`` consecutive blocks.

        Falls back to raising :class:`ENOSPC` when no contiguous run exists;
        callers that can split do so themselves.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        start = self._free.first_run(count)
        if start is None:
            raise ENOSPC(f"no contiguous run of {count} blocks")
        self._free.remove_run(start, count)
        return list(range(start, start + count))

    def alloc_many(self, count: int) -> List[int]:
        """Allocate ``count`` blocks, contiguous when possible."""
        try:
            return self.alloc_contiguous(count)
        except ENOSPC:
            if len(self._free) < count:
                raise
            return [self.alloc() for _ in range(count)]

    def free(self, block: int) -> None:
        """Return ``block`` to the free set; double frees are fatal."""
        self._check(block)
        if block in self._free:
            raise AllocatorError(f"double free of block {block}")
        self._free.add(block)

    def free_many(self, blocks: Iterable[int]) -> None:
        for block in blocks:
            self.free(block)

    def is_free(self, block: int) -> bool:
        self._check(block)
        return block in self._free

    @property
    def free_count(self) -> int:
        return len(self._free)

    def _check(self, block: int) -> None:
        if not (self.first_block <= block < self.first_block + self.n_blocks):
            raise AllocatorError(
                f"block {block} outside managed range "
                f"[{self.first_block}, {self.first_block + self.n_blocks})"
            )


class SlotAllocator:
    """Volatile allocator for fixed table slots (e.g. inode numbers)."""

    def __init__(self, n_slots: int, reserved: Optional[Iterable[int]] = None) -> None:
        self.n_slots = n_slots
        self._free = _IntervalSet(0, n_slots)
        for slot in reserved or ():
            if slot in self._free:
                self._free.remove(slot)

    def alloc(self) -> int:
        if not len(self._free):
            raise ENOSPC("out of inodes")
        slot = self._free.min()
        self._free.remove(slot)
        return slot

    def mark_used(self, slot: int) -> None:
        if slot in self._free:
            self._free.remove(slot)

    def free(self, slot: int) -> None:
        if slot in self._free:
            raise AllocatorError(f"double free of slot {slot}")
        if not (0 <= slot < self.n_slots):
            raise AllocatorError(f"slot {slot} out of range")
        self._free.add(slot)

    @property
    def free_count(self) -> int:
        return len(self._free)
