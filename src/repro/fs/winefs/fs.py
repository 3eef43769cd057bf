"""WineFS-like PM file system.

WineFS (Kadekodi et al., SOSP '21) shares the PMFS family's in-place,
journaled metadata design, but scales with an array of per-CPU undo
journals, prefers alignment-preserving allocation, and offers a *strict*
mode in which data writes are synchronous **and atomic** via copy-on-write.

This implementation subclasses :class:`repro.fs.pmfs.fs.PmfsFS`:

* ``n_cpus`` journal areas; each operation uses the journal of the CPU it
  runs on (simulated round-robin).  The per-CPU *recovery* indexing bug is
  Table-1 bug 19.
* strict-mode copy-on-write writes; the partial-publish path for unaligned
  writes is bug 20, and the publish-then-copy append path is bug 15
  (shared fix with PMFS bug 14).  The flush-rounding data-loss path is
  bug 18 (shared fix with PMFS bug 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.fs.common.layout import u32, u64
from repro.fs.pmfs import layout as L
from repro.fs.pmfs.fs import PmfsFS, PmfsPersistence
from repro.pm.persistence import PersistenceOps, persistence_function
from repro.vfs.errors import EFBIG, EINVAL


@dataclass(frozen=True)
class WinefsGeometry(L.PmfsGeometry):
    """WineFS geometry: four per-CPU journal areas by default."""

    n_cpus: int = 4


class WinefsPersistence(PmfsPersistence):
    """WineFS persistence functions (the names Chipmunk probes)."""

    persistence_function_names = (
        "winefs_memcpy_nocache",
        "winefs_memset_nocache",
        "winefs_flush_buffer",
        "winefs_persistent_barrier",
    )

    @persistence_function("nt_store", addr_arg=0, data_arg=1)
    def winefs_memcpy_nocache(self, addr: int, data: bytes) -> None:
        PersistenceOps.memcpy_nt(self, addr, data)

    @persistence_function("nt_store", addr_arg=0, length_arg=2)
    def winefs_memset_nocache(self, addr: int, value: int, length: int) -> None:
        PersistenceOps.memset_nt(self, addr, value, length)

    @persistence_function("flush", addr_arg=0, length_arg=1)
    def winefs_flush_buffer(self, addr: int, length: int) -> None:
        PersistenceOps.flush_range(self, addr, length)

    @persistence_function("fence")
    def winefs_persistent_barrier(self) -> None:
        PersistenceOps.sfence(self)

    # The PMFS-named helpers used by inherited code delegate to the
    # WineFS-named probed functions, so every PM write is still observable
    # through WineFS's declared persistence functions.
    def pmfs_memcpy_nocache(self, addr: int, data: bytes) -> None:
        self.winefs_memcpy_nocache(addr, data)

    def pmfs_memset_nocache(self, addr: int, value: int, length: int) -> None:
        self.winefs_memset_nocache(addr, value, length)

    def pmfs_flush_buffer(self, addr: int, length: int) -> None:
        self.winefs_flush_buffer(addr, length)

    def pmfs_persistent_barrier(self) -> None:
        self.winefs_persistent_barrier()


class WineFS(PmfsFS):
    """WineFS in strict mode (see module docstring)."""

    name = "winefs"
    strong_guarantees = True
    atomic_data_writes = True  # strict mode

    ops_class = WinefsPersistence
    geometry_class = WinefsGeometry

    BUG_UNSYNC_WRITE = 15
    BUG_FLUSH_ROUND = 18

    #: Sub-cache-line writes take the journaled in-place fast path instead
    #: of copy-on-write.
    SMALL_WRITE_LIMIT = 64

    # ------------------------------------------------------------------
    # Strict-mode data path
    # ------------------------------------------------------------------
    def write(self, path: str, offset: int, data: bytes) -> int:
        ino, slot = self._file_slot(path)
        if offset < 0:
            raise EINVAL("negative write offset")
        if not data:
            return 0
        end = offset + len(data)
        if end > self.geom.max_file_size:
            raise EFBIG(f"file would exceed {self.geom.max_file_size} bytes")
        geom = self.geom
        bs = geom.block_size
        cpu = self._next_cpu()
        first_blk = offset // bs
        last_blk = (end - 1) // bs

        # Small in-place fast path: a sub-line update inside one mapped
        # block is journaled (undo covers the old data) and written in place.
        if (
            len(data) <= self.SMALL_WRITE_LIMIT
            and first_blk == last_blk
            and slot.ptrs[first_blk] != 0
            and end <= slot.size
        ):
            self.cov("write.small_inplace")
            addr = geom.block_addr(slot.ptrs[first_blk]) + offset % bs
            self._tx_begin(cpu, [(addr, len(data))])
            self._write_data(addr, data)  # bug 18: tail flush may be skipped
            self._fence()
            self._tx_end(cpu)
            return len(data)

        # Copy-on-write: compose full new contents for every affected block.
        self.cov("write.cow")
        new_blocks: Dict[int, int] = {}
        contents: Dict[int, bytes] = {}
        for idx in range(first_blk, last_blk + 1):
            lo = max(offset, idx * bs)
            hi = min(end, (idx + 1) * bs)
            if lo == idx * bs and hi == (idx + 1) * bs:
                block = bytearray(data[lo - offset : hi - offset])
            else:
                old_ptr = slot.ptrs[idx]
                if old_ptr:
                    block = bytearray(self.ops.read_pm(geom.block_addr(old_ptr), bs))
                else:
                    block = bytearray(bs)
                block[lo - idx * bs : hi - idx * bs] = data[lo - offset : hi - offset]
            new_blocks[idx] = self._free_blocks.alloc()
            contents[idx] = bytes(block)

        appending = all(slot.ptrs[idx] == 0 for idx in new_blocks)
        slot_addr = geom.inode_addr(ino)
        old_ptrs = {idx: slot.ptrs[idx] for idx in new_blocks if slot.ptrs[idx]}
        aligned = offset % bs == 0 and (end % bs == 0 or end >= slot.size)

        def copy_data(fence: bool) -> None:
            for idx, block in new_blocks.items():
                self._nt(geom.block_addr(block), contents[idx])
            if fence:
                self._fence()

        def publish_journaled() -> None:
            undo = [(slot_addr, L.INODE_SLOT_SIZE)]
            undo += [(geom.bitmap_byte_addr(b), 1) for b in new_blocks.values()]
            undo += [(geom.bitmap_byte_addr(b), 1) for b in old_ptrs.values()]
            self._tx_begin(cpu, undo)
            for idx, block in new_blocks.items():
                self._bitmap_set(block, True)
                self._flush_write(slot_addr + L.INO_PTRS + 4 * idx, u32(block))
            for old in old_ptrs.values():
                self._bitmap_set(old, False)
            if end > slot.size:
                self._flush_write(slot_addr + L.INO_SIZE, u64(end))
            self._fence()
            self._tx_end(cpu)

        def publish_fast_unjournaled() -> None:
            # Bug 20: the unaligned path publishes the new block pointers one
            # in-place flush at a time, with no journal — a crash exposes a
            # mix of old and new blocks despite strict mode's atomic-write
            # guarantee.
            self.cov("write.partial_publish")
            for idx, block in new_blocks.items():
                self._bitmap_set(block, True)
                self._flush_write(slot_addr + L.INO_PTRS + 4 * idx, u32(block))
            for old in old_ptrs.values():
                self._bitmap_set(old, False)
            if end > slot.size:
                self._flush_write(slot_addr + L.INO_SIZE, u64(end))
            self._fence()

        if self.bugcfg.has(self.BUG_UNSYNC_WRITE) and appending:
            # Bug 15 (shared with PMFS bug 14): publish first, copy after,
            # and return without a fence.
            self.cov("write.publish_first")
            publish_journaled()
            copy_data(fence=False)
        elif self.bugcfg.has(20) and not aligned:
            copy_data(fence=True)
            publish_fast_unjournaled()
        else:
            copy_data(fence=True)
            publish_journaled()

        for old in old_ptrs.values():
            self._free_blocks.free(old)
        return len(data)
