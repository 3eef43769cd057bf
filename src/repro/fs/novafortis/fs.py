"""NOVA-Fortis-like fault-tolerant PM file system.

NOVA-Fortis (Xu et al., SOSP '17) extends NOVA with fault detection and
tolerance: inode checksums, inode replicas, and per-block data checksums.
This implementation subclasses :class:`repro.fs.nova.fs.NovaFS` and inherits
every NOVA crash-consistency bug (the paper found all NOVA bugs in Fortis
too), adding the four resilience-specific bugs of Table 1:

* bug 9 — unlink/rmdir/truncate recompute the inode checksum *after* the
  commit flush with a cached store, so a crash leaves a stale checksum and
  the inode verifies as corrupt (unreadable) on the next mount;
* bug 10 — write/link/rename sync the inode replica lazily at operation end;
  a mid-operation crash leaves primary and replica divergent, and the buggy
  unlink verification refuses to touch the file (undeletable);
* bug 11 — mount-time replay of the pending-truncate record frees blocks the
  log rebuild already freed, tripping the allocator double-free assertion;
* bug 12 — a shrinking truncate does not re-stamp the tail block's data
  checksum over the shorter valid length, so post-crash reads fail
  verification (unreadable).

Substitution note (DESIGN.md): real Fortis *heals* a bad-checksum inode from
its replica; we flag it corrupt instead, which keeps each injected bug
independently observable.  Checksum verification runs only on instances that
came from ``mount`` (i.e. post-crash), matching Fortis's recovery-time scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Set

from repro.fs.common.layout import Region, crc32, read_u16, read_u32, read_u64, u16, u32, u64
from repro.fs.nova import layout as L
from repro.fs.nova.dram import DramInode
from repro.fs.nova.fs import NovaFS, NovaPersistence
from repro.vfs.errors import FsError
from repro.vfs.interface import MountError

# Pending-truncate record layout (one block).
PT_VALID = 0
PT_INO = 4
PT_NEW_SIZE = 8
PT_N_BLOCKS = 16
PT_BLOCKS = 20
PT_MAX_BLOCKS = 32

# Data checksum table entry: 8 bytes per device block.
CSUM_ENTRY_SIZE = 8
CE_VALID_LEN = 0  # u16
CE_CSUM = 4  # u32


@dataclass(frozen=True)
class FortisGeometry(L.NovaGeometry):
    """NOVA geometry plus the replica, data-checksum, and pending-truncate
    regions."""

    @cached_property
    def replica_table(self) -> Region:
        base = super().inode_table
        return Region(base.end, base.size)

    @cached_property
    def csum_table(self) -> Region:
        size = self.n_blocks * CSUM_ENTRY_SIZE
        size = ((size + self.block_size - 1) // self.block_size) * self.block_size
        return Region(self.replica_table.end, size)

    @cached_property
    def pending_truncate(self) -> Region:
        return Region(self.csum_table.end, self.block_size)

    @cached_property
    def first_data_block(self) -> int:
        return self.pending_truncate.end // self.block_size

    def replica_addr(self, ino: int) -> int:
        return self.replica_table.slot(ino, L.INODE_SLOT_SIZE)

    def csum_entry_addr(self, block: int) -> int:
        return self.csum_table.offset + block * CSUM_ENTRY_SIZE


class FortisPersistence(NovaPersistence):
    """Fortis shares NOVA's persistence functions (same module in-kernel)."""


class NovaFortisFS(NovaFS):
    """NOVA-Fortis (see module docstring)."""

    name = "nova-fortis"
    ops_class = FortisPersistence
    geometry_class = FortisGeometry

    #: Operations whose inode-checksum maintenance is lazy under bug 9.
    LAZY_CSUM_OPS = ("unlink", "rmdir", "truncate")
    #: Operations whose replica sync is lazy under bug 10.
    LAZY_REPLICA_OPS = ("write", "link", "rename")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._op = ""
        self._pending_replicas: List[int] = []
        self._bad_slots: Set[int] = set()

    # ------------------------------------------------------------------
    # Layout + mechanism hints
    # ------------------------------------------------------------------
    @classmethod
    def layout_map(cls, image: bytes):
        from repro.fs.common.layout import LayoutMap, NamedRegion

        base = super().layout_map(image)
        if len(base.regions) < 2:  # torn superblock: single anonymous region
            return base
        geom = cls._coerce_geometry(L.unpack_superblock(bytes(image[:64])))
        # Insert the Fortis resilience regions between NOVA's inode table
        # and the (already Fortis-offset) data region.
        named = list(base.regions)
        named[-1:-1] = [
            NamedRegion("replica_table", geom.replica_table,
                        slot_size=L.INODE_SLOT_SIZE),
            NamedRegion("csum_table", geom.csum_table,
                        slot_size=CSUM_ENTRY_SIZE),
            NamedRegion("pending_truncate", geom.pending_truncate),
        ]
        return LayoutMap(tuple(named))

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def _format(self) -> None:
        geom = self.geom
        self._memset(geom.replica_table.offset, 0, geom.replica_table.size)
        self._memset(geom.csum_table.offset, 0, geom.csum_table.size)
        self._memset(geom.pending_truncate.offset, 0, geom.pending_truncate.size)
        super()._format()

    # ------------------------------------------------------------------
    # Inode checksum + replica maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _slot_csum(slot_buf: bytes) -> int:
        """Checksum over the identity prefix plus the commit pointer."""
        return crc32(
            slot_buf[: L.CSUM_IDENTITY_LEN]
            + slot_buf[L.INO_COUNT : L.INO_COUNT + 4]
        )

    def _finalize_slot_bytes(self, slot: bytes) -> bytes:
        body = bytearray(slot)
        body[L.INO_CSUM : L.INO_CSUM + 4] = u32(self._slot_csum(slot))
        return bytes(body)

    def _write_count(self, di: DramInode, new_count: int) -> None:
        """Commit-pointer update with checksum and replica maintenance.

        The fixed path stores the new count and the recomputed checksum
        (adjacent fields on the same cache line) before a single write-back,
        making them atomic; bug 9 stores the checksum only *after* the
        flush, so a crash persists the new count with the stale checksum.
        """
        addr = self._slot_addr(di.ino)
        self.ops.store_cached(addr + L.INO_COUNT, u32(new_count))
        csum = u32(self._slot_csum(self.device.read(addr, L.INODE_SLOT_SIZE)))
        lazy_csum = self.bugcfg.has(9) and self._op in self.LAZY_CSUM_OPS
        if not lazy_csum:
            self.ops.store_cached(addr + L.INO_CSUM, csum)
        self.ops.nova_flush_buffer(addr + L.INO_COUNT, 8)
        if lazy_csum:
            self.cov("fortis.lazy_csum")
            self.ops.store_cached(addr + L.INO_CSUM, csum)
        if self.bugcfg.has(10) and self._op in self.LAZY_REPLICA_OPS:
            self.cov("fortis.lazy_replica")
            if di.ino not in self._pending_replicas:
                self._pending_replicas.append(di.ino)
        else:
            self._sync_replica(di.ino)

    def _recover_count(self, ino: int, new_count: int) -> None:
        addr = self._slot_addr(ino)
        self.ops.store_cached(addr + L.INO_COUNT, u32(new_count))
        csum = u32(self._slot_csum(self.device.read(addr, L.INODE_SLOT_SIZE)))
        self.ops.store_cached(addr + L.INO_CSUM, csum)
        self.ops.nova_flush_buffer(addr + L.INO_COUNT, 8)
        self._sync_replica(ino)

    def _sync_replica(self, ino: int) -> None:
        """Copy the (volatile view of the) primary slot to the replica."""
        slot = self.device.read(self._slot_addr(ino), L.INODE_SLOT_SIZE)
        self._flush_write(self.geom.replica_addr(ino), slot)

    def _flush_pending_replicas(self) -> None:
        if not self._pending_replicas:
            return
        pending, self._pending_replicas = self._pending_replicas, []
        for ino in pending:
            self._sync_replica(ino)
        self._fence()

    def _init_inode(self, ino: int, ftype: int, mode: int, flush_slot: bool) -> DramInode:
        di = super()._init_inode(ino, ftype, mode, flush_slot)
        if flush_slot:
            self._sync_replica(ino)
            self._fence()
        else:
            # Bug 2 path: the replica is only stored, never flushed, like
            # the primary.
            slot = self.device.read(self._slot_addr(ino), L.INODE_SLOT_SIZE)
            self.ops.store_cached(self.geom.replica_addr(ino), slot)
        return di

    def _invalidate_slot(self, di: DramInode) -> None:
        super()._invalidate_slot(di)
        self._flush_write(self.geom.replica_addr(di.ino) + L.INO_VALID, b"\x00")
        self._fence()

    def _verify_replica(self, ino: int) -> None:
        """Unlink-time verification of primary vs replica (bug 10).

        The fixed implementation heals a divergent replica from the primary
        (the primary's checksum is valid, so it is authoritative); the buggy
        one refuses to proceed, making the file undeletable.
        """
        primary = self.ops.read_pm(self._slot_addr(ino), L.INODE_SLOT_SIZE)
        replica = self.ops.read_pm(self.geom.replica_addr(ino), L.INODE_SLOT_SIZE)
        if primary[: L.INO_CSUM + 4] == replica[: L.INO_CSUM + 4]:
            return  # identity, count, and csum all agree
        if self.bugcfg.has(10):
            raise FsError(
                f"inode {ino}: replica mismatch detected, refusing unlink (bug 10)"
            )
        self.cov("fortis.heal_replica")
        self._flush_write(self.geom.replica_addr(ino), primary)
        self._fence()

    # ------------------------------------------------------------------
    # Data checksums
    # ------------------------------------------------------------------
    def _write_csum_entry(self, block: int, valid_len: int) -> None:
        data = self.ops.read_pm(self.geom.block_addr(block), valid_len) if valid_len else b""
        entry = u16(valid_len) + u16(0) + u32(crc32(data))
        self._flush_write(self.geom.csum_entry_addr(block), entry)

    def _data_csum_barrier(self, di: DramInode, mapping, new_size: int) -> None:
        bs = self.geom.block_size
        for fblk, block in mapping:
            valid_len = max(0, min(bs, new_size - fblk * bs))
            self._write_csum_entry(block, valid_len)
        self._fence()

    def _verify_file_block(self, di: DramInode, file_block: int, data: bytes) -> bytes:
        if not self._from_mount:
            return data
        block = di.blockmap[file_block]
        entry = self.ops.read_pm(self.geom.csum_entry_addr(block), CSUM_ENTRY_SIZE)
        valid_len = read_u16(entry, CE_VALID_LEN)
        if valid_len == 0:
            return data
        if crc32(data[:valid_len]) != read_u32(entry, CE_CSUM):
            raise FsError(
                f"inode {di.ino}: data checksum mismatch on block {block}"
            )
        return data

    # ------------------------------------------------------------------
    # Pending-truncate record (bug 11) and truncate csum re-stamp (bug 12)
    # ------------------------------------------------------------------
    def _truncate_begin(self, di: DramInode, new_size: int) -> None:
        geom = self.geom
        bs = geom.block_size
        cutoff = (new_size + bs - 1) // bs
        to_free = sorted(
            block for fblk, block in di.blockmap.items() if fblk >= cutoff
        )[:PT_MAX_BLOCKS]
        record = bytearray(PT_BLOCKS + 4 * PT_MAX_BLOCKS)
        record[PT_VALID] = 1
        record[PT_INO : PT_INO + 4] = u32(di.ino)
        record[PT_NEW_SIZE : PT_NEW_SIZE + 8] = u64(new_size)
        record[PT_N_BLOCKS : PT_N_BLOCKS + 4] = u32(len(to_free))
        for i, block in enumerate(to_free):
            record[PT_BLOCKS + 4 * i : PT_BLOCKS + 4 * i + 4] = u32(block)
        self._nt(geom.pending_truncate.offset, bytes(record))
        self._fence()
        if not self.bugcfg.has(12):
            # Re-stamp the tail block's checksum over the new, shorter valid
            # length before the size change commits.
            tail_blk = new_size // bs
            if new_size % bs and tail_blk in di.blockmap:
                self._write_csum_entry(di.blockmap[tail_blk], new_size % bs)
                self._fence()
        else:
            self.cov("fortis.stale_data_csum")

    def _truncate_end(self, di: DramInode) -> None:
        self._flush_write(self.geom.pending_truncate.offset, b"\x00")
        self._fence()

    # ------------------------------------------------------------------
    # Mount-time verification and recovery extras
    # ------------------------------------------------------------------
    def _verify_slot(self, ino: int, slot_buf: bytes) -> None:
        if self._slot_csum(slot_buf) != read_u32(slot_buf, L.INO_CSUM):
            self._bad_slots.add(ino)

    def _recovery_extra(self, parsed: Dict[int, DramInode], reachable) -> None:
        for ino in self._bad_slots:
            di = self.inodes.get(ino)
            if di is not None:
                di.corrupt = True
        self._replay_pending_truncate(parsed)

    def _replay_pending_truncate(self, parsed: Dict[int, DramInode]) -> None:
        """Replay an interrupted truncate's block freeing.

        The log rebuild already dropped the truncated mappings and rebuilt
        the allocator without them, so the recorded blocks are free by the
        time this runs.  The fixed path checks the allocator before freeing;
        bug 11 frees unconditionally and trips the double-free assertion.
        """
        from repro.fs.common.alloc import AllocatorError

        geom = self.geom
        record = self.ops.read_pm(
            geom.pending_truncate.offset, PT_BLOCKS + 4 * PT_MAX_BLOCKS
        )
        if record[PT_VALID] != 1:
            return
        self.cov("fortis.truncate_replay")
        ino = read_u32(record, PT_INO)
        new_size = read_u64(record, PT_NEW_SIZE)
        n_blocks = min(read_u32(record, PT_N_BLOCKS), PT_MAX_BLOCKS)
        di = parsed.get(ino)
        if di is not None and di.size <= new_size:
            # The size change committed; finish freeing the blocks.
            for i in range(n_blocks):
                block = read_u32(record, PT_BLOCKS + 4 * i)
                try:
                    if self.bugcfg.has(11):
                        self.alloc.free(block)
                    elif not self.alloc.is_free(block):
                        self.alloc.free(block)
                except AllocatorError as exc:
                    raise MountError(
                        f"recovery attempted to deallocate free block "
                        f"(bug 11): {exc}"
                    ) from exc
        self._flush_write(geom.pending_truncate.offset, b"\x00")
        self._fence()

    # ------------------------------------------------------------------
    # Syscall wrappers: record the operation name for the lazy-maintenance
    # bug paths and sync pending replicas before returning.
    # ------------------------------------------------------------------
    def _run_op(self, name: str, func, *args):
        self._op = name
        try:
            return func(*args)
        finally:
            self._op = ""
            self._flush_pending_replicas()

    def creat(self, path: str, mode: int = 0o644) -> None:
        return self._run_op("creat", super().creat, path, mode)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        return self._run_op("mkdir", super().mkdir, path, mode)

    def rmdir(self, path: str) -> None:
        return self._run_op("rmdir", super().rmdir, path)

    def link(self, oldpath: str, newpath: str) -> None:
        return self._run_op("link", super().link, oldpath, newpath)

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            target = self.inodes.get(parent.children[name])
            if target is not None and not target.corrupt:
                self._verify_replica(target.ino)
        return self._run_op("unlink", super().unlink, path)

    def rename(self, oldpath: str, newpath: str) -> None:
        return self._run_op("rename", super().rename, oldpath, newpath)

    def write(self, path: str, offset: int, data: bytes) -> int:
        return self._run_op("write", super().write, path, offset, data)

    def truncate(self, path: str, length: int) -> None:
        return self._run_op("truncate", super().truncate, path, length)

    def fallocate(self, path: str, offset: int, length: int) -> None:
        return self._run_op("fallocate", super().fallocate, path, offset, length)
