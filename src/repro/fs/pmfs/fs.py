"""PMFS-like in-place-update PM file system.

Persistence protocol
--------------------

Metadata lives in fixed on-PM structures (inode table, directory blocks,
block bitmap) updated *in place* under the protection of an undo journal:
before-images are logged, the updates are applied and flushed, then the
journal is deactivated.  Multi-step block freeing (truncate, unlink, rmdir,
rename-over) is additionally guarded by a persistent truncate list that
mount-time recovery replays.

Only the free lists live in DRAM and are rebuilt at mount — the recovery
ordering around that rebuild is PMFS bug 13.  The other PMFS bugs from
Table 1 (14, 16, 17) are organic orderings in this file, guarded by
``BugConfig``.  WineFS subclasses this implementation (see
:mod:`repro.fs.winefs.fs`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fs.bugs import BugConfig
from repro.fs.common.alloc import BlockAllocator, SlotAllocator
from repro.fs.common.layout import read_u16, read_u32, read_u64, u32, u64
from repro.fs.pmfs import layout as L
from repro.pm.device import PMDevice, PMDeviceError
from repro.pm.persistence import PersistenceOps, persistence_function
from repro.vfs.errors import (
    EEXIST,
    EFBIG,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    FsError,
)
from repro.vfs.interface import FileObservation, FileSystem, MountError
from repro.vfs.path import is_ancestor, normalize, split_parent, split_path
from repro.vfs.types import FileType, Stat

ROOT_INO = 0


class PmfsPersistence(PersistenceOps):
    """PMFS's centralized persistence functions under their PMFS names."""

    persistence_function_names = (
        "pmfs_memcpy_nocache",
        "pmfs_memset_nocache",
        "pmfs_flush_buffer",
        "pmfs_persistent_barrier",
    )

    @persistence_function("nt_store", addr_arg=0, data_arg=1)
    def pmfs_memcpy_nocache(self, addr: int, data: bytes) -> None:
        PersistenceOps.memcpy_nt(self, addr, data)

    @persistence_function("nt_store", addr_arg=0, length_arg=2)
    def pmfs_memset_nocache(self, addr: int, value: int, length: int) -> None:
        PersistenceOps.memset_nt(self, addr, value, length)

    @persistence_function("flush", addr_arg=0, length_arg=1)
    def pmfs_flush_buffer(self, addr: int, length: int) -> None:
        PersistenceOps.flush_range(self, addr, length)

    @persistence_function("fence")
    def pmfs_persistent_barrier(self) -> None:
        PersistenceOps.sfence(self)


class PmfsFS(FileSystem):
    """The PMFS-like file system (see module docstring)."""

    name = "pmfs"
    strong_guarantees = True
    atomic_data_writes = False

    ops_class = PmfsPersistence
    geometry_class = L.PmfsGeometry

    #: Table-1 bug ids for the code shared with WineFS (overridden there).
    BUG_UNSYNC_WRITE = 14
    BUG_FLUSH_ROUND = 17

    def __init__(
        self,
        device: PMDevice,
        ops: PersistenceOps,
        geometry: L.PmfsGeometry,
        bugs: Optional[BugConfig] = None,
    ) -> None:
        super().__init__(device, ops)
        self.geom = geometry
        self.bugcfg = bugs if bugs is not None else BugConfig.fixed()
        # DRAM-only free lists, rebuilt at mount (Observation 3).
        self._free_blocks: Optional[BlockAllocator] = None
        self._free_inodes: Optional[SlotAllocator] = None
        self._op_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def mkfs(
        cls,
        device: PMDevice,
        geometry=None,
        bugs: Optional[BugConfig] = None,
        **kwargs,
    ) -> "PmfsFS":
        geom = geometry or cls.geometry_class(device_size=device.size)
        if geom.device_size != device.size:
            raise ValueError("geometry does not match device size")
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._format()
        return fs

    @classmethod
    def mount(cls, device: PMDevice, bugs: Optional[BugConfig] = None, **kwargs) -> "PmfsFS":
        try:
            geom = L.unpack_superblock(device.read(0, 64))
        except ValueError as exc:
            raise MountError(str(exc)) from exc
        if type(geom) is not cls.geometry_class:
            geom = cls.geometry_class(
                device_size=geom.device_size,
                block_size=geom.block_size,
                inode_blocks=geom.inode_blocks,
                journal_blocks=geom.journal_blocks,
                n_cpus=geom.n_cpus,
            )
        # A torn or corrupt superblock can describe any geometry (a block
        # size that is not positive or does not divide the device size
        # already failed above).  Recovery indexes the one-block bitmap by
        # block number and reads every metadata region, so a geometry the
        # device or the bitmap cannot hold must fail the mount, not the
        # checker.
        if (
            geom.device_size != device.size
            or geom.n_blocks > geom.bitmap.size * 8
            or geom.first_data_block * geom.block_size > device.size
        ):
            raise MountError(
                f"corrupt superblock geometry: device size "
                f"{geom.device_size}, block size {geom.block_size} on a "
                f"{device.size}-byte device"
            )
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._recover()
        return fs

    @classmethod
    def layout_map(cls, image: bytes):
        from repro.fs.common.layout import (
            TORN_SUPERBLOCK,
            LayoutMap,
            NamedRegion,
            Region,
            single_region_map,
        )

        try:
            geom = L.unpack_superblock(bytes(image[:64]))
        except TORN_SUPERBLOCK:
            return single_region_map(len(image))
        journal = Region(
            geom.journal_area(0).offset,
            geom.n_cpus * geom.journal_blocks * geom.block_size,
        )
        data_start = geom.first_data_block * geom.block_size
        return LayoutMap((
            NamedRegion("superblock", geom.superblock),
            NamedRegion("journal", journal,
                        slot_size=geom.journal_blocks * geom.block_size),
            NamedRegion("truncate_list", geom.truncate_list),
            NamedRegion("inode_table", geom.inode_table,
                        slot_size=L.INODE_SLOT_SIZE),
            NamedRegion("bitmap", geom.bitmap),
            NamedRegion("data", Region(data_start, geom.device_size - data_start),
                        slot_size=geom.block_size),
        ))

    def _format(self) -> None:
        geom = self.geom
        meta_end = geom.first_data_block * geom.block_size
        self._memset(0, 0, meta_end)
        self._nt(0, L.pack_superblock(geom))
        self._free_blocks = BlockAllocator(geom.first_data_block, geom.n_data_blocks)
        self._free_inodes = SlotAllocator(geom.n_inodes, reserved=[ROOT_INO])
        # Metadata blocks are permanently allocated in the bitmap.
        for block in range(geom.first_data_block):
            self._bitmap_set(block, True)
        # Root directory with one (zeroed) dentry block.
        root_block = self._free_blocks.alloc()
        self._memset(geom.block_addr(root_block), 0, geom.block_size)
        self._bitmap_set(root_block, True)
        slot = L.pack_inode_slot(L.FTYPE_DIR, 0o755, 2, geom.block_size, [root_block])
        self._nt(geom.inode_addr(ROOT_INO), slot)
        self._fence()

    def _recover(self) -> None:
        """Mount-time recovery: journal rollback, free-list rebuild,
        truncate-list replay.

        The fixed ordering rebuilds the DRAM free lists *before* replaying
        the truncate list; with bug 13 enabled the replay runs first and
        dereferences the not-yet-built free list, the null-pointer crash the
        paper describes.
        """
        geom = self.geom
        for cpu in range(geom.n_cpus):
            area_cpu = 0 if self.bugcfg.has(19) else cpu
            self._rollback_journal(area_cpu)
        if self.bugcfg.has(13):
            try:
                self._replay_truncate_list()
            except AttributeError as exc:
                raise MountError(
                    "kernel NULL pointer dereference in truncate-list replay "
                    f"(bug 13): {exc}"
                ) from exc
            self._rebuild_free_lists()
        else:
            self._rebuild_free_lists()
            self._replay_truncate_list()
        root = self._read_slot(ROOT_INO)
        if not root.valid or root.ftype != L.FTYPE_DIR:
            raise MountError("root inode missing or not a directory")

    def _rebuild_free_lists(self) -> None:
        geom = self.geom
        blocks = BlockAllocator.from_bitmap(
            geom.first_data_block,
            geom.n_data_blocks,
            self.ops.read_pm(geom.bitmap.offset, geom.bitmap.size),
        )
        inodes = SlotAllocator(geom.n_inodes, reserved=[ROOT_INO])
        for ino in range(geom.n_inodes):
            slot = self.ops.read_pm(geom.inode_addr(ino), L.INODE_SLOT_SIZE)
            if slot[L.INO_VALID] == 1:
                inodes.mark_used(ino)
        self._free_blocks = blocks
        self._free_inodes = inodes

    # ------------------------------------------------------------------
    # Low-level persistence helpers
    # ------------------------------------------------------------------
    def _nt(self, addr: int, data: bytes) -> None:
        self.ops.pmfs_memcpy_nocache(addr, data)

    def _memset(self, addr: int, value: int, length: int) -> None:
        self.ops.pmfs_memset_nocache(addr, value, length)

    def _flush_write(self, addr: int, data: bytes) -> None:
        self.ops.store_cached(addr, data)
        self.ops.pmfs_flush_buffer(addr, len(data))

    def _fence(self) -> None:
        self.ops.pmfs_persistent_barrier()

    def _write_data(self, addr: int, data: bytes) -> None:
        """In-place file data write.

        Cache-line-aligned writes use non-temporal stores; anything else
        goes through cached stores plus an explicit write-back of the
        touched range.  The shared flush-rounding bug (17/18) computes the
        write-back length as ``len & ~63`` — rounded *down* — so the final
        partial cache line (or a whole sub-line write) never becomes
        durable.
        """
        if addr % 64 == 0 and len(data) % 64 == 0:
            self._nt(addr, data)
            return
        self.cov("write.unaligned_data")
        self.ops.store_cached(addr, data)
        if self.bugcfg.has(self.BUG_FLUSH_ROUND):
            self.cov("write.flush_rounded_down")
            flush_len = (len(data) // 64) * 64
            if flush_len:
                self.ops.pmfs_flush_buffer(addr, flush_len)
        else:
            self.ops.pmfs_flush_buffer(addr, len(data))

    # ------------------------------------------------------------------
    # Bitmap
    # ------------------------------------------------------------------
    def _bitmap_set(self, block: int, used: bool) -> None:
        addr = self.geom.bitmap_byte_addr(block)
        byte = self.ops.read_pm(addr, 1)[0]
        if used:
            byte |= 1 << (block % 8)
        else:
            byte &= ~(1 << (block % 8))
        self._flush_write(addr, bytes([byte]))

    def _bitmap_get(self, block: int) -> bool:
        byte = self.ops.read_pm(self.geom.bitmap_byte_addr(block), 1)[0]
        return bool(byte & (1 << (block % 8)))

    # ------------------------------------------------------------------
    # Undo journal
    # ------------------------------------------------------------------
    def _next_cpu(self) -> int:
        cpu = self._op_counter % self.geom.n_cpus
        self._op_counter += 1
        return cpu

    def _tx_begin(self, cpu: int, ranges: List[Tuple[int, int]]) -> None:
        """Persist undo records for ``ranges`` and activate the journal.

        The fixed path fences between the records and the header so the
        header never becomes durable without its records; with bug 16 that
        fence is skipped, and a crash can persist a header whose count
        covers stale or unwritten records.
        """
        geom = self.geom
        area = geom.journal_area(cpu)
        if len(ranges) > geom.journal_records_per_area:
            raise ENOSPC(f"transaction too large: {len(ranges)} undo records")
        records = b"".join(
            L.pack_journal_record(addr, self.ops.read_pm(addr, length))
            for addr, length in ranges
        )
        self._nt(area.offset + L.JOURNAL_HEADER, records)
        if not self.bugcfg.has(16):
            self._fence()
        self._flush_write(area.offset, bytes([1, len(ranges)]))
        self._fence()

    def _tx_end(self, cpu: int) -> None:
        area = self.geom.journal_area(cpu)
        self._flush_write(area.offset, b"\x00")
        self._fence()

    def _rollback_journal(self, cpu: int) -> None:
        """Roll back an active transaction in journal area ``cpu``.

        The fixed path validates every record; the bug-16 path trusts the
        persisted count blindly, so stale or torn records send it reading
        and writing out of bounds.
        """
        geom = self.geom
        area = geom.journal_area(cpu)
        header = self.ops.read_pm(area.offset, 2)
        if header[0] != 1:
            return
        n_records = header[1]
        if not self.bugcfg.has(16) and n_records > geom.journal_records_per_area:
            raise MountError(f"corrupt journal header: {n_records} records")
        for i in reversed(range(n_records)):
            rec_addr = area.offset + L.JOURNAL_HEADER + i * L.RECORD_SIZE
            try:
                rec = self.ops.read_pm(rec_addr, L.RECORD_SIZE)
                addr = read_u64(rec, L.REC_ADDR)
                length = read_u16(rec, L.REC_LEN)
                if not self.bugcfg.has(16):
                    if rec[L.REC_MAGIC] != L.RECORD_MAGIC or length > 64:
                        raise MountError(f"corrupt journal record {i}")
                    self.device.check_range(addr, length)
                before = self.ops.read_pm(rec_addr + L.REC_DATA, length)
                self._flush_write(addr, before)
            except PMDeviceError as exc:
                raise MountError(
                    f"out-of-bounds memory access during journal replay "
                    f"(bug 16): {exc}"
                ) from exc
        self._fence()
        self._flush_write(area.offset, b"\x00")
        self._fence()

    # ------------------------------------------------------------------
    # Truncate list
    # ------------------------------------------------------------------
    def _truncate_entry_addr(self, index: int) -> int:
        return self.geom.truncate_list.offset + index * L.TL_ENTRY_SIZE

    def _find_free_truncate_entry(self) -> int:
        for i in range(self.geom.n_truncate_entries):
            if self.ops.read_pm(self._truncate_entry_addr(i), 1)[0] == 0:
                return i
        raise ENOSPC("truncate list full")

    def _clear_truncate_entry(self, index: int) -> None:
        self._flush_write(self._truncate_entry_addr(index), b"\x00")
        self._fence()

    def _replay_truncate_list(self) -> None:
        for i in range(self.geom.n_truncate_entries):
            buf = self.ops.read_pm(self._truncate_entry_addr(i), L.TL_ENTRY_SIZE)
            if buf[L.TL_VALID] != 1:
                continue
            self.cov("recovery.truncate_replay")
            ino = read_u32(buf, L.TL_INO)
            new_size = read_u64(buf, L.TL_NEW_SIZE)
            if ino < self.geom.n_inodes and self._read_slot(ino).valid:
                self._do_truncate_free(ino, new_size)
            self._clear_truncate_entry(i)

    def _do_truncate_free(self, ino: int, new_size: int) -> None:
        """Free the blocks of ``ino`` beyond ``new_size`` (idempotent).

        Used both by the runtime free phase and by truncate-list replay;
        finishes by invalidating inodes whose link count reached zero.
        """
        geom = self.geom
        slot = self._read_slot(ino)
        cutoff = (new_size + geom.block_size - 1) // geom.block_size
        slot_addr = geom.inode_addr(ino)
        # Zero the truncated tail of the kept block so a later extension
        # reads zeros (idempotent; also runs during truncate-list replay).
        tail_idx = new_size // geom.block_size
        if new_size % geom.block_size and tail_idx < L.N_DIRECT and slot.ptrs[tail_idx]:
            addr = geom.block_addr(slot.ptrs[tail_idx]) + new_size % geom.block_size
            self._memset(addr, 0, geom.block_size - new_size % geom.block_size)
        for idx, block in slot.mapped():
            if idx < cutoff:
                continue
            if self._bitmap_get(block):
                self._bitmap_set(block, False)
                self._free_blocks.free(block)
            self._flush_write(slot_addr + L.INO_PTRS + 4 * idx, u32(0))
        if slot.size > new_size:
            self._flush_write(slot_addr + L.INO_SIZE, u64(new_size))
        if slot.nlink == 0:
            self._flush_write(slot_addr + L.INO_VALID, b"\x00")
            if self._free_inodes is not None and ino != ROOT_INO:
                self._free_inodes.mark_used(ino)
                self._free_inodes.free(ino)
        self._fence()

    # ------------------------------------------------------------------
    # Metadata access
    # ------------------------------------------------------------------
    def _read_slot(self, ino: int) -> L.InodeSlot:
        if not (0 <= ino < self.geom.n_inodes):
            raise FsError(f"inode number {ino} out of range")
        return L.unpack_inode_slot(self.ops.read_pm(self.geom.inode_addr(ino), L.INODE_SLOT_SIZE))

    def _live_slot(self, ino: int) -> L.InodeSlot:
        slot = self._read_slot(ino)
        if not slot.valid:
            raise FsError(f"dentry references invalid inode {ino}")
        return slot

    def _dir_entries(self, slot: L.InodeSlot) -> List[Tuple[int, L.Dentry]]:
        """All dentry slots of a directory as (address, dentry) pairs."""
        out: List[Tuple[int, L.Dentry]] = []
        per_block = self.geom.block_size // L.DENTRY_SIZE
        for _, block in slot.mapped():
            base = self.geom.block_addr(block)
            for j in range(per_block):
                addr = base + j * L.DENTRY_SIZE
                out.append((addr, L.unpack_dentry(self.ops.read_pm(addr, L.DENTRY_SIZE))))
        return out

    def _dir_lookup(self, slot: L.InodeSlot, name: str) -> Optional[Tuple[int, L.Dentry]]:
        for addr, dentry in self._dir_entries(slot):
            if dentry.valid and dentry.name == name:
                return addr, dentry
        return None

    def _lookup(self, path: str) -> Tuple[int, L.InodeSlot]:
        ino = ROOT_INO
        slot = self._live_slot(ino)
        for part in split_path(path):
            if slot.ftype != L.FTYPE_DIR:
                raise ENOTDIR(path)
            found = self._dir_lookup(slot, part)
            if found is None:
                raise ENOENT(path)
            ino = found[1].ino
            slot = self._live_slot(ino)
        return ino, slot

    def _lookup_parent(self, path: str) -> Tuple[int, L.InodeSlot, str]:
        parent_path, name = split_parent(path)
        ino, slot = self._lookup(parent_path)
        if slot.ftype != L.FTYPE_DIR:
            raise ENOTDIR(parent_path)
        if len(name.encode("utf-8")) >= L.NAME_FIELD:
            raise EINVAL(f"name too long: {name!r}")
        return ino, slot, name

    def _find_dentry_slot(
        self, parent_ino: int, parent_slot: L.InodeSlot
    ) -> Tuple[int, List[Tuple[int, int]], List[Tuple[int, bytes]]]:
        """Locate a free dentry slot, extending the directory if needed.

        Returns ``(dentry_addr, extra_undo_ranges, extra_updates)`` where the
        extras publish a freshly allocated directory block when one was
        needed (the block itself is zeroed before the transaction starts).
        """
        geom = self.geom
        for addr, dentry in self._dir_entries(parent_slot):
            if not dentry.valid:
                return addr, [], []
        # Extend the directory with a new block.
        free_idx = next(
            (i for i, p in enumerate(parent_slot.ptrs) if p == 0), None
        )
        if free_idx is None:
            raise ENOSPC("directory is full")
        self.cov("dir.extend")
        block = self._free_blocks.alloc()
        self._memset(geom.block_addr(block), 0, geom.block_size)
        self._fence()
        slot_addr = geom.inode_addr(parent_ino)
        undo = [
            (slot_addr, L.INODE_SLOT_SIZE),
            (geom.bitmap_byte_addr(block), 1),
        ]
        updates: List[Tuple[int, bytes]] = [
            (slot_addr + L.INO_PTRS + 4 * free_idx, u32(block)),
            (slot_addr + L.INO_SIZE, u64(parent_slot.size + geom.block_size)),
        ]
        return geom.block_addr(block), undo, [("bitmap_set", block)] + updates  # type: ignore[list-item]

    # ------------------------------------------------------------------
    # Syscalls: namespace operations
    # ------------------------------------------------------------------
    def _apply_updates(self, updates: List) -> None:
        """Apply in-place updates staged by an operation."""
        for update in updates:
            if isinstance(update, tuple) and update[0] == "bitmap_set":
                self._bitmap_set(update[1], True)
            else:
                addr, data = update
                self._flush_write(addr, data)

    def _make_inode(self, ftype: int, mode: int, nlink: int, size: int, ptrs=()) -> Tuple[int, bytes]:
        ino = self._free_inodes.alloc()
        return ino, L.pack_inode_slot(ftype, mode, nlink, size, ptrs)

    def creat(self, path: str, mode: int = 0o644) -> None:
        parent_ino, parent_slot, name = self._lookup_parent(path)
        if self._dir_lookup(parent_slot, name) is not None:
            raise EEXIST(path)
        self.cov("creat")
        cpu = self._next_cpu()
        dentry_addr, extra_undo, extra_updates = self._find_dentry_slot(parent_ino, parent_slot)
        ino, slot_bytes = self._make_inode(L.FTYPE_REG, mode, 1, 0)
        undo = [
            (dentry_addr, L.DENTRY_SIZE),
            (self.geom.inode_addr(ino), L.INODE_SLOT_SIZE),
        ] + extra_undo
        self._tx_begin(cpu, undo)
        self._apply_updates(extra_updates)
        self._flush_write(self.geom.inode_addr(ino), slot_bytes)
        self._flush_write(dentry_addr, L.pack_dentry(ino, name))
        self._fence()
        self._tx_end(cpu)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        parent_ino, parent_slot, name = self._lookup_parent(path)
        if self._dir_lookup(parent_slot, name) is not None:
            raise EEXIST(path)
        self.cov("mkdir")
        cpu = self._next_cpu()
        dentry_addr, extra_undo, extra_updates = self._find_dentry_slot(parent_ino, parent_slot)
        dir_block = self._free_blocks.alloc()
        self._memset(self.geom.block_addr(dir_block), 0, self.geom.block_size)
        self._fence()
        ino, slot_bytes = self._make_inode(
            L.FTYPE_DIR, mode, 2, self.geom.block_size, [dir_block]
        )
        parent_addr = self.geom.inode_addr(parent_ino)
        undo = [
            (dentry_addr, L.DENTRY_SIZE),
            (self.geom.inode_addr(ino), L.INODE_SLOT_SIZE),
            (parent_addr, L.INODE_SLOT_SIZE),
            (self.geom.bitmap_byte_addr(dir_block), 1),
        ] + extra_undo
        self._tx_begin(cpu, undo)
        self._apply_updates(extra_updates)
        self._bitmap_set(dir_block, True)
        self._flush_write(self.geom.inode_addr(ino), slot_bytes)
        self._flush_write(dentry_addr, L.pack_dentry(ino, name))
        self._flush_write(parent_addr + L.INO_NLINK, u32(parent_slot.nlink + 1))
        self._fence()
        self._tx_end(cpu)

    def link(self, oldpath: str, newpath: str) -> None:
        target_ino, target_slot = self._lookup(oldpath)
        if target_slot.ftype == L.FTYPE_DIR:
            raise EISDIR(f"cannot hard-link a directory: {oldpath}")
        parent_ino, parent_slot, name = self._lookup_parent(newpath)
        if self._dir_lookup(parent_slot, name) is not None:
            raise EEXIST(newpath)
        self.cov("link")
        cpu = self._next_cpu()
        dentry_addr, extra_undo, extra_updates = self._find_dentry_slot(parent_ino, parent_slot)
        target_addr = self.geom.inode_addr(target_ino)
        undo = [
            (dentry_addr, L.DENTRY_SIZE),
            (target_addr, L.INODE_SLOT_SIZE),
        ] + extra_undo
        self._tx_begin(cpu, undo)
        self._apply_updates(extra_updates)
        self._flush_write(dentry_addr, L.pack_dentry(target_ino, name))
        self._flush_write(target_addr + L.INO_NLINK, u32(target_slot.nlink + 1))
        self._fence()
        self._tx_end(cpu)

    def unlink(self, path: str) -> None:
        parent_ino, parent_slot, name = self._lookup_parent(path)
        found = self._dir_lookup(parent_slot, name)
        if found is None:
            raise ENOENT(path)
        dentry_addr, dentry = found
        target_slot = self._live_slot(dentry.ino)
        if target_slot.ftype == L.FTYPE_DIR:
            raise EISDIR(path)
        self.cov("unlink")
        cpu = self._next_cpu()
        target_addr = self.geom.inode_addr(dentry.ino)
        last_link = target_slot.nlink <= 1
        undo = [(dentry_addr, L.DENTRY_SIZE), (target_addr, L.INODE_SLOT_SIZE)]
        tl_index: Optional[int] = None
        if last_link:
            tl_index = self._find_free_truncate_entry()
            undo.append((self._truncate_entry_addr(tl_index), L.TL_ENTRY_SIZE))
        self._tx_begin(cpu, undo)
        self._flush_write(dentry_addr, b"\x00")
        # A torn crash state can present nlink == 0 with a live dentry;
        # saturate rather than underflow the unsigned field.
        self._flush_write(target_addr + L.INO_NLINK, u32(max(0, target_slot.nlink - 1)))
        if tl_index is not None:
            self._flush_write(
                self._truncate_entry_addr(tl_index),
                L.pack_truncate_entry(dentry.ino, 0),
            )
        self._fence()
        self._tx_end(cpu)
        if tl_index is not None:
            self.cov("unlink.lastlink")
            self._do_truncate_free(dentry.ino, 0)
            self._clear_truncate_entry(tl_index)

    def rmdir(self, path: str) -> None:
        if normalize(path) == "/":
            raise EINVAL("cannot rmdir the root")
        parent_ino, parent_slot, name = self._lookup_parent(path)
        found = self._dir_lookup(parent_slot, name)
        if found is None:
            raise ENOENT(path)
        dentry_addr, dentry = found
        target_slot = self._live_slot(dentry.ino)
        if target_slot.ftype != L.FTYPE_DIR:
            raise ENOTDIR(path)
        if any(d.valid for _, d in self._dir_entries(target_slot)):
            raise ENOTEMPTY(path)
        self.cov("rmdir")
        cpu = self._next_cpu()
        target_addr = self.geom.inode_addr(dentry.ino)
        parent_addr = self.geom.inode_addr(parent_ino)
        tl_index = self._find_free_truncate_entry()
        undo = [
            (dentry_addr, L.DENTRY_SIZE),
            (target_addr, L.INODE_SLOT_SIZE),
            (parent_addr, L.INODE_SLOT_SIZE),
            (self._truncate_entry_addr(tl_index), L.TL_ENTRY_SIZE),
        ]
        self._tx_begin(cpu, undo)
        self._flush_write(dentry_addr, b"\x00")
        self._flush_write(target_addr + L.INO_NLINK, u32(0))
        self._flush_write(parent_addr + L.INO_NLINK, u32(max(2, parent_slot.nlink - 1)))
        self._flush_write(
            self._truncate_entry_addr(tl_index), L.pack_truncate_entry(dentry.ino, 0)
        )
        self._fence()
        self._tx_end(cpu)
        self._do_truncate_free(dentry.ino, 0)
        self._clear_truncate_entry(tl_index)

    def rename(self, oldpath: str, newpath: str) -> None:
        if normalize(oldpath) == normalize(newpath):
            self._lookup(oldpath)
            return
        src_parent_ino, src_parent_slot, src_name = self._lookup_parent(oldpath)
        found = self._dir_lookup(src_parent_slot, src_name)
        if found is None:
            raise ENOENT(oldpath)
        old_dentry_addr, old_dentry = found
        moved_slot = self._live_slot(old_dentry.ino)
        if moved_slot.ftype == L.FTYPE_DIR and is_ancestor(oldpath, newpath):
            raise EINVAL("cannot move a directory into itself")
        dst_parent_ino, dst_parent_slot, dst_name = self._lookup_parent(newpath)
        target_found = self._dir_lookup(dst_parent_slot, dst_name)
        target_dentry: Optional[L.Dentry] = None
        target_slot: Optional[L.InodeSlot] = None
        if target_found is not None:
            target_dentry = target_found[1]
            target_slot = self._live_slot(target_dentry.ino)
            if target_slot.ftype == L.FTYPE_DIR:
                if moved_slot.ftype != L.FTYPE_DIR:
                    raise EISDIR(newpath)
                if any(d.valid for _, d in self._dir_entries(target_slot)):
                    raise ENOTEMPTY(newpath)
            elif moved_slot.ftype == L.FTYPE_DIR:
                raise ENOTDIR(newpath)
        self.cov("rename")
        cpu = self._next_cpu()
        geom = self.geom
        if target_found is not None:
            new_dentry_addr = target_found[0]
            extra_undo: List[Tuple[int, int]] = []
            extra_updates: List = []
        else:
            # Re-read the source dentry location in case the directory
            # extension reshuffles blocks (it does not, but stay explicit).
            new_dentry_addr, extra_undo, extra_updates = self._find_dentry_slot(
                dst_parent_ino, dst_parent_slot
            )
        undo = [
            (old_dentry_addr, L.DENTRY_SIZE),
            (new_dentry_addr, L.DENTRY_SIZE),
        ] + extra_undo
        cross_dir_move = src_parent_ino != dst_parent_ino and moved_slot.ftype == L.FTYPE_DIR
        if cross_dir_move:
            undo.append((geom.inode_addr(src_parent_ino), L.INODE_SLOT_SIZE))
            undo.append((geom.inode_addr(dst_parent_ino), L.INODE_SLOT_SIZE))
        tl_index: Optional[int] = None
        target_last_link = False
        if target_slot is not None:
            undo.append((geom.inode_addr(target_dentry.ino), L.INODE_SLOT_SIZE))
            target_last_link = target_slot.ftype == L.FTYPE_DIR or target_slot.nlink <= 1
            if target_last_link:
                tl_index = self._find_free_truncate_entry()
                undo.append((self._truncate_entry_addr(tl_index), L.TL_ENTRY_SIZE))
        self._tx_begin(cpu, undo)
        self._apply_updates(extra_updates)
        self._flush_write(new_dentry_addr, L.pack_dentry(old_dentry.ino, dst_name))
        self._flush_write(old_dentry_addr, b"\x00")
        if cross_dir_move:
            self._flush_write(
                geom.inode_addr(src_parent_ino) + L.INO_NLINK,
                u32(src_parent_slot.nlink - 1),
            )
            self._flush_write(
                geom.inode_addr(dst_parent_ino) + L.INO_NLINK,
                u32(dst_parent_slot.nlink + 1),
            )
        if target_slot is not None:
            new_nlink = 0 if target_slot.ftype == L.FTYPE_DIR else max(0, target_slot.nlink - 1)
            self._flush_write(
                geom.inode_addr(target_dentry.ino) + L.INO_NLINK, u32(new_nlink)
            )
            if tl_index is not None:
                self._flush_write(
                    self._truncate_entry_addr(tl_index),
                    L.pack_truncate_entry(target_dentry.ino, 0),
                )
        self._fence()
        self._tx_end(cpu)
        if tl_index is not None:
            self._do_truncate_free(target_dentry.ino, 0)
            self._clear_truncate_entry(tl_index)

    # ------------------------------------------------------------------
    # Syscalls: data operations
    # ------------------------------------------------------------------
    def _file_slot(self, path: str) -> Tuple[int, L.InodeSlot]:
        ino, slot = self._lookup(path)
        if slot.ftype != L.FTYPE_REG:
            raise EISDIR(path)
        return ino, slot

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
        missing = [
            i for i in range(first_blk, last_blk + 1) if slot.ptrs[i] == 0
        ]
        new_blocks: Dict[int, int] = {i: self._free_blocks.alloc() for i in missing}

        def data_for_block(idx: int) -> bytes:
            lo = max(offset, idx * bs)
            hi = min(end, (idx + 1) * bs)
            return data[lo - offset : hi - offset]

        def write_new_block_data() -> None:
            for idx, block in new_blocks.items():
                content = bytearray(bs)
                lo = max(offset, idx * bs)
                hi = min(end, (idx + 1) * bs)
                content[lo - idx * bs : hi - idx * bs] = data_for_block(idx)
                self._nt(geom.block_addr(block), bytes(content))

        def write_existing_block_data() -> None:
            for idx in range(first_blk, last_blk + 1):
                if idx in new_blocks:
                    continue
                lo = max(offset, idx * bs)
                self._write_data(
                    geom.block_addr(slot.ptrs[idx]) + lo - idx * bs,
                    data_for_block(idx),
                )

        def publish_metadata() -> None:
            slot_addr = geom.inode_addr(ino)
            undo = [(slot_addr, L.INODE_SLOT_SIZE)]
            undo += [(geom.bitmap_byte_addr(b), 1) for b in new_blocks.values()]
            self._tx_begin(cpu, undo)
            for idx, block in new_blocks.items():
                self._bitmap_set(block, True)
                self._flush_write(slot_addr + L.INO_PTRS + 4 * idx, u32(block))
            if end > slot.size:
                self._flush_write(slot_addr + L.INO_SIZE, u64(end))
            self._fence()
            self._tx_end(cpu)

        needs_publish = bool(new_blocks) or end > slot.size
        if self.bugcfg.has(self.BUG_UNSYNC_WRITE):
            # Bug 14/15: publish the metadata first, then write the data with
            # no trailing fence — the syscall returns with the data in flight.
            self.cov("write.publish_first")
            if needs_publish:
                publish_metadata()
            write_new_block_data()
            write_existing_block_data()
        else:
            write_new_block_data()
            write_existing_block_data()
            self._fence()
            if needs_publish:
                publish_metadata()
        return len(data)

    def fallocate(self, path: str, offset: int, length: int) -> None:
        ino, slot = self._file_slot(path)
        if offset < 0 or length <= 0:
            raise EINVAL("fallocate needs offset >= 0 and length > 0")
        end = offset + length
        if end > self.geom.max_file_size:
            raise EFBIG("fallocate beyond maximum file size")
        self.cov("fallocate")
        geom = self.geom
        bs = geom.block_size
        cpu = self._next_cpu()
        first_blk = offset // bs
        last_blk = (end - 1) // bs
        missing = [i for i in range(first_blk, last_blk + 1) if slot.ptrs[i] == 0]
        new_blocks = {i: self._free_blocks.alloc() for i in missing}
        for block in new_blocks.values():
            self._memset(geom.block_addr(block), 0, bs)
        if new_blocks:
            self._fence()
        slot_addr = geom.inode_addr(ino)
        undo = [(slot_addr, L.INODE_SLOT_SIZE)]
        undo += [(geom.bitmap_byte_addr(b), 1) for b in new_blocks.values()]
        self._tx_begin(cpu, undo)
        for idx, block in new_blocks.items():
            self._bitmap_set(block, True)
            self._flush_write(slot_addr + L.INO_PTRS + 4 * idx, u32(block))
        if end > slot.size:
            self._flush_write(slot_addr + L.INO_SIZE, u64(end))
        self._fence()
        self._tx_end(cpu)

    def truncate(self, path: str, length: int) -> None:
        ino, slot = self._file_slot(path)
        if length < 0:
            raise EINVAL("negative truncate length")
        if length > self.geom.max_file_size:
            raise EFBIG("truncate beyond maximum file size")
        if length == slot.size:
            return
        cpu = self._next_cpu()
        slot_addr = self.geom.inode_addr(ino)
        if length > slot.size:
            self.cov("truncate.extend")
            self._tx_begin(cpu, [(slot_addr, L.INODE_SLOT_SIZE)])
            self._flush_write(slot_addr + L.INO_SIZE, u64(length))
            self._fence()
            self._tx_end(cpu)
            return
        self.cov("truncate.shrink")
        tl_index = self._find_free_truncate_entry()
        self._tx_begin(
            cpu,
            [
                (slot_addr, L.INODE_SLOT_SIZE),
                (self._truncate_entry_addr(tl_index), L.TL_ENTRY_SIZE),
            ],
        )
        self._flush_write(slot_addr + L.INO_SIZE, u64(length))
        self._flush_write(
            self._truncate_entry_addr(tl_index), L.pack_truncate_entry(ino, length)
        )
        self._fence()
        self._tx_end(cpu)
        self._do_truncate_free(ino, length)
        self._clear_truncate_entry(tl_index)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self._read_slot_data(self._file_slot(path)[1], offset, length)

    def _read_slot_data(self, slot: L.InodeSlot, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise EINVAL("negative read offset or length")
        end = min(offset + length, slot.size)
        if offset >= end:
            return b""
        bs = self.geom.block_size
        out = bytearray()
        for idx in range(offset // bs, (end - 1) // bs + 1):
            if slot.ptrs[idx]:
                out.extend(self.ops.read_pm(self.geom.block_addr(slot.ptrs[idx]), bs))
            else:
                out.extend(b"\x00" * bs)
        base = (offset // bs) * bs
        return bytes(out[offset - base : end - base])

    # ------------------------------------------------------------------
    # Syscalls: introspection
    # ------------------------------------------------------------------
    def stat(self, path: str) -> Stat:
        return self._stat_of(*self._lookup(path))

    @staticmethod
    def _stat_of(ino: int, slot: L.InodeSlot) -> Stat:
        ftype = FileType.DIRECTORY if slot.ftype == L.FTYPE_DIR else FileType.REGULAR
        return Stat(ino, ftype, slot.size, slot.nlink, slot.mode)

    def readdir(self, path: str) -> List[str]:
        _, slot = self._lookup(path)
        if slot.ftype != L.FTYPE_DIR:
            raise ENOTDIR(path)
        return sorted(d.name for _, d in self._dir_entries(slot) if d.valid)

    def _walk_into(self, path: str, out: Dict[str, FileObservation]) -> None:
        self._walk_node(path, self._lookup(path), out)

    def _observe_node(self, path: str, node: Tuple[int, L.InodeSlot]):
        ino, slot = node
        if slot.ftype == L.FTYPE_DIR:
            # One read of the dentries; a name maps to its first valid
            # dentry, the one _dir_lookup would find.
            names: List[str] = []
            first: Dict[str, int] = {}
            for _, dentry in self._dir_entries(slot):
                if dentry.valid:
                    names.append(dentry.name)
                    first.setdefault(dentry.name, dentry.ino)
            return (
                FileObservation.for_dir(self._stat_of(ino, slot), names),
                lambda name: (first[name], self._live_slot(first[name])),
            )
        if slot.ftype != L.FTYPE_REG:
            raise EISDIR(path)
        content = self._read_slot_data(slot, 0, slot.size)
        return FileObservation.for_file(self._stat_of(ino, slot), content), None
