"""NOVA-like log-structured PM file system.

Persistence protocol
--------------------

Metadata changes are appended to per-inode logs; the *commit pointer* is the
inode slot's ``log_count`` field, updated in place after the entries are
durable.  Operations spanning several inodes (creat, link, unlink, rename)
stage their commit-pointer updates in a small circular journal so that all
logs commit atomically.  Data writes are copy-on-write: new blocks are
written with non-temporal stores, then published by a committed WRITE entry.

The Table-1 NOVA bugs (1-8) live in this file as organic orderings guarded by
``BugConfig``; see DESIGN.md for the catalogue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fs.bugs import BugConfig
from repro.fs.common.alloc import BlockAllocator, SlotAllocator
from repro.fs.common.layout import u32, u64
from repro.fs.nova import layout as L
from repro.fs.nova.dram import DramInode
from repro.pm.device import PMDevice
from repro.pm.persistence import PersistenceOps, persistence_function
from repro.vfs.errors import (
    EEXIST,
    EFBIG,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FsError,
)
from repro.vfs.interface import FileObservation, FileSystem, MountError
from repro.vfs.path import is_ancestor, normalize, split_parent, split_path
from repro.vfs.types import FileType, Stat

ROOT_INO = 0


class NovaPersistence(PersistenceOps):
    """NOVA's centralized persistence functions, under their NOVA names.

    These are the symbols a developer would hand to Chipmunk's logger
    (paper section 3.3): non-temporal memcpy/memset, a buffer flush, and a
    persistence barrier.
    """

    persistence_function_names = (
        "memcpy_to_pmem_nocache",
        "memset_to_pmem_nocache",
        "nova_flush_buffer",
        "persistent_barrier",
    )

    @persistence_function("nt_store", addr_arg=0, data_arg=1)
    def memcpy_to_pmem_nocache(self, addr: int, data: bytes) -> None:
        PersistenceOps.memcpy_nt(self, addr, data)

    @persistence_function("nt_store", addr_arg=0, length_arg=2)
    def memset_to_pmem_nocache(self, addr: int, value: int, length: int) -> None:
        PersistenceOps.memset_nt(self, addr, value, length)

    @persistence_function("flush", addr_arg=0, length_arg=1)
    def nova_flush_buffer(self, addr: int, length: int) -> None:
        PersistenceOps.flush_range(self, addr, length)

    @persistence_function("fence")
    def persistent_barrier(self) -> None:
        PersistenceOps.sfence(self)


class NovaFS(FileSystem):
    """The NOVA-like file system (see module docstring)."""

    name = "nova"
    strong_guarantees = True
    atomic_data_writes = True

    ops_class = NovaPersistence
    geometry_class = L.NovaGeometry

    def __init__(
        self,
        device: PMDevice,
        ops: PersistenceOps,
        geometry: L.NovaGeometry,
        bugs: Optional[BugConfig] = None,
    ) -> None:
        super().__init__(device, ops)
        self.geom = geometry
        self.bugcfg = bugs if bugs is not None else BugConfig.fixed()
        self.inodes: Dict[int, DramInode] = {}
        self.alloc = BlockAllocator(geometry.first_data_block, geometry.n_data_blocks)
        self.ialloc = SlotAllocator(geometry.n_inodes)
        #: True when this instance came from mount() (i.e. after a crash or
        #: clean remount) rather than mkfs(); Fortis only verifies checksums
        #: on post-mount reads.
        self._from_mount = False
        #: (link address, new page address) pairs deferred to commit time by
        #: the bug-1 lazy page-linking path.
        self._pending_page_links: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def mkfs(
        cls,
        device: PMDevice,
        geometry: Optional[L.NovaGeometry] = None,
        bugs: Optional[BugConfig] = None,
        **kwargs,
    ) -> "NovaFS":
        geom = geometry or cls.geometry_class(device_size=device.size)
        if geom.device_size != device.size:
            raise ValueError("geometry does not match device size")
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._format()
        return fs

    @classmethod
    def mount(
        cls,
        device: PMDevice,
        bugs: Optional[BugConfig] = None,
        **kwargs,
    ) -> "NovaFS":
        from repro.fs.nova.recovery import rebuild

        sb = device.read(0, 64)
        try:
            geom = cls._coerce_geometry(L.unpack_superblock(sb))
        except ValueError as exc:
            raise MountError(str(exc)) from exc
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._from_mount = True
        rebuild(fs)
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
            geom = cls._coerce_geometry(L.unpack_superblock(bytes(image[:64])))
        except TORN_SUPERBLOCK:
            return single_region_map(len(image))
        data_start = geom.first_data_block * geom.block_size
        return LayoutMap((
            NamedRegion("superblock", geom.superblock),
            NamedRegion("journal", geom.journal),
            NamedRegion("inode_table", geom.inode_table,
                        slot_size=L.INODE_SLOT_SIZE),
            NamedRegion("data", Region(data_start, geom.device_size - data_start),
                        slot_size=geom.block_size),
        ))

    @classmethod
    def _coerce_geometry(cls, geom: L.NovaGeometry) -> L.NovaGeometry:
        """Convert an unpacked superblock geometry to this class's type."""
        if type(geom) is cls.geometry_class:
            return geom
        return cls.geometry_class(
            device_size=geom.device_size,
            block_size=geom.block_size,
            inode_blocks=geom.inode_blocks,
            log_page_entries=geom.log_page_entries,
        )

    def _format(self) -> None:
        geom = self.geom
        # Zero the metadata regions so a reused device starts clean.
        self._memset(geom.journal.offset, 0, geom.journal.size)
        self._memset(geom.inode_table.offset, 0, geom.inode_table.size)
        self._nt(0, L.pack_superblock(geom))
        # Root inode with one empty log page.
        root = self._init_inode(ROOT_INO, L.FTYPE_DIR, 0o755, flush_slot=True)
        self.ialloc.mark_used(ROOT_INO)
        self.inodes[ROOT_INO] = root
        self._fence()

    # ------------------------------------------------------------------
    # Low-level persistence helpers (all PM writes go through these)
    # ------------------------------------------------------------------
    def _nt(self, addr: int, data: bytes) -> None:
        self.ops.memcpy_to_pmem_nocache(addr, data)

    def _memset(self, addr: int, value: int, length: int) -> None:
        self.ops.memset_to_pmem_nocache(addr, value, length)

    def _flush_write(self, addr: int, data: bytes) -> None:
        """Cached store followed by a cache-line write-back."""
        self.ops.store_cached(addr, data)
        self.ops.nova_flush_buffer(addr, len(data))

    def _fence(self) -> None:
        self.ops.persistent_barrier()

    def _slot_addr(self, ino: int) -> int:
        return self.geom.inode_addr(ino)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------
    def _inode(self, ino: int) -> DramInode:
        di = self.inodes.get(ino)
        if di is None:
            raise ENOENT(f"inode {ino} does not exist")
        if di.corrupt:
            raise FsError(f"inode {ino} is corrupt (dangling dentry)")
        return di

    def _resolve(self, path: str) -> DramInode:
        di = self._inode(ROOT_INO)
        for part in split_path(path):
            if di.ftype != L.FTYPE_DIR:
                raise ENOTDIR(path)
            if part not in di.children:
                raise ENOENT(path)
            di = self._inode(di.children[part])
        return di

    def _resolve_parent(self, path: str) -> Tuple[DramInode, str]:
        parent_path, name = split_parent(path)
        parent = self._resolve(parent_path)
        if parent.ftype != L.FTYPE_DIR:
            raise ENOTDIR(parent_path)
        if len(name.encode("utf-8")) >= L.NAME_FIELD:
            raise EINVAL(f"name too long: {name!r}")
        return parent, name

    # ------------------------------------------------------------------
    # Log append machinery
    # ------------------------------------------------------------------
    def _init_inode(self, ino: int, ftype: int, mode: int, flush_slot: bool) -> DramInode:
        """Write a fresh inode slot and its first (empty) log page.

        ``flush_slot=False`` is the bug-2 path: the slot is written with a
        cached store and never flushed, so it is lost in any crash.
        """
        page_block = self.alloc.alloc()
        page_addr = self.geom.block_addr(page_block)
        header = u32(L.LOGPAGE_MAGIC) + b"\x00" * 4 + u64(0)
        self._nt(page_addr, header)
        self._fence()  # the log page must be durable before the slot points at it
        slot = self._finalize_slot_bytes(L.pack_inode_slot(ftype, mode, page_addr))
        if flush_slot:
            self._nt(self._slot_addr(ino), slot)
            self._fence()
        else:
            self.cov("init_inode.unflushed")
            self.ops.store_cached(self._slot_addr(ino), slot)
        di = DramInode(ino=ino, ftype=ftype, mode=mode, log_head=page_addr)
        di.pages = [page_addr]
        if ftype == L.FTYPE_REG:
            di.nlink = 0  # set by the initial ATTR entry
        return di

    def _entry_position(self, di: DramInode, index: int) -> Tuple[int, int]:
        return divmod(index, self.geom.log_page_entries)

    def _ensure_page(self, di: DramInode, index: int) -> int:
        """Return the address of the page holding entry ``index``.

        Allocates and links a new log page when the log grows past the
        current chain.  The fixed path links the new page and fences before
        anything else; bug 1 defers the link to the commit-pointer epoch
        ("update the chain together with the tail"), so a crash can persist
        a commit pointer that runs past an unlinked page.
        """
        page_i, _ = self._entry_position(di, index)
        while page_i >= len(di.pages):
            self.cov("log.newpage")
            new_block = self.alloc.alloc()
            new_addr = self.geom.block_addr(new_block)
            header = u32(L.LOGPAGE_MAGIC) + b"\x00" * 4 + u64(0)
            self._nt(new_addr, header)
            if self.bugcfg.has(1):
                self.cov("log.lazy_link")
                self._pending_page_links.append((di.pages[-1] + 8, new_addr))
                self.ops.store_cached(di.pages[-1] + 8, u64(new_addr))
            else:
                self._flush_write(di.pages[-1] + 8, u64(new_addr))
                self._fence()
            di.pages.append(new_addr)
        return di.pages[page_i]

    def _flush_pending_links(self) -> None:
        """Bug-1 path: persist deferred page links in the commit epoch."""
        pending, self._pending_page_links = self._pending_page_links, []
        for link_addr, new_addr in pending:
            self._flush_write(link_addr, u64(new_addr))

    def _append(self, di: DramInode, entry: bytes) -> int:
        """Append an uncommitted entry, returning its on-PM address."""
        index = di.next_index
        page_addr = self._ensure_page(di, index)
        _, slot_i = self._entry_position(di, index)
        addr = self.geom.entry_addr(page_addr, slot_i)
        self._nt(addr, entry)
        di.pending += 1
        return addr

    def _commit_inplace(self, di: DramInode, ordered: bool = True) -> None:
        """Commit pending entries by bumping the inode's count in place.

        ``ordered=False`` is the bug-3 fast path: the commit pointer is
        flushed in the same fence epoch as the entries, so a crash can
        persist the pointer without the entries it covers.
        """
        if ordered:
            self._fence()
        self._flush_pending_links()
        new_count = di.next_index
        self._write_count(di, new_count)
        self._fence()
        di.log_count = new_count
        di.pending = 0
        self._meta_updated(di)

    def _commit_journal(self, dis: List[DramInode], careful: bool = True) -> None:
        """Commit pending entries on several inodes atomically via the journal.

        ``careful=False`` is the bug-3 variant: the fences ordering the log
        entries before the journal pairs and the pairs before the commit flag
        are skipped, so a crash can persist a committed journal that points
        at unwritten log entries.
        """
        unique: List[DramInode] = []
        for di in dis:
            if di not in unique:
                unique.append(di)
        pairs = [(di.ino, di.next_index) for di in unique]
        jaddr = self.geom.journal.offset
        if careful:
            self._fence()  # entries durable before the journal references them
        self._flush_write(jaddr + L.JR_PAIRS, L.pack_journal_pairs(pairs))
        self._flush_write(jaddr + L.JR_NPAIRS, bytes([len(pairs)]))
        if careful:
            self._fence()  # pairs durable before the commit flag
        self._flush_write(jaddr + L.JR_COMMIT, b"\x01")
        self._fence()
        self._flush_pending_links()
        for di, (_, new_count) in zip(unique, pairs):
            self._write_count(di, new_count)
        self._fence()
        self._flush_write(jaddr + L.JR_COMMIT, b"\x00")
        self._fence()
        for di, (_, new_count) in zip(unique, pairs):
            di.log_count = new_count
            di.pending = 0
            self._meta_updated(di)

    def _invalidate_slot(self, di: DramInode) -> None:
        """Clear an inode's valid byte (final step of unlink/rmdir)."""
        self._flush_write(self._slot_addr(di.ino) + L.INO_VALID, b"\x00")
        self._fence()

    def _drop_inode(self, di: DramInode) -> None:
        """Release an inode's DRAM state and its blocks."""
        for block in set(di.blockmap.values()):
            self.alloc.free(block)
        for page in di.pages:
            self.alloc.free(page // self.geom.block_size)
        del self.inodes[di.ino]
        self.ialloc.free(di.ino)

    # Hooks overridden by NOVA-Fortis -----------------------------------
    def _write_count(self, di: DramInode, new_count: int) -> None:
        """Persist the commit pointer (Fortis also updates csum + replica)."""
        self._flush_write(self._slot_addr(di.ino) + L.INO_COUNT, u32(new_count))

    def _recover_count(self, ino: int, new_count: int) -> None:
        """Journal-redo variant of :meth:`_write_count` (mount-time only)."""
        self._flush_write(self._slot_addr(ino) + L.INO_COUNT, u32(new_count))

    def _finalize_slot_bytes(self, slot: bytes) -> bytes:
        """Last chance to amend a fresh inode slot (Fortis: stamp csum)."""
        return slot

    def _data_csum_barrier(self, di: DramInode, mapping, new_size: int) -> None:
        """Called with the (file block, device block) pairs a data operation
        wrote, before the operation commits (Fortis: persist data checksums).
        """

    def _meta_updated(self, di: DramInode) -> None:
        """Called after an inode's slot/log commit (Fortis: csum + replica)."""

    def _data_written(self, di: DramInode, file_block: int, device_block: int) -> None:
        """Called after a data block is written (Fortis: data checksum)."""

    def _truncate_begin(self, di: DramInode, new_size: int) -> None:
        """Called before a shrinking truncate commits (Fortis: pending record)."""

    def _truncate_end(self, di: DramInode) -> None:
        """Called after a shrinking truncate completes (Fortis: clear record)."""

    def _verify_file_block(self, di: DramInode, file_block: int, data: bytes) -> bytes:
        """Read-path verification hook (Fortis: data checksum check)."""
        return data

    def _verify_slot(self, ino: int, slot_buf: bytes) -> None:
        """Mount-time slot verification hook (Fortis: csum/replica check)."""

    def _recovery_extra(self, parsed: Dict[int, DramInode], reachable) -> None:
        """Extra recovery work hook (Fortis: pending-truncate replay, bug 11)."""

    # ------------------------------------------------------------------
    # Syscalls: namespace operations
    # ------------------------------------------------------------------
    def creat(self, path: str, mode: int = 0o644) -> None:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise EEXIST(path)
        self.cov("creat")
        ino = self.ialloc.alloc()
        child = self._init_inode(
            ino, L.FTYPE_REG, mode, flush_slot=not self.bugcfg.has(2)
        )
        self.inodes[ino] = child
        self._append(child, L.pack_attr_entry(0, 1, mode))
        add_addr = self._append(parent, L.pack_dentry_add(ino, name))
        self._commit_journal([child, parent], careful=True)
        child.size = 0
        child.nlink = 1
        parent.children[name] = ino
        parent.dentry_addrs[name] = add_addr

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise EEXIST(path)
        self.cov("mkdir")
        ino = self.ialloc.alloc()
        child = self._init_inode(
            ino, L.FTYPE_DIR, mode, flush_slot=not self.bugcfg.has(2)
        )
        self.inodes[ino] = child
        add_addr = self._append(parent, L.pack_dentry_add(ino, name))
        self._commit_journal([child, parent], careful=True)
        parent.children[name] = ino
        parent.dentry_addrs[name] = add_addr

    def rmdir(self, path: str) -> None:
        if normalize(path) == "/":
            raise EINVAL("cannot rmdir the root")
        parent, name = self._resolve_parent(path)
        if name not in parent.children:
            raise ENOENT(path)
        target = self._inode(parent.children[name])
        if target.ftype != L.FTYPE_DIR:
            raise ENOTDIR(path)
        if target.children:
            raise ENOTEMPTY(path)
        self.cov("rmdir")
        self._append(parent, L.pack_dentry_del(target.ino, name))
        self._commit_journal([parent], careful=not self.bugcfg.has(3))
        del parent.children[name]
        parent.dentry_addrs.pop(name, None)
        self._invalidate_slot(target)
        self._drop_inode(target)

    def link(self, oldpath: str, newpath: str) -> None:
        target = self._resolve(oldpath)
        if target.ftype == L.FTYPE_DIR:
            raise EISDIR(f"cannot hard-link a directory: {oldpath}")
        parent, name = self._resolve_parent(newpath)
        if name in parent.children:
            raise EEXIST(newpath)
        self.cov("link")
        if self.bugcfg.has(6):
            # Bug 6: commit the target's link count in place first, then add
            # the dentry in a separate transaction.  Checking that the
            # in-place fast path is safe requires reading the target's last
            # committed log entry from media — the extra read that made the
            # logging-based fix *faster* (paper Observation 2).
            self.cov("link.inplace_nlink")
            if target.log_count:
                last_index = target.log_count - 1
                page_i, slot_i = self._entry_position(target, last_index)
                self.ops.read_pm(
                    self.geom.entry_addr(target.pages[page_i], slot_i),
                    L.LOG_ENTRY_SIZE,
                )
            self._append(target, L.pack_link_change(1))
            self._commit_inplace(target, ordered=not self.bugcfg.has(3))
            add_addr = self._append(parent, L.pack_dentry_add(target.ino, name))
            self._commit_journal([parent], careful=not self.bugcfg.has(3))
        else:
            self._append(target, L.pack_link_change(1))
            add_addr = self._append(parent, L.pack_dentry_add(target.ino, name))
            self._commit_journal([target, parent], careful=not self.bugcfg.has(3))
        target.nlink += 1
        parent.children[name] = target.ino
        parent.dentry_addrs[name] = add_addr

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        if name not in parent.children:
            raise ENOENT(path)
        target = self._inode(parent.children[name])
        if target.ftype == L.FTYPE_DIR:
            raise EISDIR(path)
        self.cov("unlink")
        self._append(parent, L.pack_dentry_del(target.ino, name))
        self._append(target, L.pack_link_change(-1))
        self._commit_journal([parent, target], careful=not self.bugcfg.has(3))
        del parent.children[name]
        parent.dentry_addrs.pop(name, None)
        target.nlink -= 1
        if target.nlink <= 0:
            self.cov("unlink.lastlink")
            self._invalidate_slot(target)
            self._drop_inode(target)

    def rename(self, oldpath: str, newpath: str) -> None:
        if normalize(oldpath) == normalize(newpath):
            self._resolve(oldpath)
            return
        src_parent, src_name = self._resolve_parent(oldpath)
        if src_name not in src_parent.children:
            raise ENOENT(oldpath)
        moved = self._inode(src_parent.children[src_name])
        if moved.ftype == L.FTYPE_DIR and is_ancestor(oldpath, newpath):
            raise EINVAL("cannot move a directory into itself")
        dst_parent, dst_name = self._resolve_parent(newpath)
        overwriting: Optional[DramInode] = None
        if dst_name in dst_parent.children:
            overwriting = self._inode(dst_parent.children[dst_name])
            if overwriting.ftype == L.FTYPE_DIR:
                if moved.ftype != L.FTYPE_DIR:
                    raise EISDIR(newpath)
                if overwriting.children:
                    raise ENOTEMPTY(newpath)
            elif moved.ftype == L.FTYPE_DIR:
                raise ENOTDIR(newpath)
        same_dir = src_parent.ino == dst_parent.ino

        if self.bugcfg.has(5) and same_dir and overwriting is None:
            # Bug 5: commit the new dentry, then invalidate the old one in
            # place, outside any transaction.
            self.cov("rename.samedir.inplace")
            add_addr = self._append(src_parent, L.pack_dentry_add(moved.ino, dst_name))
            self._commit_inplace(src_parent, ordered=not self.bugcfg.has(3))
            self._flush_write(src_parent.dentry_addrs[src_name] + 12, b"\x00")
            self._fence()
        elif self.bugcfg.has(4) and not same_dir and overwriting is None:
            # Bug 4: invalidate the old dentry in place *before* the
            # transaction that creates the new one commits (Figure 2).
            self.cov("rename.crossdir.inplace")
            self._flush_write(src_parent.dentry_addrs[src_name] + 12, b"\x00")
            self._fence()
            add_addr = self._append(dst_parent, L.pack_dentry_add(moved.ino, dst_name))
            self._commit_journal([dst_parent], careful=not self.bugcfg.has(3))
        else:
            self.cov("rename.journaled")
            tx: List[DramInode] = []
            self._append(src_parent, L.pack_dentry_del(moved.ino, src_name))
            tx.append(src_parent)
            if overwriting is not None:
                self._append(dst_parent, L.pack_dentry_del(overwriting.ino, dst_name))
                if overwriting.ftype == L.FTYPE_REG:
                    self._append(overwriting, L.pack_link_change(-1))
                    tx.append(overwriting)
            add_addr = self._append(dst_parent, L.pack_dentry_add(moved.ino, dst_name))
            tx.append(dst_parent)
            self._commit_journal(tx, careful=not self.bugcfg.has(3))

        del src_parent.children[src_name]
        src_parent.dentry_addrs.pop(src_name, None)
        dst_parent.children[dst_name] = moved.ino
        dst_parent.dentry_addrs[dst_name] = add_addr
        if overwriting is not None:
            if overwriting.ftype == L.FTYPE_REG:
                overwriting.nlink -= 1
                if overwriting.nlink <= 0:
                    self._invalidate_slot(overwriting)
                    self._drop_inode(overwriting)
            else:
                self._invalidate_slot(overwriting)
                self._drop_inode(overwriting)

    # ------------------------------------------------------------------
    # Syscalls: data operations
    # ------------------------------------------------------------------
    def _file_for_data(self, path: str) -> DramInode:
        di = self._resolve(path)
        if di.ftype != L.FTYPE_REG:
            raise EISDIR(path)
        return di

    def _compose_block(self, di: DramInode, file_block: int) -> bytearray:
        """Current content of a file block (zeros when unmapped)."""
        bs = self.geom.block_size
        if file_block in di.blockmap:
            data = self.ops.read_pm(self.geom.block_addr(di.blockmap[file_block]), bs)
            return bytearray(data)
        return bytearray(bs)

    def write(self, path: str, offset: int, data: bytes) -> int:
        di = self._file_for_data(path)
        if offset < 0:
            raise EINVAL("negative write offset")
        if not data:
            return 0
        if offset + len(data) > self.geom.max_file_size:
            raise EFBIG(f"write to offset {offset + len(data)} exceeds device")
        bs = self.geom.block_size
        first_blk = offset // bs
        last_blk = (offset + len(data) - 1) // bs
        n_blocks = last_blk - first_blk + 1
        if offset % bs or (offset + len(data)) % bs:
            self.cov("write.unaligned")
        new_blocks = self.alloc.alloc_many(n_blocks)

        # Compose the new content of every affected block (copy-on-write
        # read-modify-write at the unaligned edges).
        contents: List[bytes] = []
        for i in range(n_blocks):
            fblk = first_blk + i
            lo = max(offset, fblk * bs)
            hi = min(offset + len(data), (fblk + 1) * bs)
            if lo == fblk * bs and hi == (fblk + 1) * bs:
                block = bytearray(data[lo - offset : hi - offset])
            else:
                block = self._compose_block(di, fblk)
                block[lo - fblk * bs : hi - fblk * bs] = data[lo - offset : hi - offset]
            contents.append(bytes(block))

        # Write the data in one non-temporal store per contiguous run.
        runs = _contiguous_runs(new_blocks)
        entry_addrs: List[int] = []
        pos = 0
        for run_start, run_len in runs:
            if len(runs) > 1:
                self.cov("write.multirun")
            run_bytes = b"".join(contents[pos : pos + run_len])
            self._nt(self.geom.block_addr(run_start), run_bytes)
            f0 = first_blk + pos
            lo = max(offset, f0 * bs)
            hi = min(offset + len(data), (f0 + run_len) * bs)
            entry_addrs.append(
                self._append(di, L.pack_write_entry(lo, hi - lo, run_start, run_len))
            )
            pos += run_len
        mapping = [(first_blk + i, _block_for_index(runs, i)) for i in range(n_blocks)]
        self._data_csum_barrier(di, mapping, max(di.size, offset + len(data)))
        self._commit_inplace(di, ordered=not self.bugcfg.has(3))
        di.last_write_addr = entry_addrs[-1]

        # DRAM: publish the new mapping and free replaced blocks.
        for i in range(n_blocks):
            fblk = first_blk + i
            old = di.blockmap.get(fblk)
            if old is not None:
                self.alloc.free(old)
            di.blockmap[fblk] = _block_for_index(runs, i)
            self._data_written(di, fblk, di.blockmap[fblk])
        di.size = max(di.size, offset + len(data))
        return len(data)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self._read_inode(self._file_for_data(path), offset, length)

    def _read_inode(self, di: DramInode, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise EINVAL("negative read offset or length")
        end = min(offset + length, di.size)
        if offset >= end:
            return b""
        bs = self.geom.block_size
        out = bytearray()
        for fblk in range(offset // bs, (end - 1) // bs + 1):
            if fblk in di.blockmap:
                data = self.ops.read_pm(self.geom.block_addr(di.blockmap[fblk]), bs)
                data = self._verify_file_block(di, fblk, data)
            else:
                data = b"\x00" * bs
            out.extend(data)
        base = (offset // bs) * bs
        return bytes(out[offset - base : end - base])

    def truncate(self, path: str, length: int) -> None:
        di = self._file_for_data(path)
        if length < 0:
            raise EINVAL("negative truncate length")
        if length > self.geom.max_file_size:
            raise EFBIG("truncate beyond device capacity")
        if length == di.size:
            return
        bs = self.geom.block_size
        if length < di.size:
            self.cov("truncate.shrink")
            self._truncate_begin(di, length)
            zero_args: Optional[Tuple[int, int]] = None
            tail_blk = length // bs
            if length % bs and tail_blk in di.blockmap:
                addr = self.geom.block_addr(di.blockmap[tail_blk]) + length % bs
                zero_args = (addr, bs - length % bs)
            if self.bugcfg.has(7) and zero_args is not None:
                # Bug 7: zero the truncated tail before (and in the same
                # fence epoch as) the size-change entry commit.
                self.cov("truncate.zero_first")
                self._memset(zero_args[0], 0, zero_args[1])
                self._append(di, L.pack_attr_entry(length, di.nlink, di.mode))
                self._commit_inplace(di, ordered=False)
            else:
                self._append(di, L.pack_attr_entry(length, di.nlink, di.mode))
                self._commit_inplace(di, ordered=True)
                if zero_args is not None:
                    self._memset(zero_args[0], 0, zero_args[1])
                    self._fence()
            # Free fully truncated blocks.
            first_dead = (length + bs - 1) // bs
            for fblk in [b for b in di.blockmap if b >= first_dead]:
                self.alloc.free(di.blockmap.pop(fblk))
            di.size = length
            self._truncate_end(di)
        else:
            self.cov("truncate.extend")
            self._append(di, L.pack_attr_entry(length, di.nlink, di.mode))
            self._commit_inplace(di, ordered=True)
            di.size = length
        di.last_write_addr = None

    def fallocate(self, path: str, offset: int, length: int) -> None:
        di = self._file_for_data(path)
        if offset < 0 or length <= 0:
            raise EINVAL("fallocate needs offset >= 0 and length > 0")
        if offset + length > self.geom.max_file_size:
            raise EFBIG("fallocate beyond device capacity")
        bs = self.geom.block_size
        end = offset + length

        if self.bugcfg.has(8) and self._falloc_inplace_applicable(di, offset, end):
            self._falloc_inplace_extend(di, offset, end)
            return

        self.cov("falloc.append")
        first_blk = offset // bs
        last_blk = (end - 1) // bs
        missing = [b for b in range(first_blk, last_blk + 1) if b not in di.blockmap]
        for run_start_f, run_len in _contiguous_runs(missing):
            blocks = self.alloc.alloc_many(run_len)
            for dev_run_start, dev_run_len in _contiguous_runs(blocks):
                self._memset(self.geom.block_addr(dev_run_start), 0, dev_run_len * bs)
            # Map the new blocks with WRITE entries (content is zeros).
            pos = 0
            for dev_run_start, dev_run_len in _contiguous_runs(blocks):
                f0 = run_start_f + pos
                lo = max(offset, f0 * bs)
                hi = min(end, (f0 + dev_run_len) * bs)
                self._append(di, L.pack_write_entry(lo, hi - lo, dev_run_start, dev_run_len))
                pos += dev_run_len
            for i, fblk in enumerate(range(run_start_f, run_start_f + run_len)):
                di.blockmap[fblk] = blocks[i]
        if end > di.size:
            self._append(di, L.pack_attr_entry(end, di.nlink, di.mode))
        if di.pending:
            new_mapping = [
                (fblk, di.blockmap[fblk]) for fblk in missing if fblk in di.blockmap
            ]
            self._data_csum_barrier(di, new_mapping, max(di.size, end))
            self._commit_inplace(di, ordered=True)
        di.size = max(di.size, end)

    def _falloc_inplace_applicable(self, di: DramInode, offset: int, end: int) -> bool:
        """Bug-8 trigger: the range touches the last committed WRITE entry."""
        if di.last_write_addr is None:
            return False
        entry = L.unpack_entry(self.ops.read_pm(di.last_write_addr, L.LOG_ENTRY_SIZE), di.last_write_addr)
        if entry.etype != L.ET_WRITE:
            return False
        return offset <= entry.offset + entry.length and end > entry.offset

    def _falloc_inplace_extend(self, di: DramInode, offset: int, end: int) -> None:
        """Bug 8: merge the range into the last WRITE entry in place.

        The buggy "optimization" allocates a fresh zeroed run covering the
        merged range, rewrites the committed entry to point at it, and only
        *then* copies the old data over — so a crash between publish and copy
        loses the previously written data.
        """
        self.cov("falloc.inplace")
        bs = self.geom.block_size
        addr = di.last_write_addr
        assert addr is not None
        entry = L.unpack_entry(self.ops.read_pm(addr, L.LOG_ENTRY_SIZE), addr)
        merged_lo = min(entry.offset, offset)
        merged_hi = max(entry.offset + entry.length, end)
        first_blk = merged_lo // bs
        last_blk = (merged_hi - 1) // bs
        n_blocks = last_blk - first_blk + 1
        new_blocks = self.alloc.alloc_contiguous(n_blocks)
        run_start = new_blocks[0]
        self._memset(self.geom.block_addr(run_start), 0, n_blocks * bs)
        new_entry = L.pack_write_entry(merged_lo, merged_hi - merged_lo, run_start, n_blocks)
        self._nt(addr, new_entry)
        self._fence()  # publish before copy: the bug
        # Copy previously written data into the new run.
        for i in range(n_blocks):
            fblk = first_blk + i
            old = di.blockmap.get(fblk)
            if old is not None and old not in new_blocks:
                data = self.ops.read_pm(self.geom.block_addr(old), bs)
                self._nt(self.geom.block_addr(new_blocks[i]), data)
        self._data_csum_barrier(
            di,
            [(first_blk + i, new_blocks[i]) for i in range(n_blocks)],
            max(di.size, merged_hi),
        )
        self._fence()
        for i in range(n_blocks):
            fblk = first_blk + i
            old = di.blockmap.get(fblk)
            if old is not None:
                self.alloc.free(old)
            di.blockmap[fblk] = new_blocks[i]
        di.size = max(di.size, merged_hi)

    # ------------------------------------------------------------------
    # Syscalls: introspection
    # ------------------------------------------------------------------
    def stat(self, path: str) -> Stat:
        return self._stat_of(self._resolve(path))

    def _stat_of(self, di: DramInode) -> Stat:
        if di.ftype == L.FTYPE_DIR:
            nlink = 2 + sum(
                1
                for child_ino in di.children.values()
                if self.inodes.get(child_ino) is not None
                and self.inodes[child_ino].ftype == L.FTYPE_DIR
            )
            return Stat(di.ino, FileType.DIRECTORY, self.geom.block_size, nlink, di.mode)
        return Stat(di.ino, FileType.REGULAR, di.size, di.nlink, di.mode)

    def readdir(self, path: str) -> List[str]:
        di = self._resolve(path)
        if di.ftype != L.FTYPE_DIR:
            raise ENOTDIR(path)
        return sorted(di.children)

    def _walk_into(self, path: str, out: Dict[str, FileObservation]) -> None:
        self._walk_node(path, self._resolve(path), out)

    def _observe_node(self, path: str, di: DramInode):
        if di.ftype == L.FTYPE_DIR:
            kids = di.children
            return (
                FileObservation.for_dir(self._stat_of(di), kids),
                lambda name: self._inode(kids[name]),
            )
        if di.ftype != L.FTYPE_REG:
            raise EISDIR(path)
        content = self._read_inode(di, 0, di.size)
        return FileObservation.for_file(self._stat_of(di), content), None


def _contiguous_runs(blocks: List[int]) -> List[Tuple[int, int]]:
    """Split a sorted-ish block list into (start, length) contiguous runs."""
    runs: List[Tuple[int, int]] = []
    for block in blocks:
        if runs and block == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((block, 1))
    return runs


def _block_for_index(runs: List[Tuple[int, int]], index: int) -> int:
    """Device block for the ``index``-th block across the runs."""
    for start, length in runs:
        if index < length:
            return start + index
        index -= length
    raise IndexError(index)
