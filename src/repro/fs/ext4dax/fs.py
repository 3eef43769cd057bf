"""ext4-DAX-like weak-guarantee journaling PM file system.

Unlike the PM-native file systems, ext4-DAX retains the traditional Linux
crash-consistency model: operations mutate volatile (DRAM) state — a
metadata cache and a page cache — and nothing is guaranteed durable until an
fsync-family call commits the jbd2-style redo journal.  Chipmunk therefore
only places crash points after fsync/fdatasync/sync when testing it
(paper section 3.3).

Simplifications (documented in DESIGN.md):

* ordered-mode writeback is global — every fsync writes back *all* dirty
  data pages before committing metadata, so a post-sync crash state is the
  complete oracle state.  This is a strictly-stronger, still-correct variant
  of ext4's ordered mode that keeps the weak-FS checker simple.
* xattrs are supported (the paper's ext4-DAX/XFS-DAX tests exercise
  setxattr/removexattr); they are stored inline in a per-inode DRAM map and
  serialized into dedicated xattr blocks at commit.

The paper found **zero** crash-consistency bugs in ext4-DAX and XFS-DAX
(attributed to the maturity of the shared base code); this implementation is
correspondingly bug-free by construction, and the Table-1 bench asserts that
Chipmunk reports nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.fs.bugs import BugConfig
from repro.fs.common.alloc import BlockAllocator, SlotAllocator
from repro.fs.common.layout import (
    Region,
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
from repro.pm.device import PMDevice
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

SB_MAGIC = 0x45583444  # "EX4D"
ROOT_INO = 0

INODE_SLOT_SIZE = 64
DENTRY_SIZE = 64
NAME_FIELD = 40
N_DIRECT = 10
XATTR_ENTRY = 64

FTYPE_REG = 1
FTYPE_DIR = 2

# Journal header and record framing.
JH_COMMIT = 0
JH_NRECORDS = 4  # u32
JOURNAL_HEADER = 64
REC_HDR = 16  # addr u64, len u16, pad


@dataclass(frozen=True)
class Ext4DaxGeometry:
    """Layout: superblock | journal | inode table | xattr area | bitmap | data.

    ``origin`` shifts the whole layout so the file system can live in a
    sub-region of a shared device — that is how SplitFS embeds its kernel
    component.  Block numbers are absolute device block numbers.
    """

    device_size: int = 512 * 1024
    block_size: int = 512
    inode_blocks: int = 4
    journal_blocks: int = 16
    xattr_blocks: int = 2
    origin: int = 0

    @cached_property
    def n_blocks(self) -> int:
        """One past the last block of this file system (absolute)."""
        return (self.origin + self.device_size) // self.block_size

    @cached_property
    def journal(self) -> Region:
        return Region(self.origin + self.block_size, self.journal_blocks * self.block_size)

    @cached_property
    def inode_table(self) -> Region:
        return Region(self.journal.end, self.inode_blocks * self.block_size)

    @cached_property
    def n_inodes(self) -> int:
        return self.inode_table.size // INODE_SLOT_SIZE

    @cached_property
    def xattr_area(self) -> Region:
        return Region(self.inode_table.end, self.xattr_blocks * self.block_size)

    @cached_property
    def bitmap(self) -> Region:
        return Region(self.xattr_area.end, self.block_size)

    @cached_property
    def first_data_block(self) -> int:
        return self.bitmap.end // self.block_size

    @cached_property
    def n_data_blocks(self) -> int:
        return self.n_blocks - self.first_data_block

    @cached_property
    def max_file_size(self) -> int:
        return N_DIRECT * self.block_size

    def block_addr(self, block: int) -> int:
        return block * self.block_size

    def inode_addr(self, ino: int) -> int:
        return self.inode_table.slot(ino, INODE_SLOT_SIZE)


def pack_superblock(geom: Ext4DaxGeometry) -> bytes:
    body = (
        u32(SB_MAGIC)
        + u32(1)
        + u64(geom.device_size)
        + u32(geom.block_size)
        + u32(geom.inode_blocks)
        + u32(geom.journal_blocks)
        + u32(geom.xattr_blocks)
    )
    return pad_to(body, 64)


def unpack_superblock(buf: bytes) -> Ext4DaxGeometry:
    if read_u32(buf, 0) != SB_MAGIC:
        raise ValueError("bad ext4-DAX superblock magic")
    return Ext4DaxGeometry(
        device_size=read_u64(buf, 8),
        block_size=read_u32(buf, 16),
        inode_blocks=read_u32(buf, 20),
        journal_blocks=read_u32(buf, 24),
        xattr_blocks=read_u32(buf, 28),
    )


def layout_regions(geom: Ext4DaxGeometry, prefix: str = ""):
    """Named forensic regions of an ext4-DAX geometry.

    Honors ``origin``, so SplitFS can annotate its embedded kernel
    component with a ``kernel.`` prefix from the same definition.
    """
    from repro.fs.common.layout import NamedRegion

    data_start = geom.first_data_block * geom.block_size
    data_end = geom.origin + geom.device_size
    return (
        NamedRegion(f"{prefix}superblock", Region(geom.origin, geom.block_size)),
        NamedRegion(f"{prefix}journal", geom.journal),
        NamedRegion(f"{prefix}inode_table", geom.inode_table,
                    slot_size=INODE_SLOT_SIZE),
        NamedRegion(f"{prefix}xattr_area", geom.xattr_area,
                    slot_size=XATTR_ENTRY),
        NamedRegion(f"{prefix}bitmap", geom.bitmap),
        NamedRegion(f"{prefix}data", Region(data_start, data_end - data_start),
                    slot_size=geom.block_size),
    )


@dataclass
class DaxInode:
    """Volatile (authoritative between commits) inode state."""

    ino: int
    ftype: int
    mode: int
    nlink: int
    size: int = 0
    ptrs: List[int] = field(default_factory=lambda: [0] * N_DIRECT)
    xattrs: Dict[str, bytes] = field(default_factory=dict)


class Ext4Persistence(PersistenceOps):
    """ext4-DAX persistence functions (used only by journal/writeback code)."""

    persistence_function_names = (
        "dax_memcpy_nt",
        "dax_memset_nt",
        "dax_flush_buffer",
        "dax_fence",
    )

    @persistence_function("nt_store", addr_arg=0, data_arg=1)
    def dax_memcpy_nt(self, addr: int, data: bytes) -> None:
        PersistenceOps.memcpy_nt(self, addr, data)

    @persistence_function("nt_store", addr_arg=0, length_arg=2)
    def dax_memset_nt(self, addr: int, value: int, length: int) -> None:
        PersistenceOps.memset_nt(self, addr, value, length)

    @persistence_function("flush", addr_arg=0, length_arg=1)
    def dax_flush_buffer(self, addr: int, length: int) -> None:
        PersistenceOps.flush_range(self, addr, length)

    @persistence_function("fence")
    def dax_fence(self) -> None:
        PersistenceOps.sfence(self)


class Ext4DaxFS(FileSystem):
    """The ext4-DAX-like file system (see module docstring)."""

    name = "ext4-dax"
    strong_guarantees = False
    atomic_data_writes = False
    supports_xattr = True

    ops_class = Ext4Persistence
    geometry_class = Ext4DaxGeometry

    def __init__(
        self,
        device: PMDevice,
        ops: PersistenceOps,
        geometry: Ext4DaxGeometry,
        bugs: Optional[BugConfig] = None,
    ) -> None:
        super().__init__(device, ops)
        self.geom = geometry
        self.bugcfg = bugs if bugs is not None else BugConfig.fixed()
        self.inodes: Dict[int, DaxInode] = {}
        self.children: Dict[int, Dict[str, int]] = {}
        #: (ino, file block) -> full-block dirty page
        self.dirty_pages: Dict[Tuple[int, int], bytes] = {}
        self.dirty_meta = False
        self.alloc = BlockAllocator(geometry.first_data_block, geometry.n_data_blocks)
        self.ialloc = SlotAllocator(geometry.n_inodes, reserved=[ROOT_INO])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def mkfs(cls, device: PMDevice, geometry=None, bugs=None, **kwargs) -> "Ext4DaxFS":
        geom = geometry or cls.geometry_class(device_size=device.size)
        if geom.origin + geom.device_size > device.size:
            raise ValueError("geometry does not fit the device")
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._format()
        return fs

    @classmethod
    def layout_map(cls, image: bytes):
        from repro.fs.common.layout import LayoutMap, single_region_map

        try:
            geom = unpack_superblock(bytes(image[:64]))
        except Exception:  # torn superblock on a crash image
            return single_region_map(len(image))
        if type(geom) is not cls.geometry_class:
            geom = cls.geometry_class(
                device_size=geom.device_size,
                block_size=geom.block_size,
                inode_blocks=geom.inode_blocks,
                journal_blocks=geom.journal_blocks,
                xattr_blocks=geom.xattr_blocks,
            )
        return LayoutMap(layout_regions(geom))

    @classmethod
    def mechanism_hints(cls):
        """ext4-DAX/XFS-DAX persistence mechanisms, in ``layout_map()``
        terms.

        jbd2-style redo journaling: transaction blocks then a commit
        record, checkpointed in place after commit.  Both DAX systems run
        under fsync crash points (weak guarantees), so — as for SplitFS —
        the hints feed recognition analytics rather than fence-epoch
        planning.
        """
        from repro.mech.recognize import MechanismHints

        return MechanismHints(journal_regions=("journal",))

    @classmethod
    def mount(cls, device: PMDevice, bugs=None, origin: int = 0, **kwargs) -> "Ext4DaxFS":
        try:
            geom = unpack_superblock(device.read(origin, 64))
        except ValueError as exc:
            raise MountError(str(exc)) from exc
        if type(geom) is not cls.geometry_class or origin:
            geom = cls.geometry_class(
                device_size=geom.device_size,
                block_size=geom.block_size,
                inode_blocks=geom.inode_blocks,
                journal_blocks=geom.journal_blocks,
                xattr_blocks=geom.xattr_blocks,
                origin=origin,
            )
        # A torn or corrupt superblock can describe any geometry; recovery
        # indexes the one-block bitmap by block number, so a geometry the
        # bitmap cannot cover must fail the mount, not the checker.
        if (
            geom.block_size <= 0
            or geom.origin + geom.device_size > device.size
            or geom.n_blocks > geom.bitmap.size * 8
        ):
            raise MountError(
                f"corrupt superblock geometry: device size "
                f"{geom.device_size}, block size {geom.block_size} on a "
                f"{device.size}-byte device"
            )
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs._recover()
        return fs

    def _format(self) -> None:
        geom = self.geom
        meta_end = geom.first_data_block * geom.block_size
        self.ops.dax_memset_nt(geom.origin, 0, meta_end - geom.origin)
        self.ops.dax_memcpy_nt(geom.origin, pack_superblock(geom))
        self.inodes[ROOT_INO] = DaxInode(ROOT_INO, FTYPE_DIR, 0o755, 2)
        self.children[ROOT_INO] = {}
        self.dirty_meta = True
        self._commit()

    def _recover(self) -> None:
        self._replay_journal()
        geom = self.geom
        self.alloc = BlockAllocator.from_bitmap(
            geom.first_data_block,
            geom.n_data_blocks,
            self.ops.read_pm(geom.bitmap.offset, geom.bitmap.size),
        )
        for ino in range(geom.n_inodes):
            buf = self.ops.read_pm(geom.inode_addr(ino), INODE_SLOT_SIZE)
            if buf[0] != 1:
                continue
            di = DaxInode(
                ino=ino,
                ftype=buf[1],
                mode=read_u16(buf, 2),
                nlink=read_u32(buf, 4),
                size=read_u64(buf, 8),
                ptrs=[read_u32(buf, 16 + 4 * i) for i in range(N_DIRECT)],
            )
            if di.ftype not in (FTYPE_REG, FTYPE_DIR):
                raise MountError(f"inode {ino}: invalid file type {di.ftype}")
            self.inodes[ino] = di
            self.ialloc.mark_used(ino)
        root = self.inodes.get(ROOT_INO)
        if root is None or root.ftype != FTYPE_DIR:
            raise MountError("root inode missing or not a directory")
        for ino, di in self.inodes.items():
            if di.ftype == FTYPE_DIR:
                self.children[ino] = self._read_dir_blocks(di)
        self._read_xattrs()

    def _read_dir_blocks(self, di: DaxInode) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ptr in di.ptrs:
            if not ptr:
                continue
            base = self.geom.block_addr(ptr)
            per_block = self.geom.block_size // DENTRY_SIZE
            for j in range(per_block):
                buf = self.ops.read_pm(base + j * DENTRY_SIZE, DENTRY_SIZE)
                if buf[0] == 1:
                    out[decode_name(buf[8 : 8 + NAME_FIELD])] = read_u32(buf, 4)
        return out

    def _read_xattrs(self) -> None:
        area = self.geom.xattr_area
        n_entries = area.size // XATTR_ENTRY
        for i in range(n_entries):
            buf = self.ops.read_pm(area.offset + i * XATTR_ENTRY, XATTR_ENTRY)
            if buf[0] != 1:
                continue
            ino = read_u32(buf, 4)
            name = decode_name(buf[8:24])
            vlen = read_u16(buf, 24)
            value = bytes(buf[26 : 26 + vlen])
            if ino in self.inodes:
                self.inodes[ino].xattrs[name] = value

    # ------------------------------------------------------------------
    # Journal commit (jbd2-style redo)
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        geom = self.geom
        header = self.ops.read_pm(geom.journal.offset, JOURNAL_HEADER)
        if header[JH_COMMIT] != 1:
            return
        n_records = read_u32(header, JH_NRECORDS)
        pos = geom.journal.offset + JOURNAL_HEADER
        for _ in range(n_records):
            rec_hdr = self.ops.read_pm(pos, REC_HDR)
            addr = read_u64(rec_hdr, 0)
            length = read_u16(rec_hdr, 8)
            if pos + REC_HDR + length > geom.journal.end or addr + length > geom.origin + geom.device_size:
                raise MountError("corrupt journal record during replay")
            data = self.ops.read_pm(pos + REC_HDR, length)
            self.ops.store_cached(addr, data)
            self.ops.dax_flush_buffer(addr, length)
            pos += REC_HDR + ((length + 15) // 16) * 16
        self.ops.dax_fence()
        self.ops.store_cached(geom.journal.offset, b"\x00")
        self.ops.dax_flush_buffer(geom.journal.offset, 1)
        self.ops.dax_fence()

    def _serialize_metadata(self) -> List[Tuple[int, bytes]]:
        """Build the on-PM metadata image from DRAM state, block by block.

        Records are block-granular so :meth:`_commit` can drop the ones that
        already match the persistent content — keeping every commit small
        enough for a single atomic journal transaction.
        """
        geom = self.geom
        records: List[Tuple[int, bytes]] = []
        # Directories: serialize children into their blocks, (re)allocating
        # dentry blocks as needed.
        for ino, di in self.inodes.items():
            if di.ftype != FTYPE_DIR:
                continue
            entries = sorted(self.children.get(ino, {}).items())
            per_block = geom.block_size // DENTRY_SIZE
            needed = max(1, (len(entries) + per_block - 1) // per_block)
            if needed > N_DIRECT:
                raise ENOSPC("directory too large")
            for bi in range(needed):
                if di.ptrs[bi] == 0:
                    di.ptrs[bi] = self.alloc.alloc()
            for bi in range(needed, N_DIRECT):
                if di.ptrs[bi]:
                    self.alloc.free(di.ptrs[bi])
                    di.ptrs[bi] = 0
            di.size = needed * geom.block_size
            for bi in range(needed):
                block = bytearray(geom.block_size)
                for j, (name, child) in enumerate(
                    entries[bi * per_block : (bi + 1) * per_block]
                ):
                    dentry = bytearray(DENTRY_SIZE)
                    dentry[0] = 1
                    dentry[4:8] = u32(child)
                    dentry[8 : 8 + NAME_FIELD] = encode_name(name, NAME_FIELD)
                    block[j * DENTRY_SIZE : (j + 1) * DENTRY_SIZE] = dentry
                records.append((geom.block_addr(di.ptrs[bi]), bytes(block)))
        # Inode table (one record per table block).
        table = bytearray(geom.inode_table.size)
        for ino, di in self.inodes.items():
            slot = bytearray(INODE_SLOT_SIZE)
            slot[0] = 1
            slot[1] = di.ftype
            slot[2:4] = u16(di.mode)
            slot[4:8] = u32(di.nlink)
            slot[8:16] = u64(di.size)
            for i, ptr in enumerate(di.ptrs):
                slot[16 + 4 * i : 20 + 4 * i] = u32(ptr)
            table[ino * INODE_SLOT_SIZE : (ino + 1) * INODE_SLOT_SIZE] = slot
        for off in range(0, geom.inode_table.size, geom.block_size):
            records.append(
                (geom.inode_table.offset + off, bytes(table[off : off + geom.block_size]))
            )
        # Xattr area.
        xattr = bytearray(geom.xattr_area.size)
        idx = 0
        for ino, di in self.inodes.items():
            for name, value in sorted(di.xattrs.items()):
                if idx >= geom.xattr_area.size // XATTR_ENTRY:
                    raise ENOSPC("xattr area full")
                entry = bytearray(XATTR_ENTRY)
                entry[0] = 1
                entry[4:8] = u32(ino)
                entry[8:24] = encode_name(name, 16)
                entry[24:26] = u16(len(value))
                entry[26 : 26 + len(value)] = value
                xattr[idx * XATTR_ENTRY : (idx + 1) * XATTR_ENTRY] = entry
                idx += 1
        for off in range(0, geom.xattr_area.size, geom.block_size):
            records.append(
                (geom.xattr_area.offset + off, bytes(xattr[off : off + geom.block_size]))
            )
        # Bitmap.
        records.append((geom.bitmap.offset, self.alloc.used_bitmap(geom.bitmap.size)))
        return records

    def _writeback_data(self) -> None:
        """Ordered-mode data writeback: flush all dirty pages to their blocks."""
        if not self.dirty_pages:
            return
        for (ino, fblk), page in sorted(self.dirty_pages.items()):
            ptr = self.inodes[ino].ptrs[fblk]
            if ptr:
                self.ops.dax_memcpy_nt(self.geom.block_addr(ptr), page)
        self.ops.dax_fence()
        self.dirty_pages.clear()

    def _commit(self) -> None:
        """Write back data, then journal-commit and checkpoint all metadata.

        The whole commit is one journal transaction: records whose target
        blocks already hold the serialized content are dropped, so only the
        genuinely dirty blocks are journaled.  A commit larger than the
        journal raises ``ENOSPC`` — splitting it into separately committed
        batches would not be crash-atomic, which (while invisible to
        ext4-DAX's own fsync-only crash points) breaks the synchronous
        guarantees SplitFS layers on top of this file system.
        """
        self._writeback_data()
        if not self.dirty_meta:
            return
        geom = self.geom
        records = [
            (addr, data)
            for addr, data in self._serialize_metadata()
            if self.ops.read_pm(addr, len(data)) != data
        ]
        if not records:
            self.dirty_meta = False
            return
        capacity = geom.journal.size - JOURNAL_HEADER
        used = sum(REC_HDR + ((len(d) + 15) // 16) * 16 for _, d in records)
        if used > capacity:
            raise ENOSPC(
                f"metadata commit of {used} bytes exceeds the "
                f"{capacity}-byte journal"
            )
        self._commit_batch(records)
        self.dirty_meta = False

    def _commit_batch(self, records: List[Tuple[int, bytes]]) -> None:
        geom = self.geom
        pos = geom.journal.offset + JOURNAL_HEADER
        for addr, data in records:
            rec = u64(addr) + u16(len(data)) + b"\x00" * 6 + data
            padded = rec + b"\x00" * ((-len(rec)) % 16)
            self.ops.dax_memcpy_nt(pos, padded)
            pos += len(padded)
        self.ops.dax_fence()
        header = bytearray(8)
        header[JH_COMMIT] = 1
        header[JH_NRECORDS : JH_NRECORDS + 4] = u32(len(records))
        self.ops.store_cached(geom.journal.offset, bytes(header))
        self.ops.dax_flush_buffer(geom.journal.offset, 8)
        self.ops.dax_fence()
        # Checkpoint: apply in place.
        for addr, data in records:
            self.ops.store_cached(addr, data)
            self.ops.dax_flush_buffer(addr, len(data))
        self.ops.dax_fence()
        self.ops.store_cached(geom.journal.offset, b"\x00")
        self.ops.dax_flush_buffer(geom.journal.offset, 1)
        self.ops.dax_fence()

    # ------------------------------------------------------------------
    # fsync family — the only persistence points (weak guarantees)
    # ------------------------------------------------------------------
    def fsync(self, path: str) -> None:
        self._resolve(path)
        self.cov("fsync")
        self._commit()

    def fdatasync(self, path: str) -> None:
        self.fsync(path)

    def sync(self) -> None:
        self.cov("sync")
        self._commit()

    # ------------------------------------------------------------------
    # Path resolution (DRAM)
    # ------------------------------------------------------------------
    def _inode(self, ino: int) -> DaxInode:
        di = self.inodes.get(ino)
        if di is None:
            raise FsError(f"missing inode {ino}")
        return di

    def _resolve(self, path: str) -> DaxInode:
        di = self._inode(ROOT_INO)
        for part in split_path(path):
            if di.ftype != FTYPE_DIR:
                raise ENOTDIR(path)
            kids = self.children.get(di.ino, {})
            if part not in kids:
                raise ENOENT(path)
            di = self._inode(kids[part])
        return di

    def _resolve_parent(self, path: str) -> Tuple[DaxInode, str]:
        parent_path, name = split_parent(path)
        parent = self._resolve(parent_path)
        if parent.ftype != FTYPE_DIR:
            raise ENOTDIR(parent_path)
        if len(name.encode("utf-8")) >= NAME_FIELD:
            raise EINVAL(f"name too long: {name!r}")
        return parent, name

    # ------------------------------------------------------------------
    # Namespace operations (all DRAM + dirty marking)
    # ------------------------------------------------------------------
    def creat(self, path: str, mode: int = 0o644) -> None:
        parent, name = self._resolve_parent(path)
        if name in self.children[parent.ino]:
            raise EEXIST(path)
        self.cov("creat")
        ino = self.ialloc.alloc()
        self.inodes[ino] = DaxInode(ino, FTYPE_REG, mode, 1)
        self.children[parent.ino][name] = ino
        self.dirty_meta = True

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        parent, name = self._resolve_parent(path)
        if name in self.children[parent.ino]:
            raise EEXIST(path)
        self.cov("mkdir")
        ino = self.ialloc.alloc()
        self.inodes[ino] = DaxInode(ino, FTYPE_DIR, mode, 2)
        self.children[ino] = {}
        parent.nlink += 1
        self.children[parent.ino][name] = ino
        self.dirty_meta = True

    def rmdir(self, path: str) -> None:
        if normalize(path) == "/":
            raise EINVAL("cannot rmdir the root")
        parent, name = self._resolve_parent(path)
        kids = self.children[parent.ino]
        if name not in kids:
            raise ENOENT(path)
        target = self._inode(kids[name])
        if target.ftype != FTYPE_DIR:
            raise ENOTDIR(path)
        if self.children.get(target.ino):
            raise ENOTEMPTY(path)
        self.cov("rmdir")
        del kids[name]
        parent.nlink -= 1
        self._drop_inode(target)
        self.dirty_meta = True

    def link(self, oldpath: str, newpath: str) -> None:
        target = self._resolve(oldpath)
        if target.ftype == FTYPE_DIR:
            raise EISDIR(f"cannot hard-link a directory: {oldpath}")
        parent, name = self._resolve_parent(newpath)
        if name in self.children[parent.ino]:
            raise EEXIST(newpath)
        self.cov("link")
        self.children[parent.ino][name] = target.ino
        target.nlink += 1
        self.dirty_meta = True

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        kids = self.children[parent.ino]
        if name not in kids:
            raise ENOENT(path)
        target = self._inode(kids[name])
        if target.ftype == FTYPE_DIR:
            raise EISDIR(path)
        self.cov("unlink")
        del kids[name]
        target.nlink -= 1
        if target.nlink <= 0:
            self._drop_inode(target)
        self.dirty_meta = True

    def _drop_inode(self, di: DaxInode) -> None:
        for i, ptr in enumerate(di.ptrs):
            if ptr:
                self.alloc.free(ptr)
                di.ptrs[i] = 0
        for key in [k for k in self.dirty_pages if k[0] == di.ino]:
            del self.dirty_pages[key]
        self.children.pop(di.ino, None)
        del self.inodes[di.ino]
        self.ialloc.free(di.ino)

    def rename(self, oldpath: str, newpath: str) -> None:
        if normalize(oldpath) == normalize(newpath):
            self._resolve(oldpath)
            return
        src_parent, src_name = self._resolve_parent(oldpath)
        src_kids = self.children[src_parent.ino]
        if src_name not in src_kids:
            raise ENOENT(oldpath)
        moved = self._inode(src_kids[src_name])
        if moved.ftype == FTYPE_DIR and is_ancestor(oldpath, newpath):
            raise EINVAL("cannot move a directory into itself")
        dst_parent, dst_name = self._resolve_parent(newpath)
        dst_kids = self.children[dst_parent.ino]
        if dst_name in dst_kids:
            target = self._inode(dst_kids[dst_name])
            if target.ftype == FTYPE_DIR:
                if moved.ftype != FTYPE_DIR:
                    raise EISDIR(newpath)
                if self.children.get(target.ino):
                    raise ENOTEMPTY(newpath)
                dst_parent.nlink -= 1
                self._drop_inode(target)
            else:
                if moved.ftype == FTYPE_DIR:
                    raise ENOTDIR(newpath)
                target.nlink -= 1
                if target.nlink <= 0:
                    self._drop_inode(target)
        self.cov("rename")
        del src_kids[src_name]
        dst_kids[dst_name] = moved.ino
        if moved.ftype == FTYPE_DIR and src_parent.ino != dst_parent.ino:
            src_parent.nlink -= 1
            dst_parent.nlink += 1
        self.dirty_meta = True

    # ------------------------------------------------------------------
    # Data operations (page cache)
    # ------------------------------------------------------------------
    def _file(self, path: str) -> DaxInode:
        di = self._resolve(path)
        if di.ftype != FTYPE_REG:
            raise EISDIR(path)
        return di

    def _page(self, di: DaxInode, fblk: int) -> bytearray:
        key = (di.ino, fblk)
        if key in self.dirty_pages:
            return bytearray(self.dirty_pages[key])
        if di.ptrs[fblk]:
            return bytearray(self.ops.read_pm(self.geom.block_addr(di.ptrs[fblk]), self.geom.block_size))
        return bytearray(self.geom.block_size)

    def write(self, path: str, offset: int, data: bytes) -> int:
        di = self._file(path)
        if offset < 0:
            raise EINVAL("negative write offset")
        if not data:
            return 0
        end = offset + len(data)
        if end > self.geom.max_file_size:
            raise EFBIG(f"file would exceed {self.geom.max_file_size} bytes")
        self.cov("write")
        bs = self.geom.block_size
        for fblk in range(offset // bs, (end - 1) // bs + 1):
            if di.ptrs[fblk] == 0:
                di.ptrs[fblk] = self.alloc.alloc()
                self.dirty_meta = True
            page = self._page(di, fblk)
            lo = max(offset, fblk * bs)
            hi = min(end, (fblk + 1) * bs)
            page[lo - fblk * bs : hi - fblk * bs] = data[lo - offset : hi - offset]
            self.dirty_pages[(di.ino, fblk)] = bytes(page)
        if end > di.size:
            di.size = end
            self.dirty_meta = True
        return len(data)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self._read_inode(self._file(path), offset, length)

    def _read_inode(self, di: DaxInode, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise EINVAL("negative read offset or length")
        end = min(offset + length, di.size)
        if offset >= end:
            return b""
        bs = self.geom.block_size
        out = bytearray()
        for fblk in range(offset // bs, (end - 1) // bs + 1):
            out.extend(self._page(di, fblk))
        base = (offset // bs) * bs
        return bytes(out[offset - base : end - base])

    def truncate(self, path: str, length: int) -> None:
        di = self._file(path)
        if length < 0:
            raise EINVAL("negative truncate length")
        if length > self.geom.max_file_size:
            raise EFBIG("truncate beyond maximum file size")
        if length == di.size:
            return
        self.cov("truncate")
        bs = self.geom.block_size
        if length < di.size:
            cutoff = (length + bs - 1) // bs
            for fblk in range(cutoff, N_DIRECT):
                if di.ptrs[fblk]:
                    self.alloc.free(di.ptrs[fblk])
                    di.ptrs[fblk] = 0
                self.dirty_pages.pop((di.ino, fblk), None)
            if length % bs:
                # Zero the truncated tail in the page cache so a later
                # extension reads zeros.
                tail = length // bs
                if di.ptrs[tail]:
                    page = self._page(di, tail)
                    page[length % bs :] = b"\x00" * (bs - length % bs)
                    self.dirty_pages[(di.ino, tail)] = bytes(page)
        di.size = length
        self.dirty_meta = True

    def fallocate(self, path: str, offset: int, length: int) -> None:
        di = self._file(path)
        if offset < 0 or length <= 0:
            raise EINVAL("fallocate needs offset >= 0 and length > 0")
        end = offset + length
        if end > self.geom.max_file_size:
            raise EFBIG("fallocate beyond maximum file size")
        self.cov("fallocate")
        bs = self.geom.block_size
        for fblk in range(offset // bs, (end - 1) // bs + 1):
            if di.ptrs[fblk] == 0:
                di.ptrs[fblk] = self.alloc.alloc()
                self.dirty_pages[(di.ino, fblk)] = bytes(bs)
        if end > di.size:
            di.size = end
        self.dirty_meta = True

    # ------------------------------------------------------------------
    # Extended attributes
    # ------------------------------------------------------------------
    def setxattr(self, path: str, name: str, value: bytes) -> None:
        di = self._resolve(path)
        if len(name.encode("utf-8")) >= 16 or len(value) > 32:
            raise EINVAL("xattr name/value too large")
        self.cov("setxattr")
        di.xattrs[name] = bytes(value)
        self.dirty_meta = True

    def removexattr(self, path: str, name: str) -> None:
        di = self._resolve(path)
        if name not in di.xattrs:
            raise ENOENT(f"no xattr {name!r} on {path}")
        self.cov("removexattr")
        del di.xattrs[name]
        self.dirty_meta = True

    def getxattr(self, path: str, name: str) -> bytes:
        di = self._resolve(path)
        if name not in di.xattrs:
            raise ENOENT(f"no xattr {name!r} on {path}")
        return di.xattrs[name]

    def listxattr(self, path: str) -> List[str]:
        return sorted(self._resolve(path).xattrs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stat(self, path: str) -> Stat:
        return self._stat_of(self._resolve(path))

    def _stat_of(self, di: DaxInode) -> Stat:
        ftype = FileType.DIRECTORY if di.ftype == FTYPE_DIR else FileType.REGULAR
        return Stat(di.ino, ftype, di.size, di.nlink, di.mode)

    def readdir(self, path: str) -> List[str]:
        di = self._resolve(path)
        if di.ftype != FTYPE_DIR:
            raise ENOTDIR(path)
        return sorted(self.children.get(di.ino, {}))

    def _walk_into(self, path: str, out: Dict[str, FileObservation]) -> None:
        self._walk_node(path, self._resolve(path), out)

    def _observe_node(self, path: str, di: DaxInode):
        if di.ftype == FTYPE_DIR:
            kids = self.children.get(di.ino, {})
            return (
                FileObservation.for_dir(self._stat_of(di), kids),
                lambda name: self._inode(kids[name]),
            )
        if di.ftype != FTYPE_REG:
            raise EISDIR(path)
        content = self._read_inode(di, 0, di.size)
        return FileObservation.for_file(self._stat_of(di), content), None


@dataclass(frozen=True)
class XfsGeometry(Ext4DaxGeometry):
    """XFS-DAX variant: a larger journal, otherwise the same mature design."""

    journal_blocks: int = 24


class XfsDaxFS(Ext4DaxFS):
    """XFS-DAX-like file system.

    The paper notes that ext4-DAX and XFS-DAX share the vast majority of
    their code with their mature disk-based versions; we model XFS-DAX as a
    configuration variant (bigger journal, same weak-guarantee semantics)
    and, like the paper, find no crash-consistency bugs in it.
    """

    name = "xfs-dax"
    geometry_class = XfsGeometry
