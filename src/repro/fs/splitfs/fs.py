"""SplitFS-like hybrid user/kernel PM file system (strict mode).

SplitFS (Kadekodi et al., SOSP '19) splits the file system between a
user-space library (U-Split) and an unmodified kernel file system (K-Split,
ext4-DAX).  In *strict* mode every operation is synchronous and atomic:
U-Split stages data in a staging region and records each operation in a
persistent, checksummed operation log; the kernel file system absorbs the
logged operations lazily ("relink"), and recovery replays the op log on top
of the kernel file system's last durable state.

Layout of the shared device:

* block 0 — SplitFS superblock
* op-log region (fixed entries, one per operation)
* staging region (bump-allocated data blocks)
* the rest — an embedded :class:`~repro.fs.ext4dax.fs.Ext4DaxFS` (K-Split)

All five SplitFS bugs from Table 1 (21-25) are logic bugs in the U-Split
logging protocol — matching the paper's observation that using ext4-DAX for
metadata removes PM-programming errors but not logic bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.fs.bugs import BugConfig
from repro.fs.common.layout import (
    Region,
    crc32,
    decode_name,
    pad_to,
    read_u16,
    read_u32,
    read_u64,
    u16,
    u32,
    u64,
)
from repro.fs.ext4dax.fs import Ext4DaxFS, Ext4DaxGeometry
from repro.pm.device import PMDevice
from repro.pm.persistence import PersistenceOps, persistence_function
from repro.vfs.errors import EINVAL, ENOSPC, FsError
from repro.vfs.interface import FileObservation, FileSystem, MountError
from repro.vfs.types import Stat

SB_MAGIC = 0x53504C54  # "SPLT"

ENTRY_SIZE = 256
# Entry field offsets.
OE_ETYPE = 0
OE_COMMIT = 1
OE_DECLARED_LEN = 8  # u16
OE_OFFSET = 16  # u64
OE_LENGTH = 24  # u64
OE_STAGE_BLOCK = 32  # u32
OE_N_STAGE = 36  # u32
OE_CSUM = 40  # u32
OE_MODE = 44  # u16
OE_PATH1 = 64
OE_PATH2 = 128
OE_PATH_FIELD = 64
OE_INLINE = 192  # inline sub-8-byte tail of unaligned writes
BASE_DECLARED_LEN = OE_INLINE

ET_CREAT = 1
ET_MKDIR = 2
ET_RMDIR = 3
ET_LINK = 4
ET_UNLINK = 5
ET_RENAME = 6
ET_TRUNCATE = 7
ET_FALLOCATE = 8
ET_WRITE = 9

VALID_ETYPES = frozenset(range(ET_CREAT, ET_WRITE + 1))

METADATA_ETYPES = frozenset(
    (ET_CREAT, ET_MKDIR, ET_RMDIR, ET_LINK, ET_UNLINK, ET_RENAME, ET_TRUNCATE, ET_FALLOCATE)
)


@dataclass(frozen=True)
class SplitfsGeometry:
    """Size parameters of a SplitFS image."""

    device_size: int = 512 * 1024
    block_size: int = 512
    oplog_blocks: int = 16
    staging_blocks: int = 64

    @cached_property
    def oplog(self) -> Region:
        return Region(self.block_size, self.oplog_blocks * self.block_size)

    @cached_property
    def n_entries(self) -> int:
        return self.oplog.size // ENTRY_SIZE

    @cached_property
    def staging(self) -> Region:
        return Region(self.oplog.end, self.staging_blocks * self.block_size)

    @cached_property
    def kernel_origin(self) -> int:
        return self.staging.end

    @cached_property
    def kernel_size(self) -> int:
        return self.device_size - self.kernel_origin

    def entry_addr(self, index: int) -> int:
        return self.oplog.slot(index, ENTRY_SIZE)

    def staging_addr(self, block: int) -> int:
        if not (0 <= block < self.staging_blocks):
            raise ValueError(f"staging block {block} out of range")
        return self.staging.offset + block * self.block_size


def pack_superblock(geom: SplitfsGeometry) -> bytes:
    body = (
        u32(SB_MAGIC)
        + u32(1)
        + u64(geom.device_size)
        + u32(geom.block_size)
        + u32(geom.oplog_blocks)
        + u32(geom.staging_blocks)
    )
    return pad_to(body, 64)


def unpack_superblock(buf: bytes) -> SplitfsGeometry:
    if read_u32(buf, 0) != SB_MAGIC:
        raise ValueError("bad SplitFS superblock magic")
    return SplitfsGeometry(
        device_size=read_u64(buf, 8),
        block_size=read_u32(buf, 16),
        oplog_blocks=read_u32(buf, 20),
        staging_blocks=read_u32(buf, 24),
    )


class SplitfsPersistence(PersistenceOps):
    """U-Split's persistence functions (instrumented via Uprobes)."""

    persistence_function_names = (
        "splitfs_memcpy_nt",
        "splitfs_memset_nt",
        "splitfs_flush_buffer",
        "splitfs_fence",
    )

    @persistence_function("nt_store", addr_arg=0, data_arg=1)
    def splitfs_memcpy_nt(self, addr: int, data: bytes) -> None:
        PersistenceOps.memcpy_nt(self, addr, data)

    @persistence_function("nt_store", addr_arg=0, length_arg=2)
    def splitfs_memset_nt(self, addr: int, value: int, length: int) -> None:
        PersistenceOps.memset_nt(self, addr, value, length)

    @persistence_function("flush", addr_arg=0, length_arg=1)
    def splitfs_flush_buffer(self, addr: int, length: int) -> None:
        PersistenceOps.flush_range(self, addr, length)

    @persistence_function("fence")
    def splitfs_fence(self) -> None:
        PersistenceOps.sfence(self)


def _encode_path(path: str) -> bytes:
    raw = path.encode("utf-8")
    if len(raw) >= OE_PATH_FIELD:
        raise EINVAL(f"path too long for op log: {path!r}")
    return raw + b"\x00" * (OE_PATH_FIELD - len(raw))


class SplitFS(FileSystem):
    """SplitFS in strict mode (see module docstring)."""

    name = "splitfs"
    strong_guarantees = True
    atomic_data_writes = True  # strict mode

    ops_class = SplitfsPersistence
    geometry_class = SplitfsGeometry

    def __init__(
        self,
        device: PMDevice,
        ops: PersistenceOps,
        geometry: SplitfsGeometry,
        bugs: Optional[BugConfig] = None,
    ) -> None:
        super().__init__(device, ops)
        self.geom = geometry
        self.bugcfg = bugs if bugs is not None else BugConfig.fixed()
        self.kfs: Optional[Ext4DaxFS] = None
        self._next_entry = 0
        self._next_stage = 0

    @property
    def probe_targets(self) -> List[PersistenceOps]:
        """Both components' persistence functions are instrumented —
        U-Split via Uprobes, the kernel component via Kprobes (paper 3.3)."""
        assert self.kfs is not None
        return [self.ops, self.kfs.ops]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def layout_map(cls, image: bytes):
        from repro.fs.common.layout import (
            TORN_SUPERBLOCK,
            LayoutMap,
            NamedRegion,
            single_region_map,
        )
        from repro.fs.ext4dax.fs import (
            layout_regions,
            unpack_superblock as unpack_kernel_sb,
        )

        try:
            geom = unpack_superblock(bytes(image[:64]))
        except TORN_SUPERBLOCK:
            return single_region_map(len(image))
        regions = [
            NamedRegion("superblock", Region(0, geom.block_size)),
            NamedRegion("oplog", geom.oplog, slot_size=ENTRY_SIZE),
            NamedRegion("staging", geom.staging, slot_size=geom.block_size),
        ]
        # The embedded K-Split (ext4-DAX) has its own superblock at
        # kernel_origin; when it parses, its regions are annotated with a
        # ``kernel.`` prefix, otherwise the component stays one opaque
        # region (its superblock may be torn independently of ours).
        try:
            ksb = unpack_kernel_sb(
                bytes(image[geom.kernel_origin : geom.kernel_origin + 64])
            )
            kgeom = Ext4DaxGeometry(
                device_size=ksb.device_size,
                block_size=ksb.block_size,
                inode_blocks=ksb.inode_blocks,
                journal_blocks=ksb.journal_blocks,
                xattr_blocks=ksb.xattr_blocks,
                origin=geom.kernel_origin,
            )
            regions.extend(layout_regions(kgeom, prefix="kernel."))
        except TORN_SUPERBLOCK:
            regions.append(
                NamedRegion("kernel", Region(geom.kernel_origin, geom.kernel_size))
            )
        return LayoutMap(tuple(regions))

    @classmethod
    def mkfs(cls, device: PMDevice, geometry=None, bugs=None, **kwargs) -> "SplitFS":
        geom = geometry or cls.geometry_class(device_size=device.size)
        if geom.device_size != device.size:
            raise ValueError("geometry does not match device size")
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs.ops.splitfs_memset_nt(0, 0, geom.kernel_origin)
        fs.ops.splitfs_memcpy_nt(0, pack_superblock(geom))
        fs.ops.splitfs_fence()
        fs.kfs = Ext4DaxFS.mkfs(
            device,
            geometry=Ext4DaxGeometry(
                device_size=geom.kernel_size, origin=geom.kernel_origin
            ),
            bugs=BugConfig.fixed(),
        )
        return fs

    @classmethod
    def mount(cls, device: PMDevice, bugs=None, **kwargs) -> "SplitFS":
        try:
            geom = unpack_superblock(device.read(0, 64))
        except ValueError as exc:
            raise MountError(str(exc)) from exc
        fs = cls(device, cls.ops_class(device), geom, bugs, **kwargs)
        fs.kfs = Ext4DaxFS.mount(device, origin=geom.kernel_origin)
        fs._replay_oplog()
        return fs

    # ------------------------------------------------------------------
    # Op log
    # ------------------------------------------------------------------
    def _build_entry(
        self,
        etype: int,
        path1: str = "",
        path2: str = "",
        offset: int = 0,
        length: int = 0,
        stage_block: int = 0,
        n_stage: int = 0,
        mode: int = 0,
        inline: bytes = b"",
    ) -> bytes:
        if len(inline) >= 8:
            raise ValueError("inline tail must be under 8 bytes")
        body = bytearray(ENTRY_SIZE)
        body[OE_ETYPE] = etype
        declared = BASE_DECLARED_LEN + len(inline)
        body[OE_DECLARED_LEN : OE_DECLARED_LEN + 2] = u16(declared)
        body[OE_OFFSET : OE_OFFSET + 8] = u64(offset)
        body[OE_LENGTH : OE_LENGTH + 8] = u64(length)
        body[OE_STAGE_BLOCK : OE_STAGE_BLOCK + 4] = u32(stage_block)
        body[OE_N_STAGE : OE_N_STAGE + 4] = u32(n_stage)
        body[OE_MODE : OE_MODE + 2] = u16(mode)
        if path1:
            body[OE_PATH1 : OE_PATH1 + OE_PATH_FIELD] = _encode_path(path1)
        if path2:
            body[OE_PATH2 : OE_PATH2 + OE_PATH_FIELD] = _encode_path(path2)
        body[OE_INLINE : OE_INLINE + len(inline)] = inline
        body[OE_CSUM : OE_CSUM + 4] = u32(crc32(bytes(body[:declared])))
        return bytes(body)

    def _entry_csum_ok(self, buf: bytes) -> bool:
        declared = read_u16(buf, OE_DECLARED_LEN)
        if not (BASE_DECLARED_LEN <= declared <= ENTRY_SIZE):
            return False
        if self.bugcfg.has(23):
            # Bug 23: replay checksums the 8-byte-padded length rather than
            # the declared length, discarding valid entries whose inline
            # tail is not a multiple of 8 bytes.
            check_len = BASE_DECLARED_LEN + (
                ((declared - BASE_DECLARED_LEN) + 7) // 8
            ) * 8
            check_len = min(check_len, ENTRY_SIZE)
        else:
            check_len = declared
        body = bytearray(buf[:check_len])
        stored = read_u32(buf, OE_CSUM)
        body[OE_CSUM : OE_CSUM + 4] = u32(0)
        body[OE_COMMIT] = 0
        return crc32(bytes(body)) == stored

    def _log_append(self, body: bytes, metadata_op: bool) -> None:
        """Append and commit one op-log entry.

        Protocol: entry body (commit byte clear) via one non-temporal store,
        fence, then the commit marker.  Bug 24 writes the marker with a
        cached store and never flushes it; bug 21 skips the final fence for
        metadata operations, leaving the committed entry in flight when the
        syscall returns.
        """
        if self._next_entry >= self.geom.n_entries:
            self._checkpoint()
        addr = self.geom.entry_addr(self._next_entry)
        self._next_entry += 1
        self.ops.splitfs_memcpy_nt(addr, body)
        self.ops.splitfs_fence()
        if self.bugcfg.has(24):
            self.cov("oplog.cached_commit")
            self.ops.store_cached(addr + OE_COMMIT, b"\x01")
        else:
            self.ops.store_cached(addr + OE_COMMIT, b"\x01")
            self.ops.splitfs_flush_buffer(addr + OE_COMMIT, 1)
        if self.bugcfg.has(21) and metadata_op:
            self.cov("oplog.deferred_fence")
        else:
            self.ops.splitfs_fence()

    def _stage_data(self, data: bytes) -> Tuple[int, int]:
        """Copy the (8-byte-aligned prefix of the) data into staging blocks."""
        bs = self.geom.block_size
        n_blocks = (len(data) + bs - 1) // bs
        if self._next_stage + n_blocks > self.geom.staging_blocks:
            self._checkpoint()
            if self._next_stage + n_blocks > self.geom.staging_blocks:
                raise ENOSPC("staging region too small for this write")
        start = self._next_stage
        self._next_stage += n_blocks
        if data:
            self.ops.splitfs_memcpy_nt(self.geom.staging_addr(start), data)
        return start, n_blocks

    def _checkpoint(self) -> None:
        """Absorb the op log into the kernel file system and clear it.

        The kernel FS already holds every logged operation in its volatile
        state; committing its journal makes them durable, after which the
        log and staging region can be recycled.
        """
        self.cov("checkpoint")
        self.kfs.dirty_meta = True
        self.kfs.sync()
        self.ops.splitfs_memset_nt(self.geom.oplog.offset, 0, self.geom.oplog.size)
        self.ops.splitfs_fence()
        self._next_entry = 0
        self._next_stage = 0

    def _replay_oplog(self) -> None:
        """Mount-time replay of committed op-log entries onto the kernel FS.

        Stops at the first uncommitted or checksum-invalid entry (the torn
        end of the log).  Replay is idempotent: operations that were already
        absorbed by a checkpoint fail benignly and are skipped.
        """
        geom = self.geom
        index = 0
        for index in range(geom.n_entries):
            buf = self.ops.read_pm(geom.entry_addr(index), ENTRY_SIZE)
            etype = buf[OE_ETYPE]
            if etype == 0 or buf[OE_COMMIT] != 1 or etype not in VALID_ETYPES:
                break
            if not self._entry_csum_ok(buf):
                self.cov("replay.csum_reject")
                break
            self._apply_entry(buf)
            self._next_entry = index + 1
        stage_end = 0
        for i in range(self._next_entry):
            buf = self.ops.read_pm(geom.entry_addr(i), ENTRY_SIZE)
            if buf[OE_ETYPE] == ET_WRITE:
                stage_end = max(
                    stage_end, read_u32(buf, OE_STAGE_BLOCK) + read_u32(buf, OE_N_STAGE)
                )
        self._next_stage = stage_end

    def _apply_entry(self, buf: bytes) -> None:
        etype = buf[OE_ETYPE]
        path1 = decode_name(buf[OE_PATH1 : OE_PATH1 + OE_PATH_FIELD])
        path2 = decode_name(buf[OE_PATH2 : OE_PATH2 + OE_PATH_FIELD])
        offset = read_u64(buf, OE_OFFSET)
        length = read_u64(buf, OE_LENGTH)
        mode = read_u16(buf, OE_MODE)
        try:
            if etype == ET_CREAT:
                self.kfs.creat(path1, mode)
            elif etype == ET_MKDIR:
                self.kfs.mkdir(path1, mode)
            elif etype == ET_RMDIR:
                self.kfs.rmdir(path1)
            elif etype == ET_LINK:
                self.kfs.link(path2, path1)
            elif etype == ET_UNLINK:
                self.kfs.unlink(path1)
            elif etype == ET_RENAME:
                self.kfs.rename(path2, path1)
            elif etype == ET_TRUNCATE:
                self.kfs.truncate(path1, length)
            elif etype == ET_FALLOCATE:
                self.kfs.fallocate(path1, offset, length)
            elif etype == ET_WRITE:
                declared = read_u16(buf, OE_DECLARED_LEN)
                inline = bytes(buf[OE_INLINE:declared])
                stage_block = read_u32(buf, OE_STAGE_BLOCK)
                staged_len = length - len(inline)
                staged = (
                    self.ops.read_pm(self.geom.staging_addr(stage_block), staged_len)
                    if staged_len
                    else b""
                )
                self.kfs.write(path1, offset, staged + inline)
        except FsError:
            # Already absorbed by a checkpoint before the crash.
            self.cov("replay.skip_applied")

    # ------------------------------------------------------------------
    # Operations: validate and apply on the kernel FS (volatile), then
    # persist through the op log.
    # ------------------------------------------------------------------
    def creat(self, path: str, mode: int = 0o644) -> None:
        self.kfs.creat(path, mode)
        self.cov("creat")
        self._log_append(self._build_entry(ET_CREAT, path, mode=mode), True)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.kfs.mkdir(path, mode)
        self.cov("mkdir")
        self._log_append(self._build_entry(ET_MKDIR, path, mode=mode), True)

    def rmdir(self, path: str) -> None:
        self.kfs.rmdir(path)
        self.cov("rmdir")
        self._log_append(self._build_entry(ET_RMDIR, path), True)

    def link(self, oldpath: str, newpath: str) -> None:
        self.kfs.link(oldpath, newpath)
        self.cov("link")
        self._log_append(self._build_entry(ET_LINK, newpath, oldpath), True)

    def unlink(self, path: str) -> None:
        self.kfs.unlink(path)
        self.cov("unlink")
        self._log_append(self._build_entry(ET_UNLINK, path), True)

    def rename(self, oldpath: str, newpath: str) -> None:
        self.kfs.rename(oldpath, newpath)
        self.cov("rename")
        if self.bugcfg.has(25):
            # Bug 25: rename is logged as link-new followed by unlink-old,
            # two separately committed entries — a crash in between leaves
            # both names.
            self.cov("rename.link_unlink")
            self._log_append(self._build_entry(ET_LINK, newpath, oldpath), True)
            self._log_append(self._build_entry(ET_UNLINK, oldpath), True)
        else:
            self._log_append(self._build_entry(ET_RENAME, newpath, oldpath), True)

    def truncate(self, path: str, length: int) -> None:
        self.kfs.truncate(path, length)
        self.cov("truncate")
        self._log_append(self._build_entry(ET_TRUNCATE, path, length=length), True)

    def fallocate(self, path: str, offset: int, length: int) -> None:
        self.kfs.fallocate(path, offset, length)
        self.cov("fallocate")
        self._log_append(
            self._build_entry(ET_FALLOCATE, path, offset=offset, length=length), True
        )

    def write(self, path: str, offset: int, data: bytes) -> int:
        n = self.kfs.write(path, offset, data)
        if n == 0:
            return 0
        self.cov("write")
        aligned_len = (len(data) // 8) * 8
        inline = data[aligned_len:]
        if inline:
            self.cov("write.inline_tail")
        if self.bugcfg.has(22):
            # Bug 22: the entry referencing the staged data is committed
            # before the data itself is durable.
            self.cov("write.publish_first")
            start = self._next_stage
            n_blocks = (aligned_len + self.geom.block_size - 1) // self.geom.block_size
            if start + n_blocks > self.geom.staging_blocks:
                self._checkpoint()
                start = 0
            entry = self._build_entry(
                ET_WRITE,
                path,
                offset=offset,
                length=len(data),
                stage_block=start,
                n_stage=n_blocks,
                inline=inline,
            )
            self._log_append(entry, False)
            self._next_stage = start + n_blocks
            if aligned_len:
                self.ops.splitfs_memcpy_nt(
                    self.geom.staging_addr(start), data[:aligned_len]
                )
            self.ops.splitfs_fence()
        else:
            start, n_blocks = self._stage_data(data[:aligned_len])
            self.ops.splitfs_fence()
            entry = self._build_entry(
                ET_WRITE,
                path,
                offset=offset,
                length=len(data),
                stage_block=start,
                n_stage=n_blocks,
                inline=inline,
            )
            self._log_append(entry, False)
        return n

    # ------------------------------------------------------------------
    # Reads and persistence points delegate to the kernel FS.
    # ------------------------------------------------------------------
    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.kfs.read(path, offset, length)

    def stat(self, path: str) -> Stat:
        return self.kfs.stat(path)

    def readdir(self, path: str) -> List[str]:
        return self.kfs.readdir(path)

    def _walk_into(self, path: str, out: Dict[str, FileObservation]) -> None:
        self.kfs._walk_into(path, out)

    def fsync(self, path: str) -> None:
        # Strict mode: every operation is already synchronous.
        self.stat(path)

    def sync(self) -> None:
        self._checkpoint()
