"""On-PM layout of the NOVA-like file system.

Device layout (block addresses):

* block 0 — superblock
* block 1 — circular journal
* blocks 2 .. 2+inode_blocks — inode table (fixed 128-byte slots spanning
  two cache lines: identity fields on line 0, mutable commit state on line 1)
* remainder — log pages and data blocks, allocated on demand

A log page is one block: a 16-byte header (magic, next-page pointer) followed
by fixed 64-byte log entries.  The *committed length* of an inode's log is
its persistent ``log_count`` field — the commit pointer every operation
updates last (and whose premature in-place update is bug 3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

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

SB_MAGIC = 0x4E4F5641  # "NOVA"
LOGPAGE_MAGIC = 0x4C4F4750  # "LOGP"

INODE_SLOT_SIZE = 128
LOG_ENTRY_SIZE = 64
LOG_PAGE_HEADER = 16
NAME_FIELD = 32

# Inode slot field offsets.  The slot spans two cache lines on purpose:
# line 0 holds the identity fields written once at creation, line 1 holds
# the mutable commit state.  Updating the commit pointer therefore never
# incidentally writes back the identity line — which is exactly why an
# unflushed inode initialization (bug 2) stays lost.
INO_VALID = 0
INO_FTYPE = 1
INO_MODE = 2
INO_LOG_HEAD = 8  # u64 absolute address of the first log page
INO_COUNT = 64  # u32 log_count — the commit pointer (second cache line)
INO_CSUM = 68  # u32, used by NOVA-Fortis
INO_REPLICA_SYNC = 72  # u32 replica generation, used by NOVA-Fortis

#: Bytes of the slot covered by the Fortis inode checksum: the identity
#: prefix plus the commit pointer.
CSUM_IDENTITY_LEN = 16

FTYPE_REG = 1
FTYPE_DIR = 2

# Log entry types.
ET_ATTR = 1
ET_DENTRY_ADD = 2
ET_DENTRY_DEL = 3
ET_WRITE = 4
ET_LINK_CHANGE = 5

VALID_ENTRY_TYPES = frozenset((ET_ATTR, ET_DENTRY_ADD, ET_DENTRY_DEL, ET_WRITE, ET_LINK_CHANGE))


@dataclass(frozen=True)
class NovaGeometry:
    """Size parameters of a NOVA image.

    The defaults give a small, fast image where the log-page-overflow slow
    path (bug 1) is reachable by short workloads, mirroring how the paper
    drives deep code paths with small tests.
    """

    device_size: int = 512 * 1024
    block_size: int = 512
    inode_blocks: int = 4
    #: Entries per log page; at most (block_size - header) // entry size.
    log_page_entries: int = 4

    def __post_init__(self) -> None:
        max_entries = (self.block_size - LOG_PAGE_HEADER) // LOG_ENTRY_SIZE
        if not (1 <= self.log_page_entries <= max_entries):
            raise ValueError(
                f"log_page_entries must be in [1, {max_entries}], "
                f"got {self.log_page_entries}"
            )
        if self.device_size % self.block_size:
            raise ValueError("device_size must be a multiple of block_size")

    # Region map -----------------------------------------------------------
    @cached_property
    def n_blocks(self) -> int:
        return self.device_size // self.block_size

    @cached_property
    def superblock(self) -> Region:
        return Region(0, self.block_size)

    @cached_property
    def journal(self) -> Region:
        return Region(self.block_size, self.block_size)

    @cached_property
    def inode_table(self) -> Region:
        return Region(2 * self.block_size, self.inode_blocks * self.block_size)

    @cached_property
    def n_inodes(self) -> int:
        return self.inode_table.size // INODE_SLOT_SIZE

    @cached_property
    def first_data_block(self) -> int:
        return 2 + self.inode_blocks

    @cached_property
    def n_data_blocks(self) -> int:
        return self.n_blocks - self.first_data_block

    @cached_property
    def max_file_size(self) -> int:
        """No file can hold more bytes than the whole data area."""
        return self.n_data_blocks * self.block_size

    def block_addr(self, block: int) -> int:
        if not (0 <= block < self.n_blocks):
            raise ValueError(f"block {block} out of range")
        return block * self.block_size

    def inode_addr(self, ino: int) -> int:
        return self.inode_table.slot(ino, INODE_SLOT_SIZE)

    def entry_addr(self, page_addr: int, index: int) -> int:
        """Address of entry ``index`` within the log page at ``page_addr``."""
        if not (0 <= index < self.log_page_entries):
            raise ValueError(f"entry index {index} out of page range")
        return page_addr + LOG_PAGE_HEADER + index * LOG_ENTRY_SIZE


# ---------------------------------------------------------------------------
# Superblock codec
# ---------------------------------------------------------------------------


def pack_superblock(geom: NovaGeometry) -> bytes:
    body = (
        u32(SB_MAGIC)
        + u32(1)  # version
        + u64(geom.device_size)
        + u32(geom.block_size)
        + u32(geom.inode_blocks)
        + u32(geom.log_page_entries)
    )
    return pad_to(body, 64)


def unpack_superblock(buf: bytes) -> NovaGeometry:
    if read_u32(buf, 0) != SB_MAGIC:
        raise ValueError("bad NOVA superblock magic")
    device_size = read_u64(buf, 8)
    block_size = read_u32(buf, 16)
    inode_blocks = read_u32(buf, 20)
    log_page_entries = read_u32(buf, 24)
    return NovaGeometry(
        device_size=device_size,
        block_size=block_size,
        inode_blocks=inode_blocks,
        log_page_entries=log_page_entries,
    )


# ---------------------------------------------------------------------------
# Inode slot codec
# ---------------------------------------------------------------------------


def pack_inode_slot(ftype: int, mode: int, log_head: int) -> bytes:
    body = bytearray(INODE_SLOT_SIZE)
    body[INO_VALID] = 1
    body[INO_FTYPE] = ftype
    body[INO_MODE : INO_MODE + 2] = u16(mode)
    body[INO_COUNT : INO_COUNT + 4] = u32(0)
    body[INO_LOG_HEAD : INO_LOG_HEAD + 8] = u64(log_head)
    return bytes(body)


@dataclass(frozen=True)
class InodeSlot:
    valid: bool
    ftype: int
    mode: int
    log_count: int
    log_head: int
    csum: int
    replica_sync: int


def unpack_inode_slot(buf: bytes) -> InodeSlot:
    return InodeSlot(
        valid=buf[INO_VALID] == 1,
        ftype=buf[INO_FTYPE],
        mode=read_u16(buf, INO_MODE),
        log_count=read_u32(buf, INO_COUNT),
        log_head=read_u64(buf, INO_LOG_HEAD),
        csum=read_u32(buf, INO_CSUM),
        replica_sync=read_u32(buf, INO_REPLICA_SYNC),
    )


# ---------------------------------------------------------------------------
# Log entry codecs.  All entries are LOG_ENTRY_SIZE bytes; byte 0 is the
# entry type, bytes 8.. are per-type payload.
# ---------------------------------------------------------------------------


def pack_attr_entry(size: int, nlink: int, mode: int) -> bytes:
    body = bytearray(LOG_ENTRY_SIZE)
    body[0] = ET_ATTR
    body[8:16] = u64(size)
    body[16:20] = u32(nlink)
    body[20:22] = u16(mode)
    return bytes(body)


def pack_dentry_add(ino: int, name: str) -> bytes:
    body = bytearray(LOG_ENTRY_SIZE)
    body[0] = ET_DENTRY_ADD
    body[8:12] = u32(ino)
    body[12] = 1  # valid flag, cleared by in-place invalidation (bugs 4, 5)
    body[16 : 16 + NAME_FIELD] = encode_name(name, NAME_FIELD)
    return bytes(body)


def pack_dentry_del(ino: int, name: str) -> bytes:
    body = bytearray(LOG_ENTRY_SIZE)
    body[0] = ET_DENTRY_DEL
    body[8:12] = u32(ino)
    body[16 : 16 + NAME_FIELD] = encode_name(name, NAME_FIELD)
    return bytes(body)


# WRITE entry payload offsets (relative to entry start); the fallocate
# in-place extension bug (bug 8) rewrites a committed entry at these offsets.
WE_OFFSET = 8
WE_LENGTH = 16
WE_START_BLOCK = 24
WE_N_BLOCKS = 28


def pack_write_entry(offset: int, length: int, start_block: int, n_blocks: int) -> bytes:
    body = bytearray(LOG_ENTRY_SIZE)
    body[0] = ET_WRITE
    body[WE_OFFSET : WE_OFFSET + 8] = u64(offset)
    body[WE_LENGTH : WE_LENGTH + 8] = u64(length)
    body[WE_START_BLOCK : WE_START_BLOCK + 4] = u32(start_block)
    body[WE_N_BLOCKS : WE_N_BLOCKS + 4] = u32(n_blocks)
    return bytes(body)


def pack_link_change(delta: int) -> bytes:
    body = bytearray(LOG_ENTRY_SIZE)
    body[0] = ET_LINK_CHANGE
    body[8:12] = struct.pack("<i", delta)
    return bytes(body)


@dataclass(frozen=True)
class ParsedEntry:
    """A decoded log entry plus its on-PM address (for in-place updates)."""

    etype: int
    addr: int
    # ATTR
    size: int = 0
    nlink: int = 0
    mode: int = 0
    # DENTRY_*
    ino: int = 0
    name: str = ""
    dentry_valid: bool = True
    # WRITE
    offset: int = 0
    length: int = 0
    start_block: int = 0
    n_blocks: int = 0
    # LINK_CHANGE
    delta: int = 0


def unpack_entry(buf: bytes, addr: int) -> ParsedEntry:
    """Decode one log entry; raises ``ValueError`` for unknown entry types."""
    etype = buf[0]
    if etype not in VALID_ENTRY_TYPES:
        raise ValueError(f"invalid log entry type {etype} at {addr:#x}")
    if etype == ET_ATTR:
        return ParsedEntry(
            etype,
            addr,
            size=read_u64(buf, 8),
            nlink=read_u32(buf, 16),
            mode=read_u16(buf, 20),
        )
    if etype in (ET_DENTRY_ADD, ET_DENTRY_DEL):
        return ParsedEntry(
            etype,
            addr,
            ino=read_u32(buf, 8),
            dentry_valid=buf[12] == 1,
            name=decode_name(buf[16 : 16 + NAME_FIELD]),
        )
    if etype == ET_WRITE:
        return ParsedEntry(
            etype,
            addr,
            offset=read_u64(buf, WE_OFFSET),
            length=read_u64(buf, WE_LENGTH),
            start_block=read_u32(buf, WE_START_BLOCK),
            n_blocks=read_u32(buf, WE_N_BLOCKS),
        )
    # ET_LINK_CHANGE
    return ParsedEntry(etype, addr, delta=struct.unpack_from("<i", buf, 8)[0])


# ---------------------------------------------------------------------------
# Journal codec: one block holding up to 8 (ino, new_count) commit pairs.
# ---------------------------------------------------------------------------

JR_COMMIT = 0
JR_NPAIRS = 1
JR_PAIRS = 8
JR_PAIR_SIZE = 8
JR_MAX_PAIRS = 8


def pack_journal_pairs(pairs: List[Tuple[int, int]]) -> bytes:
    """Pack (ino, new_count) pairs into the journal pair area."""
    if len(pairs) > JR_MAX_PAIRS:
        raise ValueError(f"too many journal pairs: {len(pairs)}")
    out = bytearray(JR_MAX_PAIRS * JR_PAIR_SIZE)
    for i, (ino, new_count) in enumerate(pairs):
        out[i * JR_PAIR_SIZE : i * JR_PAIR_SIZE + 4] = u32(ino)
        out[i * JR_PAIR_SIZE + 4 : i * JR_PAIR_SIZE + 8] = u32(new_count)
    return bytes(out)


def unpack_journal_pairs(buf: bytes, n_pairs: int) -> List[Tuple[int, int]]:
    pairs = []
    for i in range(n_pairs):
        ino = read_u32(buf, JR_PAIRS + i * JR_PAIR_SIZE)
        new_count = read_u32(buf, JR_PAIRS + i * JR_PAIR_SIZE + 4)
        pairs.append((ino, new_count))
    return pairs
