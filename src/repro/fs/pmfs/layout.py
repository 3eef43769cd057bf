"""On-PM layout of the PMFS-like file system.

Device layout (block addresses):

* block 0 — superblock
* blocks 1 .. J — undo journal area(s); ``n_cpus`` areas of
  ``journal_blocks`` blocks each (PMFS has one, WineFS one per CPU)
* next block — truncate list
* next ``inode_blocks`` — inode table (64-byte in-place slots)
* next block — persistent block bitmap
* remainder — data and directory blocks
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

SB_MAGIC = 0x504D4653  # "PMFS"

INODE_SLOT_SIZE = 64
DENTRY_SIZE = 64
NAME_FIELD = 48
N_DIRECT = 10

# Inode slot field offsets.
INO_VALID = 0
INO_FTYPE = 1
INO_MODE = 2
INO_NLINK = 4
INO_SIZE = 8
INO_PTRS = 16  # N_DIRECT x u32

FTYPE_REG = 1
FTYPE_DIR = 2

# Undo journal: a 64-byte header then 128-byte records.
JH_ACTIVE = 0
JH_NRECORDS = 1
JOURNAL_HEADER = 64
RECORD_SIZE = 128
RECORD_MAGIC = 0xA5
# Record field offsets.
REC_ADDR = 0  # u64
REC_LEN = 8  # u16 (<= 64)
REC_MAGIC = 10  # u8
REC_DATA = 64  # up to 64 bytes of before-image

# Truncate list entries.
TL_ENTRY_SIZE = 16
TL_VALID = 0
TL_INO = 4  # u32
TL_NEW_SIZE = 8  # u64


@dataclass(frozen=True)
class PmfsGeometry:
    """Size parameters of a PMFS/WineFS image."""

    device_size: int = 512 * 1024
    block_size: int = 512
    inode_blocks: int = 4
    journal_blocks: int = 3
    n_cpus: int = 1  # WineFS overrides with its per-CPU journal array

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.device_size % self.block_size:
            raise ValueError("device_size must be a multiple of block_size")
        if self.n_cpus < 1:
            raise ValueError("need at least one CPU journal area")

    @cached_property
    def n_blocks(self) -> int:
        return self.device_size // self.block_size

    @cached_property
    def superblock(self) -> Region:
        return Region(0, self.block_size)

    def journal_area(self, cpu: int) -> Region:
        if not (0 <= cpu < self.n_cpus):
            raise ValueError(f"cpu {cpu} out of range")
        size = self.journal_blocks * self.block_size
        return Region(self.block_size + cpu * size, size)

    @cached_property
    def journal_records_per_area(self) -> int:
        area = self.journal_blocks * self.block_size
        return (area - JOURNAL_HEADER) // RECORD_SIZE

    @cached_property
    def truncate_list(self) -> Region:
        end = self.journal_area(self.n_cpus - 1).end
        return Region(end, self.block_size)

    @cached_property
    def n_truncate_entries(self) -> int:
        return self.truncate_list.size // TL_ENTRY_SIZE

    @cached_property
    def inode_table(self) -> Region:
        return Region(self.truncate_list.end, self.inode_blocks * self.block_size)

    @cached_property
    def n_inodes(self) -> int:
        return self.inode_table.size // INODE_SLOT_SIZE

    @cached_property
    def bitmap(self) -> Region:
        return Region(self.inode_table.end, self.block_size)

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
        if not (0 <= block < self.n_blocks):
            raise ValueError(f"block {block} out of range")
        return block * self.block_size

    def inode_addr(self, ino: int) -> int:
        return self.inode_table.slot(ino, INODE_SLOT_SIZE)

    def bitmap_byte_addr(self, block: int) -> int:
        return self.bitmap.offset + block // 8


def pack_superblock(geom: PmfsGeometry) -> bytes:
    body = (
        u32(SB_MAGIC)
        + u32(1)
        + u64(geom.device_size)
        + u32(geom.block_size)
        + u32(geom.inode_blocks)
        + u32(geom.journal_blocks)
        + u32(geom.n_cpus)
    )
    return pad_to(body, 64)


def unpack_superblock(buf: bytes) -> PmfsGeometry:
    if read_u32(buf, 0) != SB_MAGIC:
        raise ValueError("bad PMFS superblock magic")
    return PmfsGeometry(
        device_size=read_u64(buf, 8),
        block_size=read_u32(buf, 16),
        inode_blocks=read_u32(buf, 20),
        journal_blocks=read_u32(buf, 24),
        n_cpus=read_u32(buf, 28),
    )


@dataclass(frozen=True)
class InodeSlot:
    valid: bool
    ftype: int
    mode: int
    nlink: int
    size: int
    ptrs: tuple

    def mapped(self) -> list:
        """(file block index, device block) pairs for mapped blocks."""
        return [(i, p) for i, p in enumerate(self.ptrs) if p != 0]


def pack_inode_slot(ftype: int, mode: int, nlink: int, size: int, ptrs=()) -> bytes:
    body = bytearray(INODE_SLOT_SIZE)
    body[INO_VALID] = 1
    body[INO_FTYPE] = ftype
    body[INO_MODE : INO_MODE + 2] = u16(mode)
    body[INO_NLINK : INO_NLINK + 4] = u32(nlink)
    body[INO_SIZE : INO_SIZE + 8] = u64(size)
    for i, ptr in enumerate(ptrs):
        body[INO_PTRS + 4 * i : INO_PTRS + 4 * i + 4] = u32(ptr)
    return bytes(body)


def unpack_inode_slot(buf: bytes) -> InodeSlot:
    return InodeSlot(
        valid=buf[INO_VALID] == 1,
        ftype=buf[INO_FTYPE],
        mode=read_u16(buf, INO_MODE),
        nlink=read_u32(buf, INO_NLINK),
        size=read_u64(buf, INO_SIZE),
        ptrs=tuple(read_u32(buf, INO_PTRS + 4 * i) for i in range(N_DIRECT)),
    )


def pack_dentry(ino: int, name: str) -> bytes:
    body = bytearray(DENTRY_SIZE)
    body[0] = 1
    body[4:8] = u32(ino)
    body[8 : 8 + NAME_FIELD] = encode_name(name, NAME_FIELD)
    return bytes(body)


@dataclass(frozen=True)
class Dentry:
    valid: bool
    ino: int
    name: str


def unpack_dentry(buf: bytes) -> Dentry:
    return Dentry(valid=buf[0] == 1, ino=read_u32(buf, 4), name=decode_name(buf[8 : 8 + NAME_FIELD]))


def pack_journal_record(addr: int, before: bytes) -> bytes:
    if len(before) > 64:
        raise ValueError("undo record covers at most 64 bytes")
    body = bytearray(RECORD_SIZE)
    body[REC_ADDR : REC_ADDR + 8] = u64(addr)
    body[REC_LEN : REC_LEN + 2] = u16(len(before))
    body[REC_MAGIC] = RECORD_MAGIC
    body[REC_DATA : REC_DATA + len(before)] = before
    return bytes(body)


def pack_truncate_entry(ino: int, new_size: int) -> bytes:
    body = bytearray(TL_ENTRY_SIZE)
    body[TL_VALID] = 1
    body[TL_INO : TL_INO + 4] = u32(ino)
    body[TL_NEW_SIZE : TL_NEW_SIZE + 8] = u64(new_size)
    return bytes(body)
