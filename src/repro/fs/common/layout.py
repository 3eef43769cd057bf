"""On-PM layout helpers: little-endian integer codecs, regions, checksums."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Tuple


def u16(value: int) -> bytes:
    return struct.pack("<H", value)


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def read_u16(buf: bytes, offset: int = 0) -> int:
    return struct.unpack_from("<H", buf, offset)[0]


def read_u32(buf: bytes, offset: int = 0) -> int:
    return struct.unpack_from("<I", buf, offset)[0]


def read_u64(buf: bytes, offset: int = 0) -> int:
    return struct.unpack_from("<Q", buf, offset)[0]


#: What a superblock decoder raises on a torn crash image: ``ValueError`` for
#: a bad magic or an impossible geometry, ``struct.error`` for a short
#: buffer.  ``layout_map`` falls back to one flat region on exactly these.
TORN_SUPERBLOCK = (ValueError, struct.error)


def crc32(data: bytes) -> int:
    """CRC32 checksum used by the Fortis-style resilience code."""
    return zlib.crc32(data) & 0xFFFFFFFF


def pad_to(data: bytes, size: int) -> bytes:
    """Zero-pad ``data`` to exactly ``size`` bytes."""
    if len(data) > size:
        raise ValueError(f"data of {len(data)} bytes does not fit in {size}")
    return data + b"\x00" * (size - len(data))


def encode_name(name: str, size: int) -> bytes:
    """Encode a file name into a fixed-size, NUL-padded field."""
    raw = name.encode("utf-8")
    if len(raw) >= size:
        raise ValueError(f"name too long for {size}-byte field: {name!r}")
    return pad_to(raw, size)


def decode_name(field: bytes) -> str:
    """Decode a NUL-padded name field."""
    return field.split(b"\x00", 1)[0].decode("utf-8", errors="replace")


@dataclass(frozen=True)
class Region:
    """A contiguous byte region of the PM device."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.offset <= addr and addr + length <= self.end

    def at(self, rel: int) -> int:
        """Absolute address of relative offset ``rel`` within the region."""
        if rel < 0 or rel > self.size:
            raise ValueError(f"relative offset {rel} outside region of size {self.size}")
        return self.offset + rel

    def slot(self, index: int, slot_size: int) -> int:
        """Absolute address of fixed-size slot ``index``."""
        addr = self.offset + index * slot_size
        if addr + slot_size > self.end:
            raise ValueError(f"slot {index} (x{slot_size}) outside region")
        return addr

    @property
    def nslots(self) -> int:
        raise AttributeError("use slot_count(slot_size)")

    def slot_count(self, slot_size: int) -> int:
        return self.size // slot_size


@dataclass(frozen=True)
class NamedRegion:
    """A layout region with a human-readable name (forensics annotation).

    ``slot_size`` > 0 marks a slotted region (inode table, log pages):
    addresses inside it annotate as ``name[slot]+offset``.
    """

    name: str
    region: Region
    slot_size: int = 0


@dataclass(frozen=True)
class LayoutMap:
    """Named-region map of a device image.

    Built by each file system's ``layout_map`` classmethod; the forensics
    layer uses it to translate raw byte addresses in timelines and image
    diffs into layout terms a developer recognizes (``inode_table[3]+0x40``
    instead of ``0x5c0``).
    """

    regions: Tuple["NamedRegion", ...]

    def locate(self, addr: int) -> str:
        """Annotate one byte address with its region (and slot, if any)."""
        for named in self.regions:
            if named.region.contains(addr):
                rel = addr - named.region.offset
                if named.slot_size > 0:
                    slot, off = divmod(rel, named.slot_size)
                    return f"{named.name}[{slot}]+{off:#x}"
                return f"{named.name}+{rel:#x}"
        return f"<unmapped>+{addr:#x}"

    def region_of(self, addr: int) -> str:
        """The bare region name covering ``addr`` (no slot index).

        Slot and offset are deliberately dropped: provenance-guided triage
        keys on *which structure* a store touched, and slot indices would
        split one bug across workloads that happen to allocate different
        inodes.  Unmapped addresses all collapse to ``"<unmapped>"``.
        """
        for named in self.regions:
            if named.region.contains(addr):
                return named.name
        return "<unmapped>"

    def locate_range(self, addr: int, length: int) -> str:
        """Annotate a byte range; spans crossing regions name both ends."""
        start = self.locate(addr)
        if length <= 1:
            return start
        end = self.locate(addr + length - 1)
        if start == end:
            return start
        return f"{start}..{end}"


def single_region_map(size: int, name: str = "device") -> LayoutMap:
    """The fallback layout: one anonymous region covering the image."""
    return LayoutMap((NamedRegion(name, Region(0, size)),))
