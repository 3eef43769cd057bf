"""Vinter-style recovery-read heuristic (paper section 6.2).

Vinter reduces its state space by focusing on crash states whose in-flight
writes are *likely to be read during recovery*.  The paper notes Chipmunk
"could incorporate this heuristic by recording PM read functions" — this
module does exactly that: it mounts the last persistent state on a
read-tracking device, records which byte ranges recovery touches, and lets
the replayer rank subsets by how much of their in-flight data recovery
would actually observe.

This is an *ordering* heuristic, not a filter: with a subset cap in place it
changes which states are generated first, which matters when a campaign is
stopped early (time-boxed fuzzing).  The ablation bench
(`benchmarks/bench_vinter_heuristic.py`) measures how many crash states a
campaign checks before the first report, with and without the heuristic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.pm.device import CACHE_LINE, PMDevice, PMDeviceError
from repro.pm.log import WriteEntry
from repro.vfs.interface import MountError


class ReadTrackingDevice(PMDevice):
    """A device that records every byte range read from it."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.read_ranges: List[Tuple[int, int]] = []

    @classmethod
    def from_snapshot(cls, snap: bytes) -> "ReadTrackingDevice":
        if not isinstance(snap, (bytes, bytearray)):
            snap = bytes(snap)  # lazy CrashImage → flat bytes
        dev = cls(len(snap))
        dev.image = bytearray(snap)
        dev.read_ranges.clear()
        return dev

    def read(self, addr: int, length: int) -> bytes:
        if length > 0:
            self.read_ranges.append((addr, length))
        return super().read(addr, length)


class OverlayReadTrackingDevice(PMDevice):
    """Read-tracking device over ``base`` plus a sparse write overlay.

    Construction takes the shared fence-base bytes *by reference* and an
    ordered list of overlay writes; nothing is copied up front.  Chunks of
    the image are materialized copy-on-access — base slice plus the overlay
    writes that land in the chunk, applied in log order — so a recovery pass
    that reads a few kilobytes costs a few kilobytes, not a device copy.
    Mount-time recovery writes land in the same materialized chunks and are
    observed by later reads, exactly as on a flat device.
    """

    CHUNK = 4096

    def __init__(self, base, writes: Iterable[Tuple[int, bytes]] = ()) -> None:
        # ``base`` is flat bytes or a sliceable fence base — only accessed
        # chunks are read.
        size = len(base)
        if size <= 0 or size % CACHE_LINE != 0:
            raise PMDeviceError(
                f"device size must be a positive multiple of {CACHE_LINE}, got {size}"
            )
        # Deliberately skip PMDevice.__init__: no full-image allocation.
        self.size = size
        self._base = base
        self._chunks: Dict[int, bytearray] = {}
        self._pending: Dict[int, List[Tuple[int, bytes]]] = {}
        for addr, data in writes:
            if not data:
                continue
            self.check_range(addr, len(data))
            first = addr // self.CHUNK
            last = (addr + len(data) - 1) // self.CHUNK
            for ci in range(first, last + 1):
                self._pending.setdefault(ci, []).append((addr, data))
        self.read_ranges: List[Tuple[int, int]] = []
        self._undo = None
        self._c_reads = self._c_read_bytes = None
        self._c_writes = self._c_write_bytes = None

    def _chunk(self, ci: int) -> bytearray:
        buf = self._chunks.get(ci)
        if buf is None:
            lo = ci * self.CHUNK
            hi = min(lo + self.CHUNK, self.size)
            buf = bytearray(self._base[lo:hi])
            for addr, data in self._pending.pop(ci, ()):
                s = max(addr, lo)
                e = min(addr + len(data), hi)
                if s < e:
                    buf[s - lo : e - lo] = data[s - addr : e - addr]
            self._chunks[ci] = buf
        return buf

    def read(self, addr: int, length: int) -> bytes:
        self.check_range(addr, length)
        if length <= 0:
            return b""
        self.read_ranges.append((addr, length))
        first = addr // self.CHUNK
        last = (addr + length - 1) // self.CHUNK
        parts = []
        for ci in range(first, last + 1):
            lo = ci * self.CHUNK
            buf = self._chunk(ci)
            s = max(addr, lo) - lo
            e = min(addr + length, lo + len(buf)) - lo
            parts.append(bytes(buf[s:e]))
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        self.check_range(addr, len(data))
        if not data:
            return
        first = addr // self.CHUNK
        last = (addr + len(data) - 1) // self.CHUNK
        for ci in range(first, last + 1):
            lo = ci * self.CHUNK
            buf = self._chunk(ci)
            s = max(addr, lo)
            e = min(addr + len(data), lo + len(buf))
            buf[s - lo : e - lo] = data[s - addr : e - addr]

    def snapshot(self) -> bytes:
        # Slicing (not buffer conversion) so lazy fence bases — sliceable
        # but not buffer-protocol objects — work as the base too.
        buf = bytearray(self._base[0 : self.size])
        for ci in sorted(set(self._pending) | set(self._chunks)):
            if ci in self._chunks:
                lo = ci * self.CHUNK
                buf[lo : lo + len(self._chunks[ci])] = self._chunks[ci]
            else:
                for addr, data in self._pending[ci]:
                    lo = ci * self.CHUNK
                    hi = min(lo + self.CHUNK, self.size)
                    s = max(addr, lo)
                    e = min(addr + len(data), hi)
                    if s < e:
                        buf[s:e] = data[s - addr : e - addr]
        return bytes(buf)


def recovery_read_set(
    fs_class,
    image: bytes,
    bugs=None,
    granularity: int = 64,
    writes: Iterable[Tuple[int, bytes]] | None = None,
) -> Set[int]:
    """Cache lines recovery reads when mounting ``image``.

    A failed mount still yields the ranges read up to the failure — those
    are precisely the locations recovery trusted.

    With ``writes``, ``image`` is treated as the shared fence base and the
    mount runs against ``base + writes`` on an
    :class:`OverlayReadTrackingDevice` — no flat copy of the device is ever
    built, so the cost is proportional to the overlay plus the bytes
    recovery actually reads.
    """
    if writes is not None:
        device: PMDevice = OverlayReadTrackingDevice(image, writes)
    else:
        device = ReadTrackingDevice.from_snapshot(image)
    try:
        fs_class.mount(device, bugs=bugs)
    except (MountError, Exception):  # noqa: BLE001 - any recovery failure is fine
        pass
    lines: Set[int] = set()
    for addr, length in device.read_ranges:
        first = addr // granularity
        last = (addr + length - 1) // granularity
        lines.update(range(first, last + 1))
    return lines


def write_overlap(entry: WriteEntry, read_lines: Set[int], granularity: int = 64) -> int:
    """How many of the entry's cache lines recovery would read."""
    first = entry.addr // granularity
    last = (entry.addr + max(entry.length, 1) - 1) // granularity
    return sum(1 for line in range(first, last + 1) if line in read_lines)


def rank_units(
    units: List[List[WriteEntry]], read_lines: Set[int]
) -> List[List[WriteEntry]]:
    """Order replay units so recovery-visible writes come first."""
    scored = [
        (sum(write_overlap(e, read_lines) for e in unit), i, unit)
        for i, unit in enumerate(units)
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [unit for _, _, unit in scored]
