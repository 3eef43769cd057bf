"""Byte-addressable simulated persistent-memory device.

The device holds the *volatile* view of PM: the contents as seen by the
running CPU, including stores that are still sitting in caches.  Persistence
is not tracked here — it is derived from the :class:`~repro.pm.log.PMLog` of
persistence operations, exactly as Chipmunk derives crash states from its
write log rather than from the live image.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Sequence, Tuple

from repro.obs import profile as _profile

#: Cache-line size on the modelled platform (bytes).
CACHE_LINE = 64

#: Unit of write atomicity on Intel PM (bytes); an aligned 8-byte store is
#: never torn by a crash.
ATOMIC_UNIT = 8


class PMDeviceError(Exception):
    """Raised on out-of-range device accesses."""


class PMDevice:
    """A fixed-size byte-addressable persistent-memory device.

    Parameters
    ----------
    size:
        Device capacity in bytes.  Must be a positive multiple of the
        cache-line size so flush ranges always stay in bounds.
    """

    def __init__(self, size: int, *, image=None) -> None:
        if size <= 0 or size % CACHE_LINE != 0:
            raise PMDeviceError(
                f"device size must be a positive multiple of {CACHE_LINE}, got {size}"
            )
        if image is not None and len(image) != size:
            raise PMDeviceError(
                f"adopted image size {len(image)} does not match device size {size}"
            )
        self.size = size
        #: ``image=`` adopts an existing buffer by reference (no copy, no
        #: zero-fill) — the shared-mount path where the checker presents
        #: the replayer's live buffer as a device.
        self.image = image if image is not None else bytearray(size)
        self._undo: List[Tuple[int, bytes]] | None = None
        #: Access recorder (:meth:`traced`): ``(addr, +length)`` per read,
        #: ``(addr, -length)`` per write, in program order.
        self._trace: List[Tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def check_range(self, addr: int, length: int) -> None:
        """Validate that ``[addr, addr+length)`` lies inside the device."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise PMDeviceError(
                f"access [{addr}, {addr + length}) outside device of size {self.size}"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at ``addr`` from the volatile view."""
        self.check_range(addr, length)
        if self._trace is not None:
            self._trace.append((addr, length))
        return bytes(self.image[addr : addr + length])

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` in the volatile view.

        This corresponds to a CPU store: the running system observes it
        immediately, but it is not persistent until logged persistence
        operations make it so.
        """
        self.check_range(addr, len(data))
        if self._trace is not None:
            self._trace.append((addr, -len(data)))
        if self._undo is not None:
            self._undo.append((addr, bytes(self.image[addr : addr + len(data)])))
        self.image[addr : addr + len(data)] = data

    @contextmanager
    def traced(self) -> Iterator[List[Tuple[int, int]]]:
        """Record every :meth:`read` and :meth:`write` while the block runs.

        Yields the trace list: ``(addr, length)`` for a read and
        ``(addr, -length)`` for a write, in program order.  Everything a
        file system learns from PM passes through these two methods (the
        mount-purity contract in :mod:`repro.vfs.interface`), so the trace
        is the whole input of the computation it covers.  Without a trace
        attached the cost per access is one ``is not None`` test.
        """
        if self._trace is not None:
            raise PMDeviceError("trace already active")
        trace: List[Tuple[int, int]] = []
        self._trace = trace
        try:
            yield trace
        finally:
            self._trace = None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Return an immutable copy of the full volatile image."""
        return bytes(self.image)

    @classmethod
    def from_snapshot(cls, snap: bytes) -> "PMDevice":
        """Build a new device whose image is a copy of the flat ``snap``.

        The checker never calls this (it mounts crash images through
        :meth:`cow_view`); it builds stand-alone devices for tests and
        micro-benchmarks.
        """
        return cls(len(snap), image=bytearray(snap))

    @classmethod
    def adopt(cls, buf: bytearray) -> "PMDevice":
        """Present an existing mutable buffer as a device, by reference.

        Writes through the device mutate ``buf`` in place; callers pair
        this with :meth:`cow_view`, whose exit restores every byte it
        changed, to mount crash states directly on the replayer's live
        buffer without any per-region copy.
        """
        return cls(len(buf), image=buf)

    # ------------------------------------------------------------------
    # Undo log (used by the consistency checker, section 3.3: "we reuse our
    # logging infrastructure to record an undo log for these mutations and
    # roll back the changes when advancing to the next crash state").
    # :meth:`cow_view` arms the log; these two read and rewind it.
    # ------------------------------------------------------------------
    def rewind_undo(self) -> None:
        """Undo every write the active log recorded; keep recording.

        Inside a :meth:`cow_view` this puts back the crash state exactly
        as the view presented it, before any of the caller's mutations.
        """
        if self._undo is None:
            raise PMDeviceError("no undo log active")
        records, self._undo = self._undo, []
        for addr, before in reversed(records):
            self.image[addr : addr + len(before)] = before

    def undo_ranges(self) -> List[Tuple[int, int]]:
        """``(addr, length)`` of every write the active undo log recorded.

        Inside a :meth:`cow_view` these are exactly the caller's mutations
        since the view opened (mount-time recovery writes, first of all) —
        what a consumer must rehash to digest the image as it stands now.
        """
        if self._undo is None:
            raise PMDeviceError("no undo log active")
        return [(addr, len(before)) for addr, before in self._undo]

    # ------------------------------------------------------------------
    # Copy-on-write mount view
    # ------------------------------------------------------------------
    @contextmanager
    def cow_view(self, writes: Sequence[Tuple[int, bytes]]) -> Iterator["PMDevice"]:
        """Temporarily present the image with ``writes`` overlaid.

        The checker mounts every crash state of one fence region on the
        *same* shared device: this view applies the state's sparse overlay
        in place (saving before-images), arms the undo log so any mutation
        the caller makes — mount-time recovery writes, the usability pass —
        is recorded, and on exit rolls back both, restoring the device to
        the fence base byte-for-byte.  A clean check of a one-replay state
        therefore touches kilobytes, not the whole image.

        Overlay application is deliberately silent: it bypasses the access
        trace (it is state *construction*, not file-system work) and the
        undo log, which only covers the caller's mutations.

        Before-images are captured as one slab per *merged span* of the
        overlay, not one per write: overlapping and adjacent writes (a stale
        base's restore patch composed with its overlay) save
        each byte once, and rollback restores a handful of contiguous
        slabs instead of replaying the write list backwards.
        """
        if self._undo is not None:
            raise PMDeviceError("undo log already active")
        prof = _profile.ACTIVE
        image = self.image
        t0 = perf_counter() if prof is not None else 0.0
        applied = 0
        spans: List[Tuple[int, int]] = []
        for lo, hi in sorted((a, a + len(d)) for a, d in writes):
            if spans and lo <= spans[-1][1]:
                if hi > spans[-1][1]:
                    spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))
        for lo, hi in spans:
            self.check_range(lo, hi - lo)
        before: List[Tuple[int, bytes]] = [
            (lo, bytes(image[lo:hi])) for lo, hi in spans
        ]
        for addr, data in writes:
            image[addr : addr + len(data)] = data
            applied += len(data)
        if prof is not None:
            prof.add("device.cow_apply", perf_counter() - t0, applied,
                     "overlay_applied")
        self._undo = []
        try:
            yield self
        finally:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            records, self._undo = self._undo or [], None
            rolled = 0
            for addr, prior in reversed(records):
                image[addr : addr + len(prior)] = prior
                rolled += len(prior)
            for addr, prior in reversed(before):
                image[addr : addr + len(prior)] = prior
                rolled += len(prior)
            if prof is not None:
                prof.add("device.cow_rollback", perf_counter() - t0, rolled,
                         "cow_rollback")


def cacheline_span(addr: int, length: int) -> range:
    """Return the addresses of the cache lines overlapping a byte range."""
    if length <= 0:
        return range(0)
    first = (addr // CACHE_LINE) * CACHE_LINE
    last = ((addr + length - 1) // CACHE_LINE) * CACHE_LINE
    return range(first, last + CACHE_LINE, CACHE_LINE)
