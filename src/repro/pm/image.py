"""Zero-copy crash-state images: shared fence bases plus sparse overlays.

The replayer used to build every crash state eagerly — ``bytearray`` copy of
the persistent image, replay the subset, freeze to ``bytes`` — an
O(device_size) cost paid per *state* even though all states of one fence
region share the same persistent base and differ only in a handful of
replayed byte ranges.  This module holds the lazy representation:

* :class:`PersistTracker` — the replayer's one mutable persistent buffer
  plus an undo chain of before-images, so every fence region's content
  stays reconstructible from the live buffer without copying the device.
* :class:`RegionBase` — one fence region's persistent image, tagged with a
  content digest and backed by the live buffer.  Every crash state of the
  region shares the same object; nothing is copied per region or subset.
* :class:`CrashImage` — a fence base plus a sparse overlay of replayed
  ``(addr, payload)`` ranges: the one image type of a crash state.
  Materialization to flat ``bytes`` happens only on demand (forensics
  image diffs, tests) and is cached.
* :class:`ChunkedDigest` — an incrementally maintained content digest over
  the tracker's buffer, so taking a fence base at every region costs
  O(bytes written since the last fence), not O(device).

The content address of a crash state is :meth:`CrashImage.content_key`:
``sha1(base.digest ‖ (addr, len, bytes) per flatten_overlay run)``, where
:func:`flatten_overlay` reduces the overlay to the exact byte diff from the
base.  The key is a pure function of the materialized bytes within one
base, whatever shape the overlay writes take: equal keys imply
byte-identical images (a memo hit can never skip a state that might have
checked differently), and identical images on one base share a key.
"""

from __future__ import annotations

import hashlib
import re
import struct
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Granularity of the incremental digest over the persistent buffer.  Small
#: enough that a fence region dirtying a few metadata lines rehashes a few
#: chunks; large enough that the per-chunk bookkeeping stays negligible.
CHUNK = 16 * 1024

#: One overlay range: (device address, payload bytes).
OverlayWrite = Tuple[int, bytes]


#: One all-zero chunk and its sha1 — what every untouched chunk of a fresh
#: device hashes to, so the digest can assign it without hashing.
_ZERO_CHUNK = bytes(CHUNK)
_ZERO_CHUNK_DIGEST = hashlib.sha1(_ZERO_CHUNK).digest()

_NONZERO_RUN = re.compile(rb"[^\x00]+")


def flatten_overlay(
    base, writes: Sequence[OverlayWrite]
) -> Tuple[OverlayWrite, ...]:
    """The exact byte-level diff from ``base`` after applying ``writes``.

    Flattens the overlay with later-writes-win semantics, drops every byte
    equal to the base, and merges the survivors into maximal contiguous
    runs.  The result is a pure function of the *materialized* image: two
    overlays materializing identically flatten identically, regardless of
    how their writes partition, order, or overlap the ranges.  Cost is
    O(total overlay bytes), never O(device), so it is usable per crash
    state.

    ``base`` is flat ``bytes`` or a :class:`RegionBase`; only the merged
    overlay spans are read from it.  Each span is patched in a window
    taken from the base, and the nonzero runs of ``window XOR base`` are
    the surviving bytes.  Adjacent spans merge, so runs of different spans
    are always separated by at least one unwritten (base-equal) byte.
    """
    spans: List[List] = []  # [lo, hi, writes in program order]
    for order, (addr, data) in sorted(
        enumerate(writes), key=lambda item: item[1][0]
    ):
        if not data:
            continue
        end = addr + len(data)
        if spans and addr <= spans[-1][1]:
            span = spans[-1]
            span[1] = max(span[1], end)
            span[2].append((order, addr, data))
        else:
            spans.append([addr, end, [(order, addr, data)]])
    flat: List[OverlayWrite] = []
    for lo, hi, members in spans:
        before = bytes(base[lo:hi])
        window = bytearray(before)
        members.sort(key=lambda member: member[0])
        for _, addr, data in members:
            window[addr - lo : addr - lo + len(data)] = data
        diff = (
            int.from_bytes(before, "big") ^ int.from_bytes(window, "big")
        ).to_bytes(hi - lo, "big")
        for run in _NONZERO_RUN.finditer(diff):
            flat.append((lo + run.start(), bytes(window[run.start() : run.end()])))
    return tuple(flat)


class ChunkedDigest:
    """Incrementally maintained content digest of a mutable buffer.

    The buffer is divided into :data:`CHUNK`-sized pieces, each with a
    cached sha1.  Writers call :meth:`invalidate` for every mutated range;
    :meth:`digest` rehashes only the dirty chunks and combines the chunk
    digests.  The combined value is a pure function of the buffer contents
    (chunking is fixed), so equal contents always produce equal digests.
    """

    __slots__ = ("buf", "_chunks")

    def __init__(self, buf: bytearray) -> None:
        self.buf = buf
        self._chunks: List[Optional[bytes]] = [None] * (
            (len(buf) + CHUNK - 1) // CHUNK or 1
        )

    def invalidate(self, addr: int, length: int) -> None:
        """Mark every chunk overlapping ``[addr, addr+length)`` dirty."""
        if length <= 0:
            return
        for i in range(addr // CHUNK, (addr + length - 1) // CHUNK + 1):
            self._chunks[i] = None

    def digest(self) -> bytes:
        """sha1 over the per-chunk sha1s, rehashing only dirty chunks.

        An all-zero dirty chunk (most of a fresh mkfs image) is recognised
        by one slice compare and assigned its precomputed sha1.  The
        combine hashes one joined buffer instead of feeding the chunk
        digests to sha1 one update at a time — same byte stream, same
        value, without an O(chunks) python loop of hashlib calls per call.
        """
        chunks = self._chunks
        buf = self.buf
        for i, cached in enumerate(chunks):
            if cached is None:
                piece = buf[i * CHUNK : (i + 1) * CHUNK]
                if piece == _ZERO_CHUNK:
                    chunks[i] = _ZERO_CHUNK_DIGEST
                else:
                    chunks[i] = hashlib.sha1(piece).digest()
        return hashlib.sha1(b"".join(chunks)).digest()

    def chunk_digests(self) -> Tuple[bytes, ...]:
        """The per-chunk sha1s :meth:`digest` just combined (a snapshot)."""
        return tuple(self._chunks)


def patched_digest(
    chunk_digests: Sequence[bytes], buf, ranges: Iterable[Tuple[int, int]]
) -> bytes:
    """``ChunkedDigest(buf).digest()``, computed from a neighbour's chunks.

    ``chunk_digests`` describes a buffer of the same length that differs
    from ``buf`` at most inside ``ranges`` (``(addr, length)`` pairs); only
    the chunks those ranges touch are rehashed.
    """
    dirty = set()
    for addr, length in ranges:
        if length > 0:
            dirty.update(range(addr // CHUNK, (addr + length - 1) // CHUNK + 1))
    chunks = list(chunk_digests)
    view = memoryview(buf)
    for i in dirty:
        chunks[i] = hashlib.sha1(view[i * CHUNK : (i + 1) * CHUNK]).digest()
    return hashlib.sha1(b"".join(chunks)).digest()


#: Recycled tracker buffers by size.  A fresh ``bytearray`` of device size
#: is freshly mapped memory, so the initial copy pays a page fault per 4 KiB
#: on top of the memcpy.  Buffers enter the pool only through
#: ``weakref.finalize`` on their tracker — i.e. once nothing can read them
#: — and the finalizer first replays the tracker's before-image chain,
#: rolling the buffer back to the exact content it started from (O(bytes
#: written)).  A later tracker built from the *same* image object therefore
#: skips both the copy and the first full digest; a different image of the
#: same size still reuses the committed pages with a plain memcpy.  Each
#: entry pins its source object so the identity check can never
#: false-positive on a recycled ``id``.  At most two entries per size (the
#: live/dying pair of sequential workloads).
_BUF_POOL: Dict[int, List[Tuple[object, bytearray, List[bytes]]]] = {}


def _acquire_buffer(data) -> Tuple[bytearray, Optional[List[bytes]]]:
    """A buffer holding ``data``'s content, plus its chunk digests if known."""
    free = _BUF_POOL.get(len(data))
    if free:
        for i, (source, buf, chunks) in enumerate(free):
            if source is data:
                del free[i]
                return buf, chunks
        _source, buf, _chunks = free.pop()
        buf[:] = data
        return buf, None
    return bytearray(data), None


def _recycle_buffer(free: List[Tuple[object, bytearray, List[bytes]]],
                    buf: bytearray, source: object,
                    undo: List[OverlayWrite], digest: ChunkedDigest) -> None:
    if len(free) >= 2:
        return
    for addr, before in reversed(undo):
        buf[addr : addr + len(before)] = before
        digest.invalidate(addr, len(before))
    # Repair the rolled-back ranges so the pooled chunk list describes the
    # source content exactly (untouched entries were already valid for it).
    chunks = digest._chunks
    for i, cached in enumerate(chunks):
        if cached is None:
            chunks[i] = hashlib.sha1(buf[i * CHUNK : (i + 1) * CHUNK]).digest()
    free.append((source, buf, chunks))


class RegionBase:
    """One fence region's persistent image: the live buffer + undo suffix.

    Shared by reference by every crash state of the region, and holds no
    snapshot: byte content is reconstructed on demand by patching the
    tracker's live buffer with the before-images recorded since the region
    ended (O(suffix delta), not O(device)).  Flat ``bytes`` are built only
    if a consumer genuinely needs them (:attr:`data`: forensics, image
    diffs).  The checker mounts the live buffer directly through a
    COW view prefixed with :meth:`restore_writes` — empty while states
    stream, because a region's states are checked while it is current.

    ``digest`` is a content digest, so two regions whose persistent images
    coincide (e.g. a region whose writes were all idempotent) share a
    content address even though they are distinct objects.
    ``chunk_digests`` is the per-chunk sha1 tuple behind it (``digest ==
    sha1(b"".join(chunk_digests))``), so a consumer can digest a *patched*
    copy of this base by rehashing only the patched chunks
    (:func:`patched_digest`).
    """

    __slots__ = ("tracker", "_undo_pos", "digest", "chunk_digests", "_data")

    def __init__(self, tracker: "PersistTracker", undo_pos: int,
                 digest: bytes, chunk_digests: Tuple[bytes, ...]) -> None:
        self.tracker = tracker
        self._undo_pos = undo_pos
        self.digest = digest
        self.chunk_digests = chunk_digests
        self._data: Optional[bytes] = None

    def __len__(self) -> int:
        return self.tracker.size

    @property
    def data(self) -> bytes:
        """Flat snapshot bytes — the O(device) copy, paid only on demand."""
        if self._data is None:
            out = bytearray(self.tracker.buf)
            for addr, before in self.restore_writes():
                out[addr : addr + len(before)] = before
            self._data = bytes(out)
        return self._data

    def __getitem__(self, key):
        if self._data is not None:
            return self._data[key]
        size = self.tracker.size
        if isinstance(key, slice):
            start, stop, step = key.indices(size)
            if step == 1:
                return self.tracker.read_range(self._undo_pos, start, stop)
            return self.data[key]
        if key < 0:
            key += size
        if not 0 <= key < size:
            raise IndexError("index out of range")
        return self.tracker.read_range(self._undo_pos, key, key + 1)[0]

    def restore_writes(self) -> List[OverlayWrite]:
        """Writes rolling the live buffer back to this base (apply in order).

        Empty while this base's region is the tracker's current one — the
        streaming-pipeline common case — and O(undo suffix) otherwise.
        """
        undo = self.tracker._undo
        return undo[self._undo_pos :][::-1]


class PersistTracker:
    """The replayer's persistent buffer plus undo chain and content digest.

    Applying a fence epoch records each write's before-image, so every
    earlier region's content stays reconstructible from the live buffer
    without copying the device; the incremental :class:`ChunkedDigest`
    makes taking a region's base cost O(bytes written since the last
    fence).  All writes must lie inside the buffer (the replayer rejects a
    log that says otherwise), so the buffer never changes length.
    """

    __slots__ = ("buf", "size", "_undo", "_digest", "__weakref__")

    def __init__(self, base_image: bytes) -> None:
        self.buf, chunks = _acquire_buffer(base_image)
        self.size = len(self.buf)
        #: Chronological before-images of every applied write.
        self._undo: List[OverlayWrite] = []
        self._digest = ChunkedDigest(self.buf)
        if chunks is not None:
            # Pooled entries come with the image's chunk digests — skip the
            # first full-device digest entirely.
            self._digest._chunks = chunks
        weakref.finalize(
            self, _recycle_buffer, _BUF_POOL.setdefault(self.size, []),
            self.buf, base_image, self._undo, self._digest,
        )

    def apply(self, entries) -> None:
        """Persist a fence epoch, recording before-images for live bases."""
        buf = self.buf
        undo = self._undo
        invalidate = self._digest.invalidate
        for entry in entries:
            addr = entry.addr
            data = entry.data
            end = addr + len(data)
            undo.append((addr, bytes(buf[addr:end])))
            buf[addr:end] = data
            invalidate(addr, len(data))

    def base(self) -> RegionBase:
        """The current region's base: zero-copy, it references the live
        buffer, and costs one digest of the chunks written since the last
        fence.  Take it once per region (the replayer caches it)."""
        return RegionBase(
            self, len(self._undo), self._digest.digest(),
            self._digest.chunk_digests(),
        )

    def read_range(self, undo_pos: int, start: int, stop: int) -> bytes:
        """``[start, stop)`` content as of ``undo_pos`` — O(suffix + range)."""
        if stop <= start:
            return b""
        out = bytearray(self.buf[start:stop])
        undo = self._undo
        for i in range(len(undo) - 1, undo_pos - 1, -1):
            addr, before = undo[i]
            end = addr + len(before)
            if addr < stop and start < end:
                s = max(addr, start)
                e = min(end, stop)
                out[s - start : e - start] = before[s - addr : e - addr]
        return bytes(out)


def fence_base(image: bytes) -> RegionBase:
    """A stand-alone base holding ``image`` (hand-built states)."""
    return PersistTracker(image).base()


class CrashImage:
    """A lazy crash-state image: shared fence base + sparse overlay.

    Costs O(overlay) to construct and to key (:meth:`content_key`).  Flat
    ``bytes`` are produced only by :meth:`materialize` (cached); the check
    path (COW mount via :meth:`repro.pm.device.PMDevice.cow_view` +
    content-key memoization) never materializes at all.  A hand-built
    state wraps its flat image as ``CrashImage(fence_base(flat))``.
    """

    __slots__ = ("base", "writes", "_key", "_mat")

    def __init__(self, base: RegionBase, writes: Sequence[OverlayWrite] = ()) -> None:
        self.base = base
        #: Overlay ranges in replay (program) order; later writes win.
        self.writes: Tuple[OverlayWrite, ...] = tuple(writes)
        self._key: Optional[bytes] = None
        self._mat: Optional[bytes] = None

    # ------------------------------------------------------------------
    def content_key(self) -> bytes:
        """Content address: sha1(base digest ‖ each flattened diff run).

        O(overlay), no materialization, and cached.  Two images on one
        base share a key iff they materialize to the same bytes, because
        :func:`flatten_overlay` is a pure function of those bytes.
        """
        if self._key is None:
            h = hashlib.sha1(self.base.digest)
            for addr, data in flatten_overlay(self.base, self.writes):
                h.update(struct.pack("<QQ", addr, len(data)))
                h.update(data)
            self._key = h.digest()
        return self._key

    def materialize(self) -> bytes:
        """The flat ``bytes`` image (cached after the first call)."""
        if self._mat is None:
            if not self.writes:
                # Shares the base snapshot: nothing further is copied.
                self._mat = self.base.data
            else:
                buf = bytearray(self.base.data)
                for addr, data in self.writes:
                    buf[addr : addr + len(data)] = data
                self._mat = bytes(buf)
        return self._mat

    def __len__(self) -> int:
        return len(self.base)

    def __repr__(self) -> str:
        return (
            f"CrashImage(size={len(self)}, overlay={len(self.writes)} "
            f"range(s), materialized={self._mat is not None})"
        )
