"""Vectorized (numpy) implementation of the crash-image internals.

The python backend (:mod:`repro.pm.image`) snapshots the replayer's
persistent buffer into an immutable ``bytes`` per fence region — an
O(device) copy per region — and flattens overlays byte-by-byte in Python.
This module removes both costs while producing bit-identical *values*:

* :class:`NPPersistTracker` — the replayer's persistent buffer plus an
  **undo chain**: applying a fence epoch records each write's before-image,
  so any earlier region's content remains reconstructible from the live
  buffer without ever copying the device.
* :class:`LazyFenceBase` — duck-types :class:`repro.pm.image.FenceBase`
  (``data``, ``digest``, ``len``, slicing) but holds no snapshot.  Random
  access patches the live buffer with the undo suffix on the fly
  (O(suffix delta), not O(device)); flat ``bytes`` are built only if a
  consumer genuinely needs them (forensics, image diffs) and the copy is
  charged to the ``materialized`` profile category at that moment.  The
  checker recognizes lazy bases and mounts the live buffer directly
  through a COW view prefixed with ``restore_writes()`` — during streaming
  enumeration that prefix is empty, because states of a region are checked
  while the region is current.
* :class:`NPChunkedDigest` — :class:`repro.pm.image.ChunkedDigest` with a
  vectorized cold scan: one ``numpy`` pass finds the all-zero chunks and
  assigns them a precomputed digest, so the first digest of a mostly-zero
  mkfs image hashes kilobytes instead of the whole device.  Chunking and
  combination are unchanged, so digests equal the python backend's.
* :func:`flatten_np` — vectorized overlay flattening: later-writes-win
  resolution, base comparison, and run merging on numpy arrays.  The
  result tuple is byte-identical to
  :func:`repro.pm.image.flatten_overlay` (both are pure functions of the
  materialized bytes), which is why content keys — and therefore memo
  behaviour and ``bugs.json`` — transfer across backends.

This module must only be imported when numpy is importable; callers go
through :func:`repro.pm.backend.resolve_backend` first.
"""

from __future__ import annotations

import hashlib
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import profile as _profile
from repro.pm.image import CHUNK, ChunkedDigest, OverlayWrite

__all__ = ["NPChunkedDigest", "LazyFenceBase", "NPPersistTracker", "flatten_np"]

#: sha1 of one all-zero chunk — what the python backend computes for every
#: untouched chunk of a fresh device.
_ZERO_CHUNK_DIGEST = hashlib.sha1(bytes(CHUNK)).digest()

#: Recycled tracker buffers by size.  A fresh multi-MiB ``bytearray`` is
#: freshly mmapped memory, so the initial copy pays a page fault per 4 KiB
#: on top of the memcpy.  Buffers enter the pool only through
#: ``weakref.finalize`` on their tracker — i.e. once nothing can possibly
#: read them — and the finalizer first replays the tracker's before-image
#: chain, rolling the buffer back to the exact base content it started
#: from (O(bytes written), typically a few KiB).  A later tracker built
#: from the *same* base object therefore skips the O(device) copy
#: entirely; a different base of the same size still reuses the committed
#: pages with a plain memcpy.  Each entry pins its source object so the
#: identity check can never false-positive on a recycled ``id``.  At most
#: two entries per size (the live/dying pair of sequential workloads).
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
                    undo: List[Tuple[int, bytes, int]],
                    digest: ChunkedDigest) -> None:
    if len(free) >= 2:
        return
    for i in range(len(undo) - 1, -1, -1):
        addr, before, written = undo[i]
        buf[addr : addr + written] = before
        digest.invalidate(addr, max(written, len(before)))
    if len(buf) != len(source):  # rollback must have restored the length
        return
    # Repair the rolled-back ranges so the pooled chunk list describes the
    # base content exactly (untouched entries were already valid for it).
    chunks = digest._chunks
    view = memoryview(buf)
    for i, cached in enumerate(chunks):
        if cached is None:
            chunks[i] = hashlib.sha1(view[i * CHUNK : (i + 1) * CHUNK]).digest()
    free.append((source, buf, chunks))


class NPChunkedDigest(ChunkedDigest):
    """ChunkedDigest with a vectorized scan for the cold (all-dirty) case.

    The combined digest is computed exactly as the superclass does — sha1
    over the per-chunk sha1s in order — so values are identical; only the
    cold start avoids hashing chunks a numpy reduction proves are zero.
    """

    __slots__ = ()

    def digest(self) -> bytes:
        chunks = self._chunks
        n = len(chunks)
        # The vectorized path needs uniform full-size chunks (true for all
        # real device sizes; unit tests use tiny odd buffers) and only pays
        # off when everything is dirty (the first digest after construction).
        if (
            len(self.buf) == n * CHUNK
            and CHUNK % 8 == 0
            and chunks.count(None) == n
        ):
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            words = np.frombuffer(self.buf, dtype=np.uint64)
            # A chunk is nonzero iff its max uint64 word is — one bandwidth
            # pass, no per-chunk python loop over the zero majority.
            starts = np.arange(0, words.size, CHUNK // 8)
            dirty = np.flatnonzero(np.maximum.reduceat(words, starts))
            view = memoryview(self.buf)
            for i in range(n):
                chunks[i] = _ZERO_CHUNK_DIGEST
            rehashed = 0
            for i in dirty.tolist():
                chunks[i] = hashlib.sha1(
                    view[i * CHUNK : (i + 1) * CHUNK]
                ).digest()
                rehashed += CHUNK
            combined = hashlib.sha1(b"".join(chunks))
            if prof is not None:
                prof.add("image.chunk_rehash", perf_counter() - t0, rehashed,
                         "digest_hashed")
            return combined.digest()
        return super().digest()


class LazyFenceBase:
    """A fence region's snapshot, backed by the live buffer + undo suffix.

    Duck-types :class:`repro.pm.image.FenceBase`: exposes ``digest``,
    ``data``, ``__len__`` and ``__getitem__``.  Nothing is copied when the
    base is handed out; byte content is reconstructed on demand by patching
    the tracker's live buffer with the before-images recorded since this
    region ended.
    """

    __slots__ = ("tracker", "_undo_pos", "digest", "chunk_digests", "_data",
                 "_len", "__weakref__")

    def __init__(self, tracker: "NPPersistTracker", undo_pos: int,
                 digest: bytes, chunk_digests: Tuple[bytes, ...]) -> None:
        self.tracker = tracker
        self._undo_pos = undo_pos
        self.digest = digest
        #: Per-chunk sha1s behind ``digest`` (see ``FenceBase.chunk_digests``).
        self.chunk_digests = chunk_digests
        self._data: Optional[bytes] = None
        # The buffer's length *now* — writes past the device end grow the
        # bytearray (python-backend parity), so this base's historical
        # length can differ from both the device size and the live buffer.
        self._len = len(tracker.buf)

    def __len__(self) -> int:
        return self._len

    @property
    def adoptable(self) -> bool:
        """Whether content restores suffice to rebuild this base in place.

        False once a later write grew the live buffer: overlay writes
        cannot truncate, so zero-copy consumers (the checker's adopted
        mount device) must materialize :attr:`data` instead.
        """
        return len(self.tracker.buf) == self._len

    @property
    def data(self) -> bytes:
        """Flat snapshot bytes — the O(device) copy, paid only on demand."""
        if self._data is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            self._data = self.tracker.snapshot_at(self._undo_pos)
            if prof is not None:
                prof.add("replay.fence_base", perf_counter() - t0,
                         len(self._data), "materialized")
        return self._data

    def __getitem__(self, key):
        if self._data is not None:
            return self._data[key]
        size = self._len
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

    # ------------------------------------------------------------------
    # Hooks the rest of the pipeline dispatches on
    # ------------------------------------------------------------------
    def restore_writes(self) -> List[OverlayWrite]:
        """Writes rolling the live buffer back to this base (apply in order).

        Empty while this base's region is the tracker's current one — the
        streaming-pipeline common case — and O(undo suffix) otherwise.
        """
        return self.tracker.restore_writes(self._undo_pos)

    def flatten_overlay(self, writes: Sequence[OverlayWrite]) -> Tuple[OverlayWrite, ...]:
        """Vectorized :func:`repro.pm.image.flatten_overlay` against this base."""
        return flatten_np(self, writes)


class NPPersistTracker:
    """The replayer's persistent buffer plus undo chain and content digest.

    Mirrors ``repro.core.replayer._PersistTracker``'s interface (``buf``,
    ``apply``, ``base``) but hands out :class:`LazyFenceBase` objects that
    share the live buffer instead of snapshotting it.
    """

    __slots__ = ("buf", "size", "_undo", "_digest", "_base", "__weakref__")

    def __init__(self, base_image: bytes) -> None:
        self.buf, chunks = _acquire_buffer(base_image)
        self.size = len(self.buf)
        #: Chronological before-images of every applied write.
        self._undo: List[OverlayWrite] = []
        self._digest = NPChunkedDigest(self.buf)
        if chunks is not None:
            # Pooled entries come with the base content's chunk digests —
            # skip the cold full-device scan entirely.
            self._digest._chunks = chunks
        weakref.finalize(
            self, _recycle_buffer, _BUF_POOL.setdefault(self.size, []),
            self.buf, base_image, self._undo, self._digest,
        )
        # Weak so a dead tracker/base pair frees by refcount (no gc cycle),
        # which is what lets the finalizer above recycle buffers promptly.
        self._base: Optional["weakref.ref[LazyFenceBase]"] = None

    # ------------------------------------------------------------------
    # Replayer interface
    # ------------------------------------------------------------------
    def apply(self, entries) -> None:
        """Persist a fence epoch, recording before-images for live bases."""
        if not entries:
            return
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        buf = self.buf
        undo = self._undo
        invalidate = self._digest.invalidate
        applied = 0
        for entry in entries:
            addr = entry.addr
            data = entry.data
            end = addr + len(data)
            # The written length rides along so restores can undo a write
            # that grew the buffer past its end (bytearray slice-assign
            # extends, matching the python backend): restoring a shorter
            # before-image over the written span truncates it back.
            undo.append((addr, bytes(buf[addr:end]), len(data)))
            buf[addr:end] = data
            invalidate(addr, len(data))
            applied += len(data)
        self._base = None
        if prof is not None:
            prof.add("replay.persist_apply", perf_counter() - t0, applied)

    def base(self) -> LazyFenceBase:
        """The current region's shared base (cached until the next apply).

        Zero-copy: the returned base references the live buffer; the
        ``replay.fence_base`` callsite is still recorded (for call counts)
        but charges no materialized bytes unless ``.data`` is later pulled.
        """
        base = self._base() if self._base is not None else None
        if base is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            m0 = prof.mark() if prof is not None else 0.0
            base = LazyFenceBase(
                self, len(self._undo), self._digest.digest(),
                self._digest.chunk_digests(),
            )
            self._base = weakref.ref(base)
            if prof is not None:
                # Exclusive of the chunk rehashes the digest runs inside.
                prof.add_exclusive("replay.fence_base", perf_counter() - t0,
                                   m0, 0)
        return base

    # ------------------------------------------------------------------
    # Reconstruction (LazyFenceBase's storage engine)
    # ------------------------------------------------------------------
    def restore_writes(self, undo_pos: int) -> List[OverlayWrite]:
        """Before-images from the undo suffix, newest first.

        Applying them in the returned order (later entries win) rolls the
        live buffer back to its content at ``undo_pos``.  Content-only:
        a suffix containing buffer-growing writes cannot be expressed as
        overlay writes (consumers must fall back to :meth:`snapshot_at`;
        see :attr:`LazyFenceBase.adoptable`).
        """
        undo = self._undo
        return [undo[i][:2] for i in range(len(undo) - 1, undo_pos - 1, -1)]

    def snapshot_at(self, undo_pos: int) -> bytes:
        """Flat buffer content as of ``undo_pos`` (one O(device) copy)."""
        out = bytearray(self.buf)
        undo = self._undo
        for i in range(len(undo) - 1, undo_pos - 1, -1):
            addr, before, written = undo[i]
            # Restoring over the *written* span truncates growth writes
            # back to the buffer's historical length (before is shorter).
            out[addr : addr + written] = before
        return bytes(out)

    def read_range(self, undo_pos: int, start: int, stop: int) -> bytes:
        """``[start, stop)`` content as of ``undo_pos`` — O(suffix + range)."""
        if stop <= start:
            return b""
        undo = self._undo
        if any(
            len(undo[i][1]) != undo[i][2]
            for i in range(undo_pos, len(undo))
        ):
            # A growth write in the suffix shifts the buffer's end; the
            # fixed-window patching below would be wrong.  Rare (only logs
            # writing past the device end), so the flat fallback is fine.
            return self.snapshot_at(undo_pos)[start:stop]
        out = bytearray(self.buf[start:stop])
        for i in range(len(undo) - 1, undo_pos - 1, -1):
            addr, before, _written = undo[i]
            end = addr + len(before)
            if addr < stop and start < end:
                s = max(addr, start)
                e = min(end, stop)
                out[s - start : e - start] = before[s - addr : e - addr]
        return bytes(out)


def flatten_np(base, writes: Sequence[OverlayWrite]) -> Tuple[OverlayWrite, ...]:
    """Vectorized exact byte diff from ``base`` after applying ``writes``.

    Same contract and same result as
    :func:`repro.pm.image.flatten_overlay`: later-writes-win flattening to
    single bytes, drop bytes equal to the base, merge survivors into
    maximal runs.  ``base`` is anything sliceable returning bytes
    (:class:`LazyFenceBase`, ``FenceBase``, or raw ``bytes``); only the
    merged overlay spans are ever read from it.
    """
    prof = _profile.ACTIVE
    t0 = perf_counter() if prof is not None else 0.0
    total = 0
    ranges = []
    for addr, data in writes:
        total += len(data)
        if data:
            ranges.append((addr, data))
    if not ranges:
        if prof is not None:
            prof.add("image.flatten_overlay", perf_counter() - t0, total)
        return ()
    if len(ranges) == 1:
        # The common shape (one replay unit, one coalesced store): no
        # overlap resolution needed — compare payload to base directly.
        addr, data = ranges[0]
        vals_all = np.frombuffer(data, dtype=np.uint8)
        seg = np.frombuffer(base[addr : addr + len(data)], dtype=np.uint8)
        keep = seg != vals_all
        positions = np.flatnonzero(keep) + addr
        survivors = vals_all[keep]
    else:
        pos = np.concatenate(
            [np.arange(addr, addr + len(data), dtype=np.int64)
             for addr, data in ranges]
        )
        val = np.concatenate(
            [np.frombuffer(data, dtype=np.uint8) for addr, data in ranges]
        )
        # Later writes win: reverse so np.unique's first-occurrence pick is
        # the chronologically last write to each position.
        uniq, first = np.unique(pos[::-1], return_index=True)
        vals = val[::-1][first]
        # Base content at exactly the written positions, fetched one merged
        # overlay span at a time (never the whole device).
        spans: List[Tuple[int, int]] = []
        for lo, hi in sorted((a, a + len(d)) for a, d in ranges):
            if spans and lo <= spans[-1][1]:
                if hi > spans[-1][1]:
                    spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))
        base_vals = np.empty(uniq.size, dtype=np.uint8)
        for s, e in spans:
            i0 = int(np.searchsorted(uniq, s))
            i1 = int(np.searchsorted(uniq, e))
            if i0 == i1:
                continue
            seg = np.frombuffer(bytes(base[s:e]), dtype=np.uint8)
            base_vals[i0:i1] = seg[uniq[i0:i1] - s]
        keep = base_vals != vals
        positions = uniq[keep]
        survivors = vals[keep]
    if positions.size == 0:
        if prof is not None:
            prof.add("image.flatten_overlay", perf_counter() - t0, total)
        return ()
    breaks = np.flatnonzero(np.diff(positions) != 1) + 1
    bounds = [0, *breaks.tolist(), positions.size]
    flat = tuple(
        (int(positions[lo]), survivors[lo:hi].tobytes())
        for lo, hi in zip(bounds, bounds[1:])
    )
    if prof is not None:
        prof.add("image.flatten_overlay", perf_counter() - t0, total)
    return flat
