"""Zero-copy crash-state images: shared fence bases plus sparse overlays.

The replayer used to build every crash state eagerly — ``bytearray`` copy of
the persistent image, replay the subset, freeze to ``bytes`` — an
O(device_size) cost paid per *state* even though all states of one fence
region share the same persistent base and differ only in a handful of
replayed byte ranges.  This module holds the lazy representation:

* :class:`FenceBase` — one immutable snapshot of the persistent image per
  fence region, tagged with a content digest.  Every crash state of the
  region shares the same object; nothing is copied per subset.
* :class:`CrashImage` — a fence base plus a sparse overlay of replayed
  ``(addr, payload)`` ranges.  Materialization to flat ``bytes`` happens
  only on demand (forensics image diffs, legacy consumers) and is cached.
* :class:`ChunkedDigest` — an incrementally maintained content digest over
  the replayer's mutable persistent buffer, so taking a fence base at every
  region costs O(bytes written since the last fence), not O(device).

The content address of a crash state is
``sha1(base.digest ‖ (addr, len, payload) per effective replayed range)``.
*Effective* ranges are the overlay after dropping no-op writes: a write
whose payload is byte-equal to the content it overwrites — the base slice
it covers, patched with whatever earlier *kept* writes it overlaps —
cannot change the materialized image, because replaying an idempotent
store is indistinguishable from losing it.  (Overlap resolution matters
because later writes win: a base-equal write layered over an earlier kept
write restores base content, which is an effect, and is kept; conversely
a write that merely repeats an earlier kept write's visible bytes is a
no-op even though it overlaps it.)
Digest equality therefore implies byte-identical images, which is the
direction check memoization needs: a memo hit can never skip a state that
might have checked differently.  The converse still does not fully hold —
partial or overlapping rewrites of base content survive canonicalization
and yield distinct digests for identical images — so memoization may
rarely re-check a duplicate, which costs time but can never mask a bug.
:func:`flatten_overlay` computes the exact byte-level diff from base
(:mod:`repro.obs.attribution` uses it to measure how often that residual
case actually bites).
"""

from __future__ import annotations

import hashlib
import struct
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.obs import profile as _profile

#: Granularity of the incremental digest over the persistent buffer.  Small
#: enough that a fence region dirtying a few metadata lines rehashes a few
#: chunks; large enough that the per-chunk bookkeeping stays negligible.
CHUNK = 16 * 1024

#: One overlay range: (device address, payload bytes).
OverlayWrite = Tuple[int, bytes]


def flatten_overlay(
    base, writes: Sequence[OverlayWrite]
) -> Tuple[OverlayWrite, ...]:
    """The exact byte-level diff from ``base`` after applying ``writes``.

    Flattens the overlay with later-writes-win semantics down to single
    bytes, drops every byte equal to the base, and merges the survivors
    back into maximal contiguous runs.  The result is a pure function of
    the *materialized* image: two overlays materializing identically
    flatten identically, regardless of how their writes partition, order,
    or overlap the ranges.  Cost is O(total overlay bytes), never
    O(device), so it is usable per crash state.

    ``base`` is flat ``bytes`` or any fence-base object; a base providing
    its own ``flatten_overlay`` (the numpy backend's
    :class:`repro.pm.image_np.LazyFenceBase`) computes the identical value
    vectorized, without ever materializing the base.
    """
    vectorized = getattr(base, "flatten_overlay", None)
    if vectorized is not None:
        return vectorized(writes)
    if not isinstance(base, (bytes, bytearray, memoryview)):
        base = base.data  # python FenceBase: flat snapshot, free to index
    prof = _profile.ACTIVE
    t0 = perf_counter() if prof is not None else 0.0
    latest: dict = {}
    for addr, data in writes:
        for i, b in enumerate(data):
            latest[addr + i] = b
    runs: List[Tuple[int, bytearray]] = []
    for pos in sorted(latest):
        b = latest[pos]
        if base[pos] == b:
            continue
        if runs and runs[-1][0] + len(runs[-1][1]) == pos:
            runs[-1][1].append(b)
        else:
            runs.append((pos, bytearray((b,))))
    flat = tuple((addr, bytes(data)) for addr, data in runs)
    if prof is not None:
        prof.add("image.flatten_overlay", perf_counter() - t0,
                 sum(len(d) for _, d in writes))
    return flat


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

        The combine hashes one joined buffer instead of feeding the chunk
        digests to sha1 one update at a time — same byte stream, same
        value, without an O(chunks) python loop of hashlib calls per call.
        """
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        chunks = self._chunks
        view = memoryview(self.buf)
        rehashed = 0
        for i, cached in enumerate(chunks):
            if cached is None:
                piece = view[i * CHUNK : (i + 1) * CHUNK]
                chunks[i] = hashlib.sha1(piece).digest()
                rehashed += len(piece)
        combined = hashlib.sha1(b"".join(chunks))
        if prof is not None:
            prof.add("image.chunk_rehash", perf_counter() - t0, rehashed,
                     "digest_hashed")
        return combined.digest()

    def chunk_digests(self) -> Tuple[bytes, ...]:
        """The per-chunk sha1s :meth:`digest` just combined (a snapshot)."""
        return tuple(self._chunks)


def patched_digest(
    chunk_digests: Sequence[bytes], buf, ranges: Iterable[Tuple[int, int]]
) -> Tuple[Optional[bytes], int]:
    """``ChunkedDigest(buf).digest()``, computed from a neighbour's chunks.

    ``chunk_digests`` describes a buffer of the same length that differs
    from ``buf`` at most inside ``ranges`` (``(addr, length)`` pairs); only
    the chunks those ranges touch are rehashed.  Returns ``(digest, bytes
    rehashed)``, or ``(None, 0)`` when the chunk table does not fit ``buf``
    (the buffer grew or shrank since the table was taken).
    """
    if ((len(buf) + CHUNK - 1) // CHUNK or 1) != len(chunk_digests):
        return None, 0
    dirty = set()
    for addr, length in ranges:
        if length > 0:
            dirty.update(range(addr // CHUNK, (addr + length - 1) // CHUNK + 1))
    chunks = list(chunk_digests)
    view = memoryview(buf)
    rehashed = 0
    for i in dirty:
        piece = view[i * CHUNK : (i + 1) * CHUNK]
        chunks[i] = hashlib.sha1(piece).digest()
        rehashed += len(piece)
    return hashlib.sha1(b"".join(chunks)).digest(), rehashed


class FenceBase:
    """One fence region's immutable persistent snapshot, content-tagged.

    Created once per fence region (lazily, at the region's first crash
    state) and shared by reference across every state of the region — the
    per-subset O(device) copy of the eager path becomes a per-region one.
    ``digest`` is a content digest, so two regions whose persistent images
    happen to coincide (e.g. a region whose writes were all idempotent)
    share a content address even though they are distinct objects.

    ``chunk_digests`` is the tracker's per-chunk sha1 tuple behind
    ``digest`` (``digest == sha1(b"".join(chunk_digests))``), carried so a
    consumer can digest a *patched* copy of this base by rehashing only the
    patched chunks (:func:`patched_digest`).  ``None`` on hand-built bases.
    """

    __slots__ = ("data", "digest", "chunk_digests")

    def __init__(self, data: bytes, digest: Optional[bytes] = None,
                 chunk_digests: Optional[Tuple[bytes, ...]] = None) -> None:
        self.data = data
        self.digest = digest if digest is not None else hashlib.sha1(data).digest()
        self.chunk_digests = chunk_digests

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key):
        # Random access mirrors the numpy backend's LazyFenceBase so image
        # code can slice a base without caring which backend built it.
        return self.data[key]


class CrashImage:
    """A lazy crash-state image: shared fence base + sparse overlay.

    Behaves like ``bytes`` for every consumer the pipeline has — length,
    indexing/slicing, equality and ordering against other images or raw
    ``bytes``, hashing — but costs O(overlay) to construct and to digest.
    Flat ``bytes`` are produced only by :meth:`materialize` (cached), which
    comparisons and subscripts fall back on; the hot check path (COW mount
    via :meth:`repro.pm.device.PMDevice.cow_view` + digest memoization)
    never materializes at all.
    """

    __slots__ = ("base", "writes", "_digest", "_mat", "_effective", "_noop_dropped")

    def __init__(self, base: FenceBase, writes: Sequence[OverlayWrite] = ()) -> None:
        self.base = base
        #: Overlay ranges in replay (program) order; later writes win.
        self.writes: Tuple[OverlayWrite, ...] = tuple(writes)
        self._digest: Optional[bytes] = None
        self._mat: Optional[bytes] = None
        self._effective: Optional[Tuple[OverlayWrite, ...]] = None
        self._noop_dropped: Optional[int] = None

    # ------------------------------------------------------------------
    def effective_writes(self) -> Tuple[OverlayWrite, ...]:
        """The overlay with no-op writes dropped (cached).

        A write is a no-op — and safe to drop — when its payload is
        byte-equal to the content it overwrites: the base slice it covers,
        patched with the earlier *kept* writes it overlaps.  Comparing
        against the overlap-resolved content (not the raw base) is what
        keeps the drop sound under later-writes-win materialization in
        both directions: a base-equal write on top of a kept write
        restores base content — an effect, kept — while a write that
        merely repeats a kept write's visible bytes (e.g. a rewrite whose
        visible suffix is idempotent) changes nothing and drops.  (Overlap
        with earlier *dropped* writes needs no patching: a dropped write
        left the prior content in place by definition.)
        """
        if self._effective is None:
            base = self.base
            kept: List[OverlayWrite] = []
            dropped = 0
            for addr, data in self.writes:
                end = addr + len(data)
                current = None
                for a, d in kept:
                    e = a + len(d)
                    if a < end and addr < e:
                        if current is None:
                            current = bytearray(base[addr:end])
                        s, t = max(a, addr), min(e, end)
                        current[s - addr : t - addr] = d[s - a : t - a]
                if (bytes(current) if current is not None else base[addr:end]) == data:
                    dropped += 1
                    continue
                kept.append((addr, data))
            self._effective = tuple(kept)
            self._noop_dropped = dropped
        return self._effective

    @property
    def noop_dropped(self) -> int:
        """Overlay writes :meth:`digest` ignored as no-ops."""
        if self._noop_dropped is None:
            self.effective_writes()
        return self._noop_dropped  # type: ignore[return-value]

    def digest(self) -> bytes:
        """Content address: sha1(base digest ‖ each effective overlay range).

        No-op writes (see :meth:`effective_writes`) are dropped before
        hashing, so a state that replays only idempotent stores shares the
        digest of the state that dropped them — the two images are
        byte-identical and now memoize as such.  Equal digests imply
        byte-identical materialized images; see the module docstring for
        why the one-way implication is the safe one.
        """
        if self._digest is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            h = hashlib.sha1(self.base.digest)
            hashed = len(self.base.digest)
            for addr, data in self.effective_writes():
                h.update(struct.pack("<QQ", addr, len(data)))
                h.update(data)
                hashed += 16 + len(data)
            self._digest = h.digest()
            if prof is not None:
                prof.add("image.digest", perf_counter() - t0, hashed,
                         "digest_hashed")
        return self._digest

    def materialize(self) -> bytes:
        """The flat ``bytes`` image (cached after the first call)."""
        if self._mat is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            m0 = prof.mark() if prof is not None else 0.0
            if not self.writes:
                # Zero-copy: shares the base snapshot, nothing materialized.
                self._mat = self.base.data
                copied = 0
            else:
                buf = bytearray(self.base.data)
                for addr, data in self.writes:
                    buf[addr : addr + len(data)] = data
                self._mat = bytes(buf)
                copied = len(self._mat)
            if prof is not None:
                # Exclusive of a lazy fence base materializing itself.
                prof.add_exclusive("image.materialize", perf_counter() - t0,
                                   m0, copied, "materialized")
        return self._mat

    # ------------------------------------------------------------------
    # bytes-compatible surface
    # ------------------------------------------------------------------
    def __bytes__(self) -> bytes:
        return self.materialize()

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, key):
        return self.materialize()[key]

    def _content_of(self, other) -> Optional[bytes]:
        if isinstance(other, CrashImage):
            return other.materialize()
        if isinstance(other, (bytes, bytearray)):
            return bytes(other)
        return None

    def __eq__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() == content

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() < content

    def __le__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() <= content

    def __gt__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() > content

    def __ge__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() >= content

    def __hash__(self) -> int:
        # Content hash, consistent with content equality (incl. vs bytes).
        return hash(self.materialize())

    def __repr__(self) -> str:
        return (
            f"CrashImage(size={len(self)}, overlay={len(self.writes)} "
            f"range(s), materialized={self._mat is not None})"
        )
