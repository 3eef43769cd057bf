"""Memo-miss attribution: *why* did a check-memo lookup miss?

The delta-replay memo (:class:`repro.core.checker.CheckMemo`) keys crash
states by the canonical byte-granular content address
(:meth:`MemoAttribution.content_key`): equality implies byte-identical
images, and — because the key flattens the overlay down to the exact byte
diff from base — every overlay shape that materializes the same bytes
produces the same key.  This module classifies every remaining miss into
exactly one of:

``cold_base``
    The fence base's content digest had never been seen — the first state
    of a new persistent epoch.  Unavoidable: nothing to dedup against.
``overlay_shape``
    The *materialized* content (base + exact byte diff, via
    :func:`repro.pm.image.flatten_overlay`) was already checked under the
    same syscall context, but the memo's key still differed.  With the
    canonical content key this is structurally unreachable; it was the
    dominant avoidable class under the earlier range-wise digest keying
    and is kept as a regression sentinel — a nonzero count means the key
    stopped being a pure function of the bytes.
``noop_write_perturbation``
    Same as ``overlay_shape``, except the incoming overlay carries
    *residual* no-op bytes — bytes it writes that equal the base — which
    whole-write dropping (:meth:`repro.pm.image.CrashImage.effective_writes`)
    could not remove because they ride inside partially-effective or
    overlapping writes.  Also a sentinel now: byte-granular flattening
    drops residual no-op bytes before hashing.
``syscall_context``
    The content was seen before, but only under a different
    ``(syscall, mid_syscall, after_syscall)`` context.  A *necessary*
    miss: the same image is judged against different oracle expectations.
``new_content``
    Genuinely new image content.  Necessary by definition.

Classification is exact, not sampled — the memo hands over the content
key it already computed, so the per-miss cost is set lookups, and a miss
is immediately followed by a full mount-and-walk check that dwarfs them.
The reason counts always sum to the memo's miss count: every miss
receives exactly one label.

The attribution also keeps a colliding-digest table: content keys that
were checked under more than one distinct memo digest.  Under canonical
keying the two coincide, so any entry here is the same purity-regression
signal as a nonzero avoidable reason count.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.pm.image import CrashImage, flatten_overlay

#: Classification labels, in reporting order.
MISS_REASONS = (
    "cold_base",
    "overlay_shape",
    "noop_write_perturbation",
    "syscall_context",
    "new_content",
)

#: Reasons the canonical (byte-granular, shape-independent) content key
#: turns into hits.  The memo keys on that address, so these counts are
#: expected to be zero; nonzero is a key-purity regression.
AVOIDABLE_REASONS = ("overlay_shape", "noop_write_perturbation")


class MemoAttribution:
    """Classifies every memo miss of one workload's :class:`CheckMemo`.

    One instance per memo (per workload): the universe a miss is judged
    against is exactly the set of states the memo itself has seen, so
    "seen before" means "a hit was possible in principle".
    """

    def __init__(self) -> None:
        #: reason -> count; values always sum to the number of
        #: :meth:`classify_miss` calls (== the memo's miss count).
        self.reasons: Dict[str, int] = {}
        self._bases: Set[bytes] = set()
        #: content key -> syscall contexts it was checked under.
        self._contexts: Dict[bytes, Set[Tuple]] = {}
        #: content key -> distinct range-wise (memo) digests seen.
        self._shapes: Dict[bytes, Set[bytes]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def content_key(image) -> bytes:
        """A canonical content address: a pure function of the bytes.

        For a :class:`CrashImage` this is sha1 over the base digest and
        the exact byte diff from base — O(overlay), no materialization,
        and identical for every overlay shape that materializes the same
        image.  Flat ``bytes`` images hash directly.
        """
        if isinstance(image, CrashImage):
            h = hashlib.sha1(image.base.digest)
            for addr, data in flatten_overlay(image.base, image.writes):
                h.update(struct.pack("<QQ", addr, len(data)))
                h.update(data)
            return h.digest()
        return hashlib.sha1(
            image if isinstance(image, (bytes, bytearray)) else bytes(image)
        ).digest()

    @staticmethod
    def _residual_noop_bytes(image: CrashImage) -> int:
        """Base-equal bytes the effective overlay still writes.

        The union coverage of the effective writes minus the flattened
        diff size: every covered byte either differs from base (counted in
        the diff) or equals it (a residual no-op byte whole-write dropping
        could not remove).
        """
        spans: List[Tuple[int, int]] = []
        for addr, data in image.effective_writes():
            spans.append((addr, addr + len(data)))
        spans.sort()
        covered = 0
        cur_start: Optional[int] = None
        cur_end = 0
        for start, end in spans:
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            covered += cur_end - cur_start
        diff_bytes = sum(
            len(data)
            for _, data in flatten_overlay(image.base, image.writes)
        )
        return covered - diff_bytes

    # ------------------------------------------------------------------
    def classify_miss(self, state, memo_digest: bytes, ckey: bytes) -> str:
        """Label one miss; record the state for future classifications.

        ``memo_digest`` is the content-address component of the memo key
        that just missed — it feeds the colliding-digest table.  ``ckey``
        is the state's :meth:`content_key`, which the memo has already
        computed, so the overlay is never flattened twice.
        """
        image = state.image
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        is_delta = isinstance(image, CrashImage)
        if is_delta and image.base.digest not in self._bases:
            reason = "cold_base"
        elif ckey in self._contexts:
            if context in self._contexts[ckey]:
                reason = (
                    "noop_write_perturbation"
                    if is_delta and self._residual_noop_bytes(image) > 0
                    else "overlay_shape"
                )
            else:
                reason = "syscall_context"
        else:
            reason = "new_content"
        if is_delta:
            self._bases.add(image.base.digest)
        self._contexts.setdefault(ckey, set()).add(context)
        self._shapes.setdefault(ckey, set()).add(memo_digest)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return reason

    def note_shared_hit(self, state, ckey: bytes) -> None:
        """Record a state resolved by the *shared* memo tier.

        A shared hit is a hit, not a miss, so no reason is counted —
        ``sum(reasons) == misses`` stays structural.  But the state's base
        and context are now "seen": without seeding them, a later local
        miss of the same fence base would be misclassified as
        ``cold_base`` (the base is anything but cold — the fleet has
        checked states on it), inflating the unavoidable class and
        understating memo headroom.  No ``_shapes`` entry is recorded: the
        colliding-digest table tracks *checked* digests only.
        """
        image = state.image
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        if isinstance(image, CrashImage):
            self._bases.add(image.base.digest)
        self._contexts.setdefault(ckey, set()).add(context)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total classified misses (== the memo's miss count)."""
        return sum(self.reasons.values())

    @property
    def avoidable(self) -> int:
        """Misses a canonical content key would have turned into hits."""
        return sum(self.reasons.get(r, 0) for r in AVOIDABLE_REASONS)

    def top_collisions(self, k: int = 5) -> List[Tuple[str, int]]:
        """Content keys checked under more than one memo digest.

        Returns up to ``k`` ``(content_key_hex, n_shapes)`` pairs, most
        collided first — the concrete states a canonical digest would have
        merged.
        """
        colliding = [
            (key.hex()[:16], len(shapes))
            for key, shapes in self._shapes.items()
            if len(shapes) > 1
        ]
        colliding.sort(key=lambda kv: (-kv[1], kv[0]))
        return colliding[:k]
