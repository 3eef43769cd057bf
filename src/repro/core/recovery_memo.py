"""Read-trace recovery memo: never re-run a recovery already watched.

A check's mount, ``walk()`` and usability pass are a deterministic function
of the PM bytes they *read* — every file system touches PM only through
:meth:`~repro.pm.device.PMDevice.read` / ``write`` (the purity contract in
:mod:`repro.vfs.interface`).  So two crash states on which that computation
reads the same bytes recover identically, whatever else differs between
their images: WITCHER's output equivalence moved from "same recovered image
⇒ same verdict" to "same recovery inputs ⇒ same recovery".  Vinter gets its
read sets the same way, "by recording PM read functions" (paper §6.2).

The memo is a decision trie over those inputs.  Each trie node is one step:
the bytes the next read consumes, with one edge per value found there; each
leaf is a :class:`Recovery` — the interned clean tree plus the usability
findings, a ``MountError`` text, or a walk ``FsError`` text.  A lookup walks
the trie against the state's image before anything is mounted.  A hit skips
mount, walk and usability; the checker still runs the oracle comparison for
the state's own context and rebuilds every report through its own
``_report``, so provenance stays per state.

Keys are derived only on insert, from the ``(addr, ±len)`` trace of one
whole check and the image as it was before the check's own writes.  A step
keys only the bytes its path has not already determined: bytes the check
wrote itself, or read earlier on the same path, are masked out — they are
functions of earlier steps, not inputs.  That is what keeps the trie small
and a hit short.

Most steps have a single recorded value, so runs of them are stored
compressed: a :class:`_Node` holds a run of steps as byte ranges, their
concatenated edge keys and one digest of all their bytes, and only its last
step branches — a lookup costs one digest per run plus one key and one dict
probe per branching step.  Memory is a fixed budget of :data:`MAX_NODES`
steps: an insert that would overflow it clears the trie first.  Edge keys
longer than :data:`KEY_BYTES` are stored as a blake2b digest of that size.
The trie is a function of the file-system class, the bug set and the
device size; :meth:`RecoveryMemo.bind` clears it when any of them changes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from hashlib import blake2b
from typing import Dict, List, Optional, Sequence, Tuple

#: Trie nodes — keyed reads — held at most.
MAX_NODES = 4096

#: Edge keys longer than this many bytes are stored as a digest this long.
KEY_BYTES = 16

#: One trie step: the ``(lo, hi)`` byte ranges one read consumed.
Step = Tuple[Tuple[int, int], ...]


class Recovery:
    """What mount, walk and the usability pass made of one crash image.

    ``failure`` is ``(consequence, detail)`` for an image that did not
    mount or could not be walked, else ``None``; then ``tree`` is the
    walked tree and ``findings`` the usability pass's
    ``(consequence, detail, paths)`` triples.  ``digest`` identifies the
    observable outcome (the tree digest, or a failure marker).
    """

    __slots__ = ("tree", "digest", "findings", "failure")

    def __init__(self, tree=None, digest: bytes = b"", findings=(),
                 failure=None) -> None:
        self.tree = tree
        self.digest = digest
        self.findings = tuple(findings)
        self.failure = failure

    def identity(self) -> tuple:
        return (self.digest, self.failure, self.findings)


class _Node:
    """A run of trie nodes of which only the last has more than one edge.

    The steps before the last are *fixed*: ``runs`` holds their byte
    ranges as ``lo, hi, lo, hi, ...``, ``shape`` the number of ranges of
    each (``None`` when every one has one), ``fixed`` their concatenated
    edge keys and ``check`` one digest of all their bytes (``None`` until a
    lookup has matched them key by key).  ``last`` holds the last step's
    ranges as slices, and ``edges`` maps its key to the next run or a
    :class:`Recovery` leaf.
    """

    __slots__ = ("runs", "shape", "fixed", "check", "last", "edges")

    def __init__(self, steps: Sequence[Step], fixed: bytes,
                 edges: Dict[bytes, object]) -> None:
        self.runs = array("I", [x for step in steps[:-1]
                                for pair in step for x in pair])
        self.shape: Optional[array] = None
        if any(len(step) > 1 for step in steps[:-1]):
            self.shape = array("I", [len(step) for step in steps[:-1]])
        self.fixed = fixed
        self.check: Optional[bytes] = None
        self.last = tuple(slice(lo, hi) for lo, hi in steps[-1])
        self.edges = edges

    @classmethod
    def path(cls, steps: Sequence[Step], leaf: "Recovery", image) -> "_Node":
        """A fresh run of ``steps``, keyed on ``image``, ending in
        ``leaf``."""
        node = cls(
            steps,
            b"".join([_key(image, step) for step in steps[:-1]]),
            {_key(image, steps[-1]): leaf},
        )
        node.check = _raw_digest(image, node.runs)
        return node

    def steps(self) -> List[Step]:
        """The ranges of each step, the last one included."""
        pairs = list(zip(self.runs[0::2], self.runs[1::2]))
        if self.shape is None:
            out = [(pair,) for pair in pairs]
        else:
            out, at = [], 0
            for n in self.shape:
                out.append(tuple(pairs[at : at + n]))
                at += n
        return out + [tuple((s.start, s.stop) for s in self.last)]

    def verify(self, image) -> bool:
        """Match ``image`` against the fixed steps key by key, and on
        success remember the digest that matches them in one go."""
        offset = 0
        for step in self.steps()[:-1]:
            key = _key(image, step)
            if not self.fixed.startswith(key, offset):
                return False
            offset += len(key)
        self.check = _raw_digest(image, self.runs)
        return True

    def diverges(self, ranges: List[Step], steps: Sequence[Step], depth: int,
                 image) -> Optional[Tuple[int, int]]:
        """``(j, offset)``: the first step ``j`` of this run where
        ``steps[depth:]``, read on ``image``, takes another edge (the last
        step always counts) and the offset of its key in ``fixed``.
        ``None`` when the recording reads other ranges or ends inside the
        run — which a pure recovery cannot do."""
        last = len(ranges) - 1
        if (
            self.check is not None
            and steps[depth : depth + last + 1] == ranges
            and _raw_digest(image, self.runs) == self.check
        ):
            return last, len(self.fixed)
        offset = 0
        for j, step in enumerate(ranges):
            if depth + j >= len(steps) or steps[depth + j] != step:
                return None
            if j == last:
                break
            key = _key(image, step)
            if not self.fixed.startswith(key, offset):
                break
            offset += len(key)
        return j, offset

    def split(self, j: int, offset: int, width: int, ranges: List[Step],
              image) -> None:
        """Make fixed step ``j`` (its key ``width`` bytes at ``offset`` in
        ``fixed``) this run's last; the steps after it move to a new run
        that inherits the edges.  ``image`` matched every step before
        ``j``."""
        cut = sum(len(step) for step in ranges[:j])
        tail = _Node(ranges[j + 1 :], self.fixed[offset + width :], self.edges)
        self.edges = {self.fixed[offset : offset + width]: tail}
        self.runs = self.runs[: 2 * cut]
        if self.shape is not None:
            head = self.shape[:j]
            self.shape = head if max(head, default=1) > 1 else None
        self.fixed = self.fixed[:offset]
        self.last = tuple(slice(lo, hi) for lo, hi in ranges[j])
        self.check = _raw_digest(image, self.runs)


def _raw_digest(image, runs: array) -> bytes:
    """Digest of the bytes ``image`` holds at every range in ``runs``."""
    pairs = iter(runs)
    return blake2b(b"".join([image[lo:hi] for lo, hi in zip(pairs, pairs)]),
                   digest_size=KEY_BYTES).digest()


def _key(image, step: Step) -> bytes:
    """Edge key of the bytes ``image`` holds at one step's ranges."""
    if len(step) == 1:
        (lo, hi), = step
        key = image[lo:hi]
    else:
        key = b"".join([image[lo:hi] for lo, hi in step])
    if len(key) > KEY_BYTES:
        return blake2b(key, digest_size=KEY_BYTES).digest()
    return bytes(key)


def derive_steps(trace: Sequence[Tuple[int, int]]) -> List[Step]:
    """The bytes each read consumed that the computation had not yet
    determined, for every read that consumed any.

    ``trace`` is a :meth:`~repro.pm.device.PMDevice.traced` recording.  A
    byte is determined once the computation wrote it or read it;
    ``bounds`` holds the determined ranges as a sorted ``[lo0, hi0, lo1,
    hi1, ...]`` list, so a byte is determined iff an odd number of bounds
    lie at or below it.
    """
    bounds: List[int] = []
    steps: List[Step] = []
    for addr, length in trace:
        end = addr - length if length < 0 else addr + length
        if end == addr:
            continue
        i = bisect_right(bounds, addr)
        if i % 2 and end <= bounds[i]:
            continue  # inside one determined range already
        j = bisect_left(bounds, end, i)
        if i == j:
            if length > 0:
                steps.append(((addr, end),))
            bounds[i:i] = (addr, end)
            continue
        if length > 0:
            # Boundaries inside the read alternate determined / not,
            # starting determined iff ``i`` is odd.
            cuts = [addr] + bounds[i:j] + [end]
            step = tuple(
                (cuts[k], cuts[k + 1])
                for k in range(i % 2, len(cuts) - 1, 2)
                if cuts[k] < cuts[k + 1]
            )
            if step:
                steps.append(step)
        bounds[i:j] = [addr] * (i % 2 == 0) + [end] * (j % 2 == 0)
    return steps


class RecoveryMemo:
    """Decision trie from recovery inputs to :class:`Recovery` leaves."""

    def __init__(self) -> None:
        self._scope = None
        self._root: Optional[_Node] = None
        #: Trie nodes (steps) currently held.
        self.nodes = 0
        #: Times the budget cleared the trie.
        self.resets = 0
        self._leaves: Dict[tuple, Recovery] = {}
        # Where the last lookup missed — ``(image, node, depth)`` — so the
        # insert that follows it need not re-walk the matched prefix.
        self._miss: Optional[tuple] = None

    def bind(self, scope) -> None:
        """Declare what recovery is a function of besides the bytes it
        reads (file-system class, bug set, device size); a different scope
        empties the trie."""
        if scope != self._scope:
            self._scope = scope
            self._clear()

    def _clear(self) -> None:
        self._root = None
        self.nodes = 0
        self._leaves = {}
        self._miss = None

    def lookup(self, image) -> Optional[Recovery]:
        """The recorded recovery of an image that reads like ``image``."""
        node, depth, self._miss = self._root, 0, None
        while node is not None:
            # One digest over a run's fixed steps, then its branching step.
            self._miss = (image, node, depth)
            if node.runs:
                if node.check is None:
                    if not node.verify(image):
                        return None
                elif _raw_digest(image, node.runs) != node.check:
                    return None
            depth += len(node.runs) // 2 if node.shape is None else len(node.shape)
            depth += 1
            last = node.last
            if len(last) == 1:
                key = image[last[0]]
            else:
                key = b"".join(map(image.__getitem__, last))
            if len(key) > KEY_BYTES:
                key = blake2b(key, digest_size=KEY_BYTES).digest()
            else:
                key = bytes(key)
            node = node.edges.get(key)
            if type(node) is Recovery:
                self._miss = None
                return node
        return None

    def insert(self, trace: Sequence[Tuple[int, int]], image,
               recovery: Recovery) -> None:
        """Remember ``recovery`` for every image that agrees with ``image``
        — the bytes as they stood before the traced computation wrote
        anything — on the bytes ``trace`` consumed."""
        miss, self._miss = self._miss, None
        steps = derive_steps(trace)
        if not steps or len(steps) > MAX_NODES:
            return
        # Find where the recording leaves the trie: at step ``j`` of the
        # run ``node``, which starts at ``steps[depth]`` — no earlier than
        # where the lookup of this very image missed.
        node, depth, j, ranges, offset = self._root, 0, -1, [], 0
        if miss is not None and miss[0] is image:
            node, depth = miss[1], miss[2]
        while node is not None:
            ranges = node.steps()
            found = node.diverges(ranges, steps, depth, image)
            if found is None:
                return
            j, offset = found
            if j < len(ranges) - 1:
                break
            child = node.edges.get(_key(image, steps[depth + j]))
            if child is None:
                break
            if type(child) is Recovery:
                return  # known — or a recording that runs on past a leaf
            node, depth = child, depth + j + 1
        new = len(steps) - (depth + j + 1)
        if self.nodes + new > MAX_NODES:
            self.resets += 1
            self._clear()
            node, depth, j, new = None, 0, -1, len(steps)
        self.nodes += new
        leaf = self._leaves.setdefault(recovery.identity(), recovery)
        rest = steps[depth + j + 1 :]
        target = _Node.path(rest, leaf, image) if rest else leaf
        if node is None:
            self._root = target
            return
        key = _key(image, steps[depth + j])
        if j < len(ranges) - 1:
            node.split(j, offset, len(key), ranges, image)
        node.edges[key] = target
