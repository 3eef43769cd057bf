"""Consistency checking of crash states (paper section 3.3).

For every crash state the checker:

1. mounts the target file system on the image — failure to mount is itself
   a finding (three Table-1 bugs make the file system unmountable);
2. walks the tree — unreadable files/directories are findings;
3. compares the tree against the oracle: a crash *during* syscall *i* must
   match the syscall's pre- or post-state (atomicity, with a torn-write
   envelope for file systems whose ``write`` is not atomic); a crash *after*
   syscall *i* must match its post-state exactly (synchrony);
4. runs a usability pass: create a probe file in every directory, then
   delete every regular file.

Crash states of one fence region are mounted on one shared device through
a copy-on-write view (:meth:`repro.pm.device.PMDevice.cow_view`): the view
applies the state's overlay, records every checker mutation in an undo log,
and rolls both back on exit — the paper's own undo-log strategy — so
mutations never leak between states and nothing is copied per state.

Steps 1, 2 and 4 are skipped for a state on which they would read only
bytes an earlier check already read with the same values (the read-trace
recovery memo, :mod:`repro.core.recovery_memo`); steps 2 and 4 are skipped
for a state whose *post-mount* image is byte-identical to one this process
already walked and found usable (the recovered-outcome cache,
:mod:`repro.core.outcome_cache`).  Step 3 always runs, against the state's
own oracle context.
"""

from __future__ import annotations

import hashlib
import struct
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.oracle import OracleResult, TreeState
from repro.obs import profile as _profile
from repro.core.recovery_memo import Recovery
from repro.core.replayer import SYNC_SYSCALLS, CrashState
from repro.core.report import BugReport, Consequence, diff_trees
from repro.fs.common.alloc import AllocatorError
from repro.pm.device import PMDevice, PMDeviceError
from repro.pm.image import CrashImage, patched_digest
from repro.vfs.errors import FsError
from repro.vfs.interface import FileSystem, MountError
from repro.vfs.types import FileType

#: Operations checked with the torn-data envelope on file systems whose
#: write path is not atomic ("the main exception is write", section 3.3).
DATA_OPS = ("write", "pwrite", "append", "fallocate")

PROBE_NAME = ".chk_probe"

#: Tree differences quoted per report (detail text and ``paths``).
MAX_DIFF_ENTRIES = 4

#: What a mount or walk of a damaged image raises outside the file-system
#: error taxonomy (``MountError``, ``FsError``): a wild pointer read past the
#: device, a corrupt allocator, an undecodable or out-of-range field, an
#: unbounded descent.  Each is a "mount crashed" / "walk crashed" finding,
#: never an aborted workload, and never remembered by the recovery memo.
RECOVERY_CRASHES = (
    PMDeviceError, AllocatorError, ValueError, IndexError, RecursionError,
)


class ConsistencyChecker:
    """Checks crash states of one recorded workload against its oracle."""

    def __init__(
        self,
        fs_class,
        oracle: OracleResult,
        workload_desc: str,
        bugs=None,
        provenance=None,
        outcome_cache=None,
        recovery_memo=None,
    ) -> None:
        self.fs_class = fs_class
        self.oracle = oracle
        self.workload_desc = workload_desc
        self.bugs = bugs
        #: Optional :class:`~repro.forensics.provenance.ProvenanceRecorder`;
        #: when attached, every report carries its crash state's lineage.
        self.provenance = provenance
        # One shared mount device per replay tracker, adopting its live
        # buffer: every region of a workload mounts on the same bytes.
        self._mount_device: Optional[PMDevice] = None
        self._mount_store = None
        #: Digests of every distinct *recovered observable outcome* seen —
        #: the post-recovery tree (or an unmountable/unreadable marker) per
        #: checked state.  ``len(outcome_digests) / states checked`` is the
        #: measured headroom for WITCHER-style output-equivalence pruning:
        #: two crash states recovering to the same tree under the same
        #: oracle can only ever yield the same verdict.
        self.outcome_digests: set = set()
        # Oracle-context digests cached per (syscall, mid, after) — the
        # per-workload half of the shared memo key (see context_digest).
        self._ctx_digests: Dict[Tuple, bytes] = {}
        #: Optional :class:`~repro.core.outcome_cache.OutcomeCache` shared
        #: by every checker of one campaign process; None (forensics
        #: re-replay, hand-built checkers) walks and probes every state.
        self.outcome_cache = outcome_cache
        if outcome_cache is not None:
            outcome_cache.bind(
                (fs_class, bugs.enabled if bugs is not None else None)
            )
        #: This workload's share of the cache traffic: mounted states whose
        #: walk + usability were reused / ran in full.
        self.outcome_hits = 0
        self.outcome_misses = 0
        #: Optional :class:`~repro.core.recovery_memo.RecoveryMemo` shared
        #: like the outcome cache; None mounts every state it checks.
        self.recovery_memo = recovery_memo
        #: This workload's share of the memo traffic: states whose mount,
        #: walk and usability were reused / ran (and were recorded).
        self.recovery_hits = 0
        self.recovery_misses = 0
        #: Times one of this workload's inserts hit the trie budget and
        #: cleared it.
        self.recovery_resets = 0

    # ------------------------------------------------------------------
    # Oracle-context digest (shared check-memo key component)
    # ------------------------------------------------------------------
    def context_digest(self, state: CrashState) -> bytes:
        """Digest of everything besides the image that decides a verdict.

        Two checkers judging byte-identical images reach the same verdict
        iff their expectations agree, so the cross-workload memo key folds
        in a digest of exactly the inputs :meth:`_recover` and
        :meth:`_judge` consult:
        the file system, the enabled bug set, and the oracle trees the
        state's ``(syscall, mid_syscall, after_syscall)`` context is
        compared against.  Equal digest ⟹ equal expectations ⟹
        (with equal image bytes) equal verdict — the soundness argument for
        sharing clean verdicts across workloads and workers.  Tree
        digests go through :meth:`_tree_digest`, a pure function of the
        observable tree, so the digest is process-independent.

        Cached per context: a workload has a handful of contexts but
        thousands of states.
        """
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        cached = self._ctx_digests.get(context)
        if cached is not None:
            return cached
        h = hashlib.sha1()
        h.update(self.fs_class.name.encode())
        h.update(b"\x00")
        enabled = sorted(self.bugs.enabled) if self.bugs is not None else []
        h.update(repr(enabled).encode())
        h.update(b"\x01" if self.fs_class.atomic_data_writes else b"\x02")
        oracle = self.oracle
        if state.mid_syscall and state.syscall is not None:
            i = state.syscall
            op = oracle.workload[i]
            h.update(b"mid")
            h.update(op.name.encode())
            h.update(b"\x00")
            h.update((oracle.errnos[i] or "").encode())
            h.update(b"\x00")
            h.update(self._tree_digest(oracle.pre_state(i)))
            if oracle.errnos[i] is None:
                h.update(self._tree_digest(oracle.post_state(i)))
        else:
            h.update(b"post")
            if self._expects_nothing(state.after_syscall):
                h.update(b"<none>")
            else:
                expected = (
                    oracle.states[0]
                    if state.after_syscall < 0
                    else oracle.post_state(state.after_syscall)
                )
                h.update(self._tree_digest(expected))
        digest = h.digest()
        self._ctx_digests[context] = digest
        return digest

    # ------------------------------------------------------------------
    def check(self, state: CrashState) -> List[BugReport]:
        """Return every violation found in one crash state."""
        # Mount the fence region's shared device through a copy-on-write
        # view of the state's overlay.  The view's undo log rolls back both
        # the overlay and any checker mutation (mount-time recovery writes,
        # the usability pass), so states never leak into each other — the
        # paper's own undo-log strategy, instead of a full image copy per
        # state.
        #
        # The base shares the replayer's live buffer: adopt that buffer as
        # the mount device (no copy, ever) and prefix the COW view with the
        # base's restore patch, which rolls the live content back to this
        # region.  While states stream (region checked as it is
        # enumerated) the patch is empty; it only grows for stale bases
        # re-checked after enumeration moved on.
        image = state.image
        base = image.base
        if self._mount_store is not base.tracker:
            self._mount_store = base.tracker
            self._mount_device = PMDevice.adopt(base.tracker.buf)
            if self.recovery_memo is not None:
                self.recovery_memo.bind((
                    self.fs_class,
                    self.bugs.enabled if self.bugs is not None else None,
                    self._mount_device.size,
                ))
        writes = tuple(base.restore_writes()) + image.writes
        with self._mount_device.cow_view(writes) as device:
            if self.recovery_memo is None:
                recovery = self._recover(device, image)[0]
            else:
                recovery = self._recover_memoized(state, device, image)
            return self._judge(state, recovery)

    def _recover(
        self, device: PMDevice, image: CrashImage
    ) -> Tuple[Recovery, bool]:
        """Mount, walk and probe ``device``: all a check learns from PM.

        Returns the recovery and whether it ran in full — False when the
        outcome cache skipped walk + usability or the mount, walk or
        usability pass crashed, the cases the recovery memo must not
        remember.  ``image`` is the crash image ``device`` presents through
        a COW view, which keys the recovered-outcome cache.
        """
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        try:
            fs = self.fs_class.mount(device, bugs=self.bugs)
        except MountError as exc:
            return Recovery(
                digest=b"<unmountable>" + str(exc).encode(),
                failure=(Consequence.UNMOUNTABLE, str(exc)),
            ), True
        except RECOVERY_CRASHES as exc:
            return Recovery(
                digest=b"<mount-crash>" + type(exc).__name__.encode(),
                failure=(
                    Consequence.UNMOUNTABLE,
                    f"mount crashed: {type(exc).__name__}: {exc}",
                ),
            ), False
        finally:
            if prof is not None:
                prof.add("checker.mount", perf_counter() - t0)
        cache = self.outcome_cache
        key = None
        if cache is not None:
            key = self._outcome_key(device, image)
            outcome = cache.lookup(key)
            if outcome is not None:
                self.outcome_hits += 1
                return self._reuse_outcome(fs, outcome), False
            self.outcome_misses += 1
        t0 = perf_counter() if prof is not None else 0.0
        try:
            crash_tree = fs.walk()
        except FsError as exc:
            return Recovery(
                digest=b"<unreadable>",
                failure=(Consequence.UNREADABLE, str(exc)),
            ), True
        except RECOVERY_CRASHES as exc:
            return Recovery(
                digest=b"<walk-crash>" + type(exc).__name__.encode(),
                failure=(
                    Consequence.UNREADABLE,
                    f"walk crashed: {type(exc).__name__}: {exc}",
                ),
            ), False
        finally:
            if prof is not None:
                prof.add("checker.walk", perf_counter() - t0)
        tree_digest = self._tree_digest(crash_tree)
        t0 = perf_counter() if prof is not None else 0.0
        findings, crashed = self._check_usability(fs, crash_tree)
        if prof is not None:
            prof.add("checker.usability", perf_counter() - t0)
        if key is not None and not findings:
            # Only a readable, usable recovery is worth remembering — and
            # safe to: there is no walk or usability report a later hit
            # could elide.
            cache.store(key, crash_tree, tree_digest)
        return Recovery(crash_tree, tree_digest, findings), not crashed

    def _judge(self, state: CrashState, recovery: Recovery) -> List[BugReport]:
        """Reports for ``state`` given what recovery made of its image."""
        self._note_outcome(recovery.digest)
        if recovery.failure is not None:
            return [self._report(state, *recovery.failure)]
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        reports = self._check_semantics(state, recovery.tree)
        if prof is not None:
            prof.add("checker.semantics", perf_counter() - t0)
        reports.extend(
            self._report(state, consequence, detail, paths)
            for consequence, detail, paths in recovery.findings
        )
        return reports

    # ------------------------------------------------------------------
    # Read-trace recovery memo (skip mount, walk and usability)
    # ------------------------------------------------------------------
    def _recover_memoized(
        self, state: CrashState, device: PMDevice, image: CrashImage
    ) -> Recovery:
        """:meth:`_recover` through the recovery memo.

        The lookup reads the COW view's bytes before anything mounts.  A
        miss runs the real recovery under a read/write trace; once it is
        done the view rewinds to the state's own bytes (its undo log), the
        image the trace's reads are keyed against.
        """
        memo = self.recovery_memo
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        recorded = memo.lookup(device.image)
        if prof is not None:
            prof.add("checker.recovery_lookup", perf_counter() - t0)
        if recorded is not None:
            self.recovery_hits += 1
            return self._reuse_recovery(state, device, recorded)
        self.recovery_misses += 1
        with device.traced() as trace:
            recovery, complete = self._recover(device, image)
        if complete:
            t0 = perf_counter() if prof is not None else 0.0
            device.rewind_undo()
            resets = memo.resets
            memo.insert(trace, device.image, recovery)
            if memo.resets > resets:
                self.recovery_resets += 1
            if prof is not None:
                prof.add("checker.recovery_insert", perf_counter() - t0)
        return recovery

    def _reuse_recovery(
        self, state: CrashState, device: PMDevice, recorded: Recovery
    ) -> Recovery:
        """The recorded recovery of an image that reads like ``device``'s.

        (``state`` and ``device`` are unused here — the equivalence audit
        in the tests overrides this hook to re-run the real check on them.)
        """
        return recorded

    # ------------------------------------------------------------------
    # Recovered-outcome cache (skip walk + usability on a known image)
    # ------------------------------------------------------------------
    def _outcome_key(self, device: PMDevice, image: CrashImage) -> bytes:
        """Content digest of the mounted image as recovery left it.

        Exactly ``ChunkedDigest(device.image).digest()`` — the fence-base
        digest construction, so equal keys mean byte-identical post-mount
        images whatever base or workload produced them — but computed
        from the base's chunk digests by rehashing only the chunks the
        overlay and recovery's own writes touched.
        """
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        ranges = [(addr, len(data)) for addr, data in image.writes]
        ranges.extend(device.undo_ranges())
        key, rehashed = patched_digest(
            image.base.chunk_digests, device.image, ranges
        )
        if prof is not None:
            prof.add("checker.outcome_key", perf_counter() - t0, rehashed,
                     "digest_hashed")
        return key

    def _reuse_outcome(self, fs: FileSystem, outcome) -> Recovery:
        """The recovery of an image the outcome cache already judged.

        The cached tree is what ``fs.walk()`` would return and the
        usability pass is known to report nothing, so both are skipped.
        (``fs`` is unused here — the equivalence audit in the tests
        overrides this hook to re-run both passes on it.)
        """
        return Recovery(outcome.tree, outcome.digest)

    # ------------------------------------------------------------------
    # Recovered-outcome tracking (equivalence-pruning headroom)
    # ------------------------------------------------------------------
    def _note_outcome(self, material: bytes) -> None:
        self.outcome_digests.add(hashlib.sha1(material).digest())

    @staticmethod
    def _tree_digest(crash_tree: TreeState) -> bytes:
        """Stable, injective digest of the recovered observable tree.

        Covers everything ``FileObservation.__eq__`` compares — the full
        file content, not a preview — because the shared memo key and the
        recovered-outcome cache both treat equal digests as equal trees.
        """
        h = hashlib.sha1()
        for path in sorted(crash_tree):
            obs = crash_tree[path]
            h.update(path.encode())
            h.update(b"\x00")
            h.update(repr(
                (obs.ftype.value, obs.size, obs.nlink, obs.mode, obs.entries)
            ).encode())
            content = obs.content
            if content is None:
                h.update(b"\x00-")
            else:
                h.update(b"\x00+" + struct.pack(">Q", len(content)))
                h.update(content)
        return b"<tree>" + h.digest()

    # ------------------------------------------------------------------
    # Semantic comparison
    # ------------------------------------------------------------------
    def _check_semantics(self, state: CrashState, crash_tree: TreeState) -> List[BugReport]:
        oracle = self.oracle
        if state.mid_syscall and state.syscall is not None:
            i = state.syscall
            pre = oracle.pre_state(i)
            if oracle.errnos[i] is not None:
                # The syscall failed on the oracle; it must not have left
                # any persistent effect.
                if crash_tree == pre:
                    return []
                return [self._mismatch(state, crash_tree, pre, Consequence.ATOMICITY)]
            post = oracle.post_state(i)
            if crash_tree == pre or crash_tree == post:
                return []
            op_name = oracle.workload[i].name
            if op_name in DATA_OPS and not self.fs_class.atomic_data_writes:
                if self._within_data_envelope(crash_tree, pre, post):
                    return []
            return [self._atomicity_report(state, crash_tree, pre, post)]
        # Post-syscall or final state: synchrony — exact match required.
        if self._expects_nothing(state.after_syscall):
            return []
        if state.after_syscall < 0:
            expected = oracle.states[0]
        else:
            expected = oracle.post_state(state.after_syscall)
        if crash_tree == expected:
            return []
        consequence = (
            Consequence.SYNCHRONY if state.after_syscall >= 0 else Consequence.STATE_MISMATCH
        )
        return [self._mismatch(state, crash_tree, expected, consequence)]

    def _expects_nothing(self, after_syscall: int) -> bool:
        """True when a crash right after syscall ``after_syscall`` has no
        synchrony expectation: on a weak-guarantee file system only the
        sync family promises durability, and a sync call that failed
        promises nothing (mount, walk and usability findings still stand).
        """
        if after_syscall < 0:
            return False
        oracle = self.oracle
        return (
            oracle.errnos[after_syscall] is not None
            and oracle.workload[after_syscall].name in SYNC_SYSCALLS
            and not self.fs_class.strong_guarantees
        )

    def _within_data_envelope(
        self, crash: TreeState, pre: TreeState, post: TreeState
    ) -> bool:
        """Torn-write envelope for non-atomic data operations.

        Paths untouched by the syscall must match the pre-state; the target
        file's metadata must be the old or new version, and every content
        byte must come from the old content, the new content, or be zero in
        a region the operation extended.
        """
        changed = {p for p in set(pre) | set(post) if pre.get(p) != post.get(p)}
        for path in set(crash) | set(pre):
            if path in changed:
                continue
            if crash.get(path) != pre.get(path):
                return False
        for path in changed:
            c = crash.get(path)
            p0, p1 = pre.get(path), post.get(path)
            if c is None or p1 is None:
                return False
            if c.ftype is not FileType.REGULAR:
                return False
            if c.nlink != p1.nlink or c.mode != p1.mode:
                return False
            sizes = {p1.size} | ({p0.size} if p0 is not None else set())
            if c.size not in sizes:
                return False
            old = p0.content if p0 is not None and p0.content else b""
            new = p1.content if p1.content else b""
            content = c.content or b""
            for i, byte in enumerate(content):
                old_b = old[i] if i < len(old) else 0
                new_b = new[i] if i < len(new) else 0
                if byte not in (old_b, new_b, 0):
                    return False
        return True

    # ------------------------------------------------------------------
    # Report construction
    # ------------------------------------------------------------------
    def _atomicity_report(
        self, state: CrashState, crash: TreeState, pre: TreeState, post: TreeState
    ) -> BugReport:
        """Classify an atomicity violation for a readable crash state."""
        diffs_pre = diff_trees(crash, pre)
        diffs_post = diff_trees(crash, post)
        diffs = diffs_pre if len(diffs_pre) <= len(diffs_post) else diffs_post
        consequence = Consequence.ATOMICITY
        op = self.oracle.workload[state.syscall] if state.syscall is not None else None
        detail_bits: List[str] = []
        if op is not None and op.name == "rename":
            old_path, new_path = op.args[0], op.args[1]
            if old_path not in crash and new_path not in crash and old_path in pre:
                detail_bits.append(
                    f"rename atomicity broken: neither {old_path!r} nor "
                    f"{new_path!r} exists (file disappears)"
                )
            elif old_path in crash and new_path in crash:
                detail_bits.append(
                    f"rename atomicity broken: old file {old_path!r} still "
                    f"present alongside {new_path!r}"
                )
        if any(
            d.kind == "differs" and "zeros" not in d.detail and "content" in d.detail
            for d in diffs
        ):
            consequence = Consequence.DATA_LOSS
        missing_data = [
            d for d in diffs if d.kind == "differs" and "size" in d.detail
        ]
        if op is not None and op.name in DATA_OPS and (missing_data or not detail_bits):
            consequence = Consequence.DATA_LOSS
        detail_bits.extend(
            d.describe() for d in diffs[:MAX_DIFF_ENTRIES]
        )
        return self._report(
            state,
            consequence,
            f"matches neither pre nor post state of "
            f"{op.describe() if op else '?'}: " + " | ".join(detail_bits),
            paths=tuple(d.path for d in diffs[:MAX_DIFF_ENTRIES]),
        )

    def _mismatch(
        self,
        state: CrashState,
        crash: TreeState,
        expected: TreeState,
        consequence: Consequence,
    ) -> BugReport:
        diffs = diff_trees(crash, expected)
        detail = " | ".join(d.describe() for d in diffs[:MAX_DIFF_ENTRIES])
        return self._report(
            state,
            consequence,
            f"state after syscall #{state.after_syscall} diverges: {detail}",
            paths=tuple(d.path for d in diffs[:MAX_DIFF_ENTRIES]),
        )

    def _report(
        self,
        state: CrashState,
        consequence: Consequence,
        detail: str,
        paths: Tuple[str, ...] = (),
    ) -> BugReport:
        return BugReport(
            fs_name=self.fs_class.name,
            consequence=consequence,
            workload_desc=self.workload_desc,
            crash_desc=state.describe(),
            detail=detail,
            syscall=state.syscall,
            syscall_name=state.syscall_name,
            mid_syscall=state.mid_syscall,
            n_replayed=state.n_replayed,
            paths=paths,
            provenance=(
                self.provenance.for_state(state)
                if self.provenance is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Usability pass
    # ------------------------------------------------------------------
    def _check_usability(
        self, fs: FileSystem, crash_tree: TreeState
    ) -> Tuple[List[Tuple[Consequence, str, Tuple[str, ...]]], bool]:
        """Create a file in every directory, then delete every file.

        Returns ``(consequence, detail, paths)`` per failed operation —
        facts about the image, which :meth:`_judge` turns into reports —
        and whether any operation crashed (raised one of
        :data:`RECOVERY_CRASHES`, a "usability crashed" finding).
        """
        findings: List[Tuple[Consequence, str, Tuple[str, ...]]] = []
        crashed = False
        dirs = [p for p, obs in crash_tree.items() if obs.ftype is FileType.DIRECTORY]
        files = [p for p, obs in crash_tree.items() if obs.ftype is FileType.REGULAR]
        for d in sorted(dirs):
            probe = (d.rstrip("/") or "") + "/" + PROBE_NAME
            try:
                fs.creat(probe)
                files.append(probe)
            except FsError as exc:
                findings.append((
                    Consequence.USABILITY,
                    f"cannot create a file in {d!r}: {exc}",
                    (d,),
                ))
            except RECOVERY_CRASHES as exc:
                crashed = True
                findings.append(_usability_crash(exc, d))
        for f in sorted(files):
            try:
                fs.unlink(f)
            except FsError as exc:
                findings.append((
                    Consequence.USABILITY, f"cannot delete {f!r}: {exc}", (f,)
                ))
            except RECOVERY_CRASHES as exc:
                crashed = True
                findings.append(_usability_crash(exc, f))
        return findings, crashed


def _usability_crash(
    exc: Exception, path: str
) -> Tuple[Consequence, str, Tuple[str, ...]]:
    """The finding for a usability operation on ``path`` that crashed."""
    return (
        Consequence.USABILITY,
        f"usability crashed: {type(exc).__name__}: {exc}",
        (path,),
    )


class CheckMemo:
    """Content-addressed check memoization: one checker run per distinct image.

    The single entry point for checking crash states (the harness calls
    nothing else), so memoization and the per-state ``check_state``
    telemetry span wrap the same code path.  States are keyed by
    ``(image content address, syscall, mid_syscall, after_syscall)`` — the
    content address alone is not enough, because a byte-identical image
    crash-checked mid-syscall and post-syscall is judged against different
    oracle expectations.

    The content address of a :class:`~repro.pm.image.CrashImage` is its
    :meth:`~repro.pm.image.CrashImage.content_key` — O(overlay), no
    materialization, and identical for every overlay shape that
    materializes the same bytes on the same base.  Key equality implies
    byte-identical images, so a hit can never skip a state that would have
    checked differently.

    :meth:`check` returns ``None`` on a memo hit (the state was already
    checked; any findings are already in the caller's hands) and the
    checker's report list on a miss.

    **Local tier.** The keys this workload has checked, in a ``set``: one
    memo serves one workload, whose distinct states fit in memory, so
    nothing is ever evicted and no state is checked twice.

    **Shared tier.** With ``shared`` attached (the campaign worker's
    ``MemoClient``, or anything with the same ``ok``/``lookup``/``publish``
    surface), locally-missed states consult the campaign-wide table of
    clean states under a key that folds the checker's
    :meth:`~ConsistencyChecker.context_digest` into the content address —
    equal shared key ⟹ equal image bytes *and* equal oracle expectations
    ⟹ equal verdict, across workloads and workers.  Only clean states are
    published: a buggy state's reports carry workload-specific identity
    (workload and crash descriptions, provenance), so it is always
    re-checked locally and its reports land in ``bugs.json`` exactly as
    without the service.  A shared hit can therefore never mask a bug — it
    elides re-checks whose outcome is provably empty.  A shared failure is
    a local miss: every shared call is exception-guarded, errors count
    into :attr:`shared_errors`, and once the client reports ``ok`` False
    the memo runs on with the local tier alone.
    """

    def __init__(self, checker: ConsistencyChecker, telemetry=None,
                 shared=None) -> None:
        self.checker = checker
        self.shared = shared
        self._tel = telemetry if telemetry is not None and telemetry.enabled else None
        #: Per-memo hit/miss counts (one memo per workload).
        self.hits = 0
        self.misses = 0
        #: Hits served by the shared service (also counted in :attr:`hits`).
        self.shared_hits = 0
        #: Shared-service calls that failed (degraded to a local miss).
        self.shared_errors = 0
        #: Local tier: keys of every state checked or shared-hit so far.
        self._seen: set = set()

    def key_of(self, state: CrashState):
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        m0 = prof.mark() if prof is not None else 0.0
        digest = state.image.content_key()
        if prof is not None:
            # Exclusive of the flatten the content key runs internally
            # (profiled at its own site in the same stage).
            prof.add_exclusive("memo.key", perf_counter() - t0, m0)
        return (digest, state.syscall, state.mid_syscall, state.after_syscall)

    @property
    def checked(self) -> int:
        """States actually checked — the campaign's "unique states"."""
        return self.misses

    def shared_key(self, state: CrashState, key) -> bytes:
        """Campaign-wide key: oracle context folded into the content address.

        The local key's ``(syscall, mid, after)`` tuple is only meaningful
        inside one workload; across workloads the same tuple names
        different expectations.  The shared key replaces it with the
        checker's :meth:`~ConsistencyChecker.context_digest` (the packed
        tuple rides along so distinct contexts that happen to hash-collide
        on expectations still separate), making key equality imply verdict
        equality campaign-wide.
        """
        h = hashlib.sha1()
        h.update(self.checker.context_digest(state))
        h.update(key[0])
        h.update(struct.pack(
            ">iBi",
            state.syscall if state.syscall is not None else -1,
            1 if state.mid_syscall else 0,
            state.after_syscall,
        ))
        return h.digest()

    # -- shared-tier wrappers: any failure is a degraded miss, never a raise
    def _shared_lookup(self, skey: bytes) -> bool:
        try:
            return self.shared.lookup(skey) is True
        except Exception:
            self.shared_errors += 1
            return False

    def _shared_publish(self, skey: bytes) -> None:
        try:
            self.shared.publish(skey)
        except Exception:
            self.shared_errors += 1

    def check(self, state: CrashState) -> Optional[List[BugReport]]:
        key = self.key_of(state)
        if key in self._seen:
            self.hits += 1
            return None
        skey = None
        if self.shared is not None and self.shared.ok:
            skey = self.shared_key(state, key)
            if self._shared_lookup(skey):
                # Another workload or worker already checked these exact
                # bytes under these exact expectations and found nothing:
                # there are no reports to suppress, so skipping cannot
                # change bugs.json.
                self.hits += 1
                self.shared_hits += 1
                self._seen.add(key)
                return None
        self.misses += 1
        if self._tel is not None:
            with self._tel.span(
                "check_state",
                fence=state.fence_index,
                syscall=state.syscall_name or "",
                n_replayed=state.n_replayed,
            ):
                reports = self.checker.check(state)
        else:
            reports = self.checker.check(state)
        self._seen.add(key)
        if skey is not None and not reports and self.shared.ok:
            # Only clean states travel: a buggy one is re-checked by every
            # workload that reaches it, so publishing it would be pure
            # table growth.
            self._shared_publish(skey)
        return reports
