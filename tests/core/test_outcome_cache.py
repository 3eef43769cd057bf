"""Recovered-outcome cache: the equivalence gate.

The cache lets the checker skip ``walk()`` and the usability pass on a crash
state whose *post-mount* image is byte-identical to one already walked and
found usable.  That is sound only if (1) the key really is the digest of the
post-mount bytes and (2) every file system's mount is *pure* — its volatile
state a function of the recovered image (the contract in
``repro.vfs.interface.FileSystem.mount``).  (1) is a hypothesis property
over random logs and random recovery writes; (2) is audited
here for all seven registry entries by a checker that, on every hit, still
runs the real walk and usability pass and demands the cached answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec
from repro.core import harness
from repro.core.checker import ConsistencyChecker
from repro.core.oracle import OracleResult
from repro.core.outcome_cache import OutcomeCache
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES
from repro.pm.image import CHUNK, ChunkedDigest
from repro.pm.log import PMLog
from repro.vfs.errors import ENOSPC
from repro.vfs.interface import FileObservation
from repro.vfs.types import FileType, Stat
from repro.workloads import ace
from repro.workloads.ops import Op

# ---------------------------------------------------------------------------
# (a) Mount-purity audit across the registry
# ---------------------------------------------------------------------------
class AuditingChecker(ConsistencyChecker):
    """On every cache hit, re-derive what the hit is about to skip."""

    audited = 0

    def _reuse_outcome(self, fs, outcome):
        tree = fs.walk()
        assert tree == outcome.tree
        assert self._tree_digest(tree) == outcome.digest
        assert self._check_usability(fs, tree) == ([], False)
        type(self).audited += 1
        return super()._reuse_outcome(fs, outcome)


def audit_slice(mode, n_seq2=24):
    """Every seq-1 workload plus an evenly spread sample of seq-2."""
    total = ace.count(2, mode=mode)
    step = max(1, total // n_seq2)
    return list(ace.generate(1, mode=mode)) + [
        ace.workload_at(2, index, mode=mode) for index in range(0, total, step)
    ]


@pytest.mark.parametrize("bug_ids", [None, []], ids=["catalogue", "fixed"])
@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_every_hit_equals_a_real_walk_and_usability_pass(
    monkeypatch, fs, bug_ids
):
    monkeypatch.setattr(harness, "ConsistencyChecker", AuditingChecker)
    monkeypatch.setattr(AuditingChecker, "audited", 0)
    spec = CampaignSpec(fs=fs, seq=2, bug_ids=bug_ids)
    chipmunk = spec.build_chipmunk()
    # The recovery memo answers most states before they mount, which would
    # leave the cache little to audit; it has its own gate
    # (test_recovery_memo.py).
    chipmunk.recovery_memo = None
    hits = 0
    for workload in audit_slice(spec.mode):
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        hits += result.outcome_hits
    assert hits > 0
    assert AuditingChecker.audited == hits


# ---------------------------------------------------------------------------
# (c) The incremental key is the digest of the post-mount bytes
# ---------------------------------------------------------------------------
SIZE = 3 * CHUNK + 512  # several chunks, the last one partial
BASE = bytes(range(256)) * (SIZE // 256)


class ScribblingFS:
    """A 'file system' whose mount-time recovery is a list of raw writes."""

    name = "scribble"
    atomic_data_writes = True
    recovery_writes = ()

    @classmethod
    def mount(cls, device, bugs=None):
        for addr, data in cls.recovery_writes:
            device.write(addr, data)
        return cls()

    def walk(self):
        return {}


class KeyCheckingChecker(ConsistencyChecker):
    """Compares every key with a from-scratch digest of the device."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.keys = []

    def _outcome_key(self, device, image):
        key = super()._outcome_key(device, image)
        if key is not None:
            flat = bytearray(bytes(device.image))
            assert key == ChunkedDigest(flat).digest()
        self.keys.append(key)
        return key


def writes_anywhere(max_writes):
    return st.lists(
        st.tuples(
            st.integers(0, SIZE - 256),
            st.sampled_from([1, 8, 64, 256]),
            st.integers(0, 255),
        ).map(lambda w: (w[0], bytes([w[2]]) * w[1])),
        max_size=max_writes,
    )


@st.composite
def wide_logs(draw):
    """Random logs whose stores land in every chunk of the device."""
    log = PMLog()
    for index in range(draw(st.integers(1, 3))):
        log.syscall_begin(index, "write")
        for addr, data in draw(writes_anywhere(4)):
            log.nt_store(addr, data, "persist")
            if draw(st.booleans()):
                log.fence()
        log.fence()
        log.syscall_end()
    return log


def scribble_checker(log, recovery_writes, cls=KeyCheckingChecker):
    n = len(log.syscall_names())
    oracle = OracleResult(
        workload=[Op("write", ("/f", 0, 0, 0))] * n,
        states=[{} for _ in range(n + 1)],
        errnos=[None] * n,
    )
    fs_class = type("Scribble", (ScribblingFS,),
                    {"recovery_writes": tuple(recovery_writes)})
    return cls(fs_class, oracle, "w", outcome_cache=OutcomeCache())


class TestKeyIsThePostMountDigest:
    @settings(max_examples=40, deadline=None)
    @given(log=wide_logs(), recovery=writes_anywhere(3),
           streaming=st.booleans())
    def test_incremental_key_equals_full_digest(self, log, recovery,
                                                streaming):
        """``streaming`` checks each state while its region is current;
        otherwise enumeration finishes first, so every base but the last
        is stale and mounts through its restore patch."""
        checker = scribble_checker(log, recovery)
        states = enumerate_crash_states(BASE, log)
        if not streaming:
            states = list(states)
        n = 0
        for state in states:
            assert checker.check(state) == []
            n += 1
        assert len(checker.keys) == n
        assert None not in checker.keys
        assert checker.outcome_hits + checker.outcome_misses == n


# ---------------------------------------------------------------------------
# (d) Logs outside the device are rejected; flat states bypass the cache
# ---------------------------------------------------------------------------
def two_write_log(second_addr=128):
    """Syscall 0 stores at 64; syscall 1 stores one line at ``second_addr``."""
    log = PMLog()
    log.syscall_begin(0, "write")
    log.nt_store(64, b"\x02" * 8, "persist")
    log.fence()
    log.syscall_end()
    log.syscall_begin(1, "write")
    log.nt_store(second_addr, b"\x03" * 64, "persist")
    log.fence()
    log.syscall_end()
    return log


class TestBypass:
    def test_an_out_of_range_log_entry_raises(self):
        """Real logs stay inside the device (probes log only after the
        device bounds-checks the access), so a log entry past either end
        is bad input and is rejected rather than replayed."""
        for addr in (-64, SIZE - 32, SIZE):
            with pytest.raises(ValueError, match="outside"):
                list(enumerate_crash_states(BASE, two_write_log(addr)))

    def test_flat_images_bypass(self):
        log = two_write_log()
        checker = scribble_checker(log, [])
        state = next(iter(enumerate_crash_states(BASE, log)))
        flat = type(state)(**{**state.__dict__, "image": bytes(state.image)})
        assert checker.check(flat) == []
        assert checker.outcome_bypassed == 1
        assert checker.outcome_hits + checker.outcome_misses == 0

    def test_checker_without_a_cache_counts_nothing(self):
        log = two_write_log()
        checker = scribble_checker(log, [])
        checker.outcome_cache = None
        for state in enumerate_crash_states(BASE, log):
            checker.check(state)
        assert (checker.outcome_hits, checker.outcome_misses,
                checker.outcome_bypassed) == (0, 0, 0)


# ---------------------------------------------------------------------------
# What may enter the cache, and what it costs to keep
# ---------------------------------------------------------------------------
def file_obs(content):
    return FileObservation(FileType.REGULAR, len(content), 1, 0o644,
                           content, None)


class TestOnlyCleanOutcomesAreCached:
    def test_unusable_recovery_is_checked_in_full_every_time(self):
        """A state whose usability pass reports is never stored, so the
        byte-identical state after it reports again — nothing is elided."""

        class ReadOnlyFS(ScribblingFS):
            def walk(self):
                root = Stat(0, FileType.DIRECTORY, 0, 2, 0o755)
                return {"/": FileObservation.for_dir(root, [])}

            def creat(self, path, mode=0o644):
                raise ENOSPC("full")

        log = two_write_log()
        checker = scribble_checker(log, [])
        checker.fs_class = ReadOnlyFS
        root = ReadOnlyFS().walk()
        checker.oracle.states = [root for _ in checker.oracle.states]
        state = next(iter(enumerate_crash_states(BASE, log)))
        first = checker.check(state)
        second = checker.check(state)
        assert [r.consequence.name for r in first] == ["USABILITY"]
        assert [r.detail for r in second] == [r.detail for r in first]
        assert checker.outcome_hits == 0
        assert checker.outcome_cache.stats()["entries"] == 0


class TestMemoryDiscipline:
    def test_lru_bound_and_weak_interning(self):
        cache = OutcomeCache(max_entries=2)
        shared = b"x" * 4096
        for i in range(5):
            tree = {"/f": file_obs(bytes(shared)), "/g": file_obs(b"%d" % i)}
            cache.store(b"key%d" % i, tree, b"tree%d" % i)
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["evictions"] == 3
        # Evicted entries took their trees with them; the two survivors
        # share one observation for the identical 4 KiB content.
        assert stats["trees"] == 2
        assert stats["observations"] == 3
        a, b = cache.lookup(b"key3"), cache.lookup(b"key4")
        assert a.tree["/f"] is b.tree["/f"]
        assert cache.lookup(b"key0") is None

    def test_many_images_one_tree(self):
        cache = OutcomeCache()
        for i in range(10):
            cache.store(b"key%d" % i, {"/f": file_obs(b"same")}, b"tree")
        assert cache.stats()["trees"] == 1
        assert cache.lookup(b"key0") is cache.lookup(b"key9")

    def test_rebinding_to_another_scope_empties_the_cache(self):
        cache = OutcomeCache()
        cache.bind(("nova", frozenset({1}), True))
        cache.store(b"key", {"/f": file_obs(b"a")}, b"tree")
        cache.bind(("nova", frozenset({1}), True))
        assert cache.lookup(b"key") is not None
        cache.bind(("nova", frozenset(), True))
        assert cache.lookup(b"key") is None

    def test_chipmunk_rebinds_when_its_bug_set_changes(self):
        chipmunk = harness.Chipmunk("nova", bugs=BugConfig.fixed())
        workload = [Op("creat", ("/f",))]
        chipmunk.test_workload(workload)
        assert chipmunk.test_workload(workload).outcome_misses == 0
        chipmunk.bugs = BugConfig.buggy("nova")
        assert chipmunk.test_workload(workload).outcome_misses > 0
