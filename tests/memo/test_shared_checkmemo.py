"""CheckMemo's shared tier, exercised against in-memory fake backends.

The contract under test: *a shared hit can never mask a bug*.
Structurally that means (1) only clean states are published, and only an
explicit hit skips a check — any other answer leaves the local check path
untouched; (2) any backend misbehavior (exceptions, a dead client)
degrades to plain local memoization; (3) the shared key folds the
oracle's expectations, so byte-identical images judged against different
expectations never cross-hit.
"""

from dataclasses import dataclass

from conftest import hand_built_state
from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk
from repro.core.oracle import run_oracle
from repro.core.replayer import enumerate_crash_states
from repro.core.report import Consequence
from repro.fs.bugs import BugConfig
from repro.pm.device import PMDevice
from repro.workloads.ops import Op, run_workload


class FakeShared:
    """Set-backed stand-in for MemoClient (same ok/lookup/publish surface);
    ``answer`` forces every lookup's reply."""

    def __init__(self, answer=None, ok=True):
        self.table = set()
        self.ok = ok
        self.answer = answer
        self.lookups = 0
        self.publishes = 0

    def lookup(self, key):
        self.lookups += 1
        if self.answer is not None:
            return self.answer
        return key in self.table

    def publish(self, key):
        self.publishes += 1
        self.table.add(key)
        return True


class RaisingShared(FakeShared):
    """A backend whose every call blows up (server vanished mid-call)."""

    def lookup(self, key):
        raise ConnectionResetError("boom")

    def publish(self, key):
        raise ConnectionResetError("boom")


WORKLOAD = [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))]


def fresh_memo(cm, shared=None, bugs=None):
    """A CheckMemo over a fresh checker for WORKLOAD (one per 'workload')."""
    bugs = bugs if bugs is not None else cm.bugs
    oracle = run_oracle(cm.fs_class, WORKLOAD, cm.config.device_size, bugs=bugs)
    checker = ConsistencyChecker(cm.fs_class, oracle, "w", bugs=bugs)
    return CheckMemo(checker, shared=shared)


def run_states(cm, memo):
    """Check every crash state of WORKLOAD; returns the flat report list."""
    base, log, _ = cm.record(WORKLOAD)
    reports = []
    for state in enumerate_crash_states(base, log):
        found = memo.check(state)
        if found:
            reports.extend(found)
    return reports


class TestCleanSharedHits:
    def test_second_workload_skips_clean_states(self):
        """Workload two, sharing workload one's table, shared-hits every
        clean state workload one published — and reports nothing less."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        shared = FakeShared()
        first = fresh_memo(cm, shared=shared)
        baseline = run_states(cm, first)
        assert first.shared_hits == 0  # cold service: nothing to hit
        assert shared.publishes == first.misses  # fixed FS: all clean

        second = fresh_memo(cm, shared=shared)
        again = run_states(cm, second)
        assert again == baseline == []
        assert second.shared_hits > 0
        assert second.shared_hits + second.misses + (
            second.hits - second.shared_hits
        ) == first.hits + first.misses
        # Shared hits are hits, and they seed the local table too.
        assert second.hits >= second.shared_hits

    def test_only_clean_verdicts_are_published(self):
        """A buggy run publishes only its clean states to the service: a
        buggy state is re-checked by every workload that reaches it, so
        shipping it would be pure table growth."""
        cm = Chipmunk("nova")  # default bug config: states will be buggy
        shared = FakeShared()
        memo = fresh_memo(cm, shared=shared)
        clean = []
        check = memo.checker.check

        def recording_check(state):
            reports = check(state)
            clean.append(not reports)
            return reports

        memo.checker.check = recording_check
        reports = run_states(cm, memo)
        assert reports  # the point of the default config
        assert 0 < sum(clean) < len(clean)
        assert shared.publishes == sum(clean)


class TestBuggyNeverSkips:
    def test_a_non_hit_answer_changes_nothing(self):
        """A backend answering anything but ``True`` (here a truthy string)
        must not perturb the check path: reports match a shared-less run
        exactly."""
        cm = Chipmunk("nova")
        reference = run_states(cm, fresh_memo(cm, shared=None))
        shared = FakeShared(answer="buggy")
        memo = fresh_memo(cm, shared=shared)
        assert run_states(cm, memo) == reference
        assert memo.shared_hits == 0
        assert shared.lookups > 0  # the tier was consulted, not bypassed

    def test_forced_clean_verdict_only_skips(self):
        """The dual: a table claiming everything is clean suppresses all
        reports — which is exactly why CheckMemo only trusts a hit when
        key equality *proves* it (covered by the campaign equivalence
        tests); here it pins the skip semantics."""
        cm = Chipmunk("nova")
        memo = fresh_memo(cm, shared=FakeShared(answer=True))
        assert run_states(cm, memo) == []
        assert memo.misses == 0
        # Every hit is shared or served by the local entry a shared hit
        # seeded; nothing was ever actually checked.
        assert memo.shared_hits > 0
        assert memo.hits >= memo.shared_hits


class TestDegradation:
    def test_raising_backend_degrades_to_local(self):
        cm = Chipmunk("nova")
        reference = run_states(cm, fresh_memo(cm, shared=None))
        memo = fresh_memo(cm, shared=RaisingShared())
        assert run_states(cm, memo) == reference
        assert memo.shared_errors > 0
        assert memo.shared_hits == 0

    def test_dead_client_is_never_consulted(self):
        cm = Chipmunk("nova")
        shared = FakeShared(ok=False)
        memo = fresh_memo(cm, shared=shared)
        run_states(cm, memo)
        assert shared.lookups == 0
        assert shared.publishes == 0
        assert memo.shared_errors == 0


class TestContextSeparation:
    @dataclass(frozen=True)
    class S:
        syscall: object = None
        mid_syscall: bool = False
        after_syscall: int = -1

    def _checker(self, cm, workload):
        oracle = run_oracle(
            cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
        )
        return ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)

    def test_different_expectations_different_digest(self):
        """creat and mkdir leave different post-op trees: a byte-identical
        crash image checked after syscall 0 must not cross-hit between
        those workloads."""
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        b = self._checker(cm, [Op("mkdir", ("/A",))])
        post0 = self.S(after_syscall=0)
        assert a.context_digest(post0) != b.context_digest(post0)

    def test_identical_expectations_identical_digest(self):
        """Two independent checkers over the same workload agree — the
        digest is a pure function of fs/bugs/expectations, which is what
        makes shared keys portable across workers and hosts."""
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        b = self._checker(cm, [Op("creat", ("/A",))])
        for state in (
            self.S(),  # pre-workload image
            self.S(after_syscall=0),
            self.S(syscall=0, mid_syscall=True),
        ):
            assert a.context_digest(state) == b.context_digest(state)

    def test_mid_and_post_contexts_separate(self):
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        assert a.context_digest(self.S(syscall=0, mid_syscall=True)) != \
            a.context_digest(self.S(after_syscall=0))

    def test_bug_config_folds_into_digest(self):
        cm_buggy = Chipmunk("nova")
        cm_fixed = Chipmunk("nova", bugs=BugConfig.fixed())
        a = self._checker(cm_buggy, [Op("creat", ("/A",))])
        b = self._checker(cm_fixed, [Op("creat", ("/A",))])
        assert a.context_digest(self.S()) != b.context_digest(self.S())


class TestDeepContentSeparation:
    """Regression: ``_tree_digest`` used to hash ``describe()``, which
    previews only the first 32 content bytes — two oracles differing past
    byte 32 shared a context digest, hence a shared-memo key."""

    #: Same file, same size, same first 40 bytes; the tails differ.
    SAME_TAIL = [Op("creat", ("/foo",)), Op("write", ("/foo", 0, 65, 64)),
                 Op("write", ("/foo", 40, 65, 24))]
    OTHER_TAIL = SAME_TAIL[:2] + [Op("write", ("/foo", 40, 66, 24))]

    def _checker(self, cm, workload):
        oracle = run_oracle(
            cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
        )
        return ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)

    def _final_state_of(self, cm, workload):
        device = PMDevice(cm.config.device_size)
        run_workload(cm.fs_class.mkfs(device, bugs=cm.bugs), workload)
        return hand_built_state(device.snapshot(), after_syscall=2)

    def test_oracles_differing_at_byte_40_have_different_digests(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        a = self._checker(cm, self.SAME_TAIL)
        b = self._checker(cm, self.OTHER_TAIL)
        tree_a, tree_b = a.oracle.final_state, b.oracle.final_state
        assert tree_a["/foo"].content[:40] == tree_b["/foo"].content[:40]
        assert tree_a != tree_b
        assert a._tree_digest(tree_a) != b._tree_digest(tree_b)
        state = self._final_state_of(cm, self.SAME_TAIL)
        assert a.context_digest(state) != b.context_digest(state)

    def test_clean_entry_of_one_is_not_a_hit_for_the_other(self):
        """The image holding the first workload's file is clean for that
        workload and a lost write for the second; the first's clean entry
        must not mask it."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        shared = FakeShared()
        state = self._final_state_of(cm, self.SAME_TAIL)
        first = CheckMemo(self._checker(cm, self.SAME_TAIL), shared=shared)
        assert first.check(state) == []
        assert len(shared.table) == 1
        second = CheckMemo(self._checker(cm, self.OTHER_TAIL), shared=shared)
        reports = second.check(state)
        assert second.shared_hits == 0
        assert [r.consequence for r in reports] == [Consequence.SYNCHRONY]
