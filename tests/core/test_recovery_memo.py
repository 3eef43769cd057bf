"""Read-trace recovery memo: the equivalence gate.

The memo lets the checker skip mount, ``walk()`` and the usability pass on
a crash state whose recovery would read only bytes an earlier check read
with the same values.  That is sound only if (1) the trie hits exactly when
the image agrees with a recording on the bytes it consumed, and (2) every
file system's whole check is a function of the bytes it reads (the purity
contract in ``repro.vfs.interface``).  (1) is a pair of hypothesis
properties over random access scripts; (2) is audited here for all seven
registry entries by a checker that, on every hit, still runs the real check
and demands the recorded answer.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reporting import CampaignSummary
from repro.campaign import CampaignSpec, CheckpointJournal
from repro.campaign.watch import CampaignMonitor
from repro.core import harness, recovery_memo
from repro.core.checker import ConsistencyChecker
from repro.core.oracle import run_oracle
from repro.core.recovery_memo import Recovery, RecoveryMemo
from repro.core.replayer import enumerate_crash_states
from repro.core.report import Consequence
from repro.fs.registry import FS_CLASSES
from repro.obs import Telemetry
from repro.obs.coverage import coverage_from_results
from repro.pm.device import PMDeviceError
from repro.workloads.ops import Op
from test_outcome_cache import audit_slice


# ---------------------------------------------------------------------------
# Whole-check audit across the registry
# ---------------------------------------------------------------------------
class AuditingChecker(ConsistencyChecker):
    """On every memo hit, run the check the hit is about to skip."""

    audited = 0

    def _reuse_recovery(self, state, device, recorded):
        cache, self.outcome_cache = self.outcome_cache, None
        try:
            fresh, complete = self._recover(device)
        finally:
            self.outcome_cache = cache
        assert complete, state.describe()
        assert fresh.tree == recorded.tree, state.describe()
        real = [(r.consequence, r.detail, r.paths)
                for r in self._judge(state, fresh)]
        reused = [(r.consequence, r.detail, r.paths)
                  for r in self._judge(state, recorded)]
        assert real == reused, state.describe()
        type(self).audited += 1
        return super()._reuse_recovery(state, device, recorded)


@pytest.mark.parametrize("bug_ids", [None, []], ids=["catalogue", "fixed"])
@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_every_hit_equals_a_real_check(monkeypatch, fs, bug_ids):
    monkeypatch.setattr(harness, "ConsistencyChecker", AuditingChecker)
    monkeypatch.setattr(AuditingChecker, "audited", 0)
    spec = CampaignSpec(fs=fs, seq=2, bug_ids=bug_ids)
    chipmunk = spec.build_chipmunk()
    hits = 0
    for workload in audit_slice(spec.mode):
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        hits += result.recovery_hits
    assert hits > 0
    assert AuditingChecker.audited == hits


# ---------------------------------------------------------------------------
# The trie against per-byte reference definitions
# ---------------------------------------------------------------------------
SIZE = 48

#: A two-letter alphabet makes agreeing bytes common.
images = st.lists(st.integers(0, 1), min_size=SIZE, max_size=SIZE).map(bytes)


@st.composite
def scripts(draw):
    """``(addr, +len)`` reads and ``(addr, -len)`` writes, in order."""
    out = []
    for _ in range(draw(st.integers(1, 10))):
        addr = draw(st.integers(0, SIZE - 1))
        length = draw(st.integers(0, min(20, SIZE - addr)))
        out.append((addr, length if draw(st.booleans()) else -length))
    return out


def inputs(script):
    """Bytes whose first access is a read: what the script consumed."""
    touched, consumed = set(), set()
    for addr, length in script:
        span = range(addr, addr + abs(length))
        if length > 0:
            consumed.update(p for p in span if p not in touched)
        touched.update(span)
    return consumed


class TestTrie:
    @settings(max_examples=300, deadline=None)
    @given(script=scripts(), recorded=st.lists(images, min_size=1, max_size=4),
           probe=images, looked=st.lists(st.booleans(), min_size=4,
                                         max_size=4))
    def test_hits_exactly_when_the_unmasked_bytes_agree(
        self, script, recorded, probe, looked
    ):
        """Recordings of one script share a trie; a probe hits the first
        recording it agrees with on every consumed byte, and only that.
        An insert continues where a lookup of the same image missed, and
        ignores a lookup of another image."""
        memo = RecoveryMemo()
        leaves = [Recovery(digest=b"%d" % i) for i in range(len(recorded))]
        for image, leaf, same in zip(recorded, leaves, looked):
            memo.lookup(image if same else probe)
            memo.insert(script, image, leaf)
        consumed = inputs(script)
        if not consumed:
            assert memo.nodes == 0  # nothing read: nothing to key on
            return
        agreeing = [
            leaf for image, leaf in zip(recorded, leaves)
            if all(probe[p] == image[p] for p in consumed)
        ]
        assert memo.lookup(probe) is (agreeing[0] if agreeing else None)
        for image in recorded:
            assert memo.lookup(image) is not None

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(images, min_size=1, max_size=12))
    def test_a_pure_computation_is_never_answered_wrongly(self, runs):
        """Many recordings of one deterministic, data-dependent program
        share a trie; every hit returns what the program computes."""

        def program(image):
            buf, trace, seen = bytearray(image), [], []
            addr = 0
            for _ in range(4):
                trace.append((addr, 3))
                value = bytes(buf[addr : addr + 3])
                seen.append(value)
                if value[0]:
                    trace.append((addr + 1, -2))
                    buf[addr + 1 : addr + 3] = b"\x01\x01"
                addr = (addr + 5 + 7 * value[1] + 11 * value[2]) % (SIZE - 3)
            return trace, tuple(seen)

        memo = RecoveryMemo()
        for image in runs:
            trace, seen = program(image)
            leaf = memo.lookup(image)
            if leaf is not None:
                assert leaf.tree == seen
            else:
                memo.insert(trace, image,
                            Recovery(tree=seen, digest=repr(seen).encode()))
                assert memo.lookup(image).tree == seen

    def test_an_impure_recording_is_not_stored(self):
        """Same bytes read, then other ranges read, or the recording ending
        where another runs on: not a function of its reads, so ignored."""
        memo = RecoveryMemo()
        image = bytes(SIZE)
        memo.insert([(0, 1), (8, 1)], image, Recovery(digest=b"a"))
        memo.insert([(0, 1), (16, 1)], image, Recovery(digest=b"b"))
        memo.insert([(0, 1)], image, Recovery(digest=b"c"))
        other = bytes([1]) + bytes(SIZE - 1)
        assert memo.lookup(other) is None
        memo.insert([(0, 1), (8, 1), (16, 1)], other, Recovery(digest=b"d"))
        assert memo.nodes == 4
        assert memo.lookup(image).digest == b"a"
        assert memo.lookup(other).digest == b"d"

    def test_long_keys_are_digests(self):
        memo = RecoveryMemo()
        image = bytes(range(40))
        memo.insert([(0, 40)], image, Recovery(digest=b"x"))
        (key,) = memo._root.edges
        assert len(key) == recovery_memo.KEY_BYTES
        assert memo.lookup(image) is not None
        assert memo.lookup(image[:39] + b"\xff") is None


class TestBudget:
    def test_overflow_clears_the_trie(self, monkeypatch):
        monkeypatch.setattr(recovery_memo, "MAX_NODES", 6)
        memo = RecoveryMemo()
        script = [(0, 1), (8, 1), (16, 1)]  # three keyed reads a path
        first = bytes([1]) + bytes(SIZE - 1)
        memo.insert(script, first, Recovery(digest=b"1"))
        assert (memo.nodes, memo.resets) == (3, 0)
        second = bytes([2]) + bytes(SIZE - 1)
        memo.insert(script, second, Recovery(digest=b"2"))
        assert (memo.nodes, memo.resets) == (5, 0)  # shares the first read
        third = bytes([3]) + bytes(SIZE - 1)
        memo.insert(script, third, Recovery(digest=b"3"))
        assert (memo.nodes, memo.resets) == (3, 1)
        assert memo.lookup(first) is None
        assert memo.lookup(third).digest == b"3"

    def test_resets_reach_the_result_and_every_surface(self, monkeypatch,
                                                        tmp_path):
        """Through the harness, each budget reset is counted on the
        ``TestResult`` of the workload whose insert cleared the trie, and
        the one result fold carries it to stats, report.md and coverage."""
        monkeypatch.setattr(recovery_memo, "MAX_NODES", 80)
        tel = Telemetry()
        chipmunk = harness.Chipmunk("nova", telemetry=tel)
        results = [chipmunk.test_workload(w) for w in WORKLOADS]
        resets = sum(r.recovery_resets for r in results)
        assert resets > 0
        assert resets == chipmunk.recovery_memo.resets
        events = [r["fields"] for r in tel.tracer.export()
                  if r["type"] == "event" and r["name"] == "workload_result"]
        assert sum(e["recovery_resets"] for e in events) == resets
        summary = CampaignSummary(fs_name="nova")
        for result in results:
            summary.add_dict(json.loads(json.dumps(result.to_dict())))
        assert summary.to_json_dict()["recovery_resets"] == resets
        assert dict(summary.counter_lines())["recovery memo"].endswith(
            f"; {resets} trie reset(s) at the node budget")
        report = coverage_from_results([r.to_dict() for r in results],
                                       fs="nova")
        assert report.to_json_dict()["recovery_resets"] == resets
        assert (f"its trie was reset {resets} time(s)"
                in report.render_markdown())
        journal = CheckpointJournal(str(tmp_path))
        journal.open()
        journal.write_meta({"fs": "nova"}, n_items=len(results))
        for i, result in enumerate(results):
            journal.write_item_done(f"ace:1:{i:06d}", i, 0, 0,
                                    [result.to_dict()])
        journal.close()
        monitor = CampaignMonitor(str(tmp_path))
        assert f", {resets} trie reset(s)" in monitor.render(
            monitor.snapshot())

    def test_a_path_longer_than_the_budget_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(recovery_memo, "MAX_NODES", 2)
        memo = RecoveryMemo()
        memo.insert([(0, 1), (8, 1), (16, 1)], bytes(SIZE), Recovery())
        assert (memo.nodes, memo.resets) == (0, 0)
        assert memo.lookup(bytes(SIZE)) is None

    def test_rebinding_to_another_scope_empties_the_trie(self):
        memo = RecoveryMemo()
        memo.bind(("nova", frozenset(), SIZE))
        memo.insert([(0, 4)], bytes(SIZE), Recovery())
        memo.bind(("nova", frozenset(), SIZE))
        assert memo.lookup(bytes(SIZE)) is not None
        memo.bind(("nova", frozenset({1}), SIZE))
        assert memo.lookup(bytes(SIZE)) is None


# ---------------------------------------------------------------------------
# Through the harness
# ---------------------------------------------------------------------------
#: The later workloads re-reach images the first one recovered.
WORKLOADS = [
    [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))],
    [Op("mkdir", ("/A",)), Op("creat", ("/A/f",)), Op("unlink", ("/A/f",))],
    [Op("mkdir", ("/A",)), Op("creat", ("/A/g",))],
]


class TestHarness:
    def test_counters_and_telemetry(self):
        tel = Telemetry()
        chipmunk = harness.Chipmunk("nova", telemetry=tel)
        results = [chipmunk.test_workload(w) for w in WORKLOADS]
        hits = sum(r.recovery_hits for r in results)
        misses = sum(r.recovery_misses for r in results)
        assert hits > 0 and misses > 0
        for r in results:
            assert r.recovery_hits + r.recovery_misses == r.n_unique_states
            # Only states that missed the memo mount.
            assert r.outcome_hits + r.outcome_misses == r.recovery_misses
        events = [r["fields"] for r in tel.tracer.export()
                  if r["type"] == "event" and r["name"] == "workload_result"]
        assert sum(e["recovery_hits"] for e in events) == hits
        assert sum(e["recovery_misses"] for e in events) == misses
        assert not any(r.recovery_resets for r in results)

    def test_detached_memo_mounts_every_state(self):
        chipmunk = harness.Chipmunk("nova")
        chipmunk.recovery_memo = None
        result = chipmunk.test_workload(WORKLOADS[0])
        assert (result.recovery_hits, result.recovery_misses) == (0, 0)
        assert result.outcome_hits + result.outcome_misses == (
            result.n_unique_states
        )

    def test_outcome_cache_hits_are_not_recorded(self):
        """A miss whose walk and usability the outcome cache skipped has
        an incomplete recording, so nothing is stored for it."""
        chipmunk = harness.Chipmunk("pmfs")  # undo-journal rollback converges
        memo = chipmunk.recovery_memo
        stored = []
        insert = memo.insert
        memo.insert = lambda *args: stored.append(1) or insert(*args)
        results = [chipmunk.test_workload(w) for w in WORKLOADS]
        assert sum(r.outcome_hits for r in results) > 0
        assert len(stored) == sum(r.outcome_misses for r in results)

    def test_a_crashing_mount_is_never_stored(self):
        chipmunk = harness.Chipmunk("nova")
        nova = chipmunk.fs_class

        class Crashing(nova):
            @classmethod
            def mount(cls, device, bugs=None):
                device.read(0, 8)
                raise PMDeviceError("boom")

        base, log, _ = chipmunk.record(WORKLOADS[0])
        oracle = run_oracle(nova, WORKLOADS[0], chipmunk.config.device_size,
                            bugs=chipmunk.bugs)
        memo = RecoveryMemo()
        checker = ConsistencyChecker(Crashing, oracle, "w", bugs=chipmunk.bugs,
                                     recovery_memo=memo)
        state = next(iter(enumerate_crash_states(base, log)))
        for _ in range(2):
            (report,) = checker.check(state)
            assert report.detail == "mount crashed: PMDeviceError: boom"
        assert (checker.recovery_hits, checker.recovery_misses) == (0, 2)
        assert memo.nodes == 0

    @pytest.mark.parametrize("arm", ["mount", "walk"])
    @pytest.mark.parametrize("exc", [ValueError, IndexError, RecursionError])
    def test_a_crash_outside_the_fs_errors_is_a_finding(self, arm, exc):
        """What a damaged image makes a mount or walk raise beyond
        ``MountError``/``FsError`` is a finding of the check, not an aborted
        workload, and the trie never remembers it."""
        chipmunk = harness.Chipmunk("nova")
        nova = chipmunk.fs_class

        class Crashing(nova):
            @classmethod
            def mount(cls, device, bugs=None):
                if arm == "mount":
                    device.read(0, 8)
                    raise exc("boom")
                return super().mount(device, bugs=bugs)

            def walk(self):
                raise exc("boom")

        base, log, oracle = chipmunk.record(WORKLOADS[0])
        memo = RecoveryMemo()
        checker = ConsistencyChecker(Crashing, oracle, "w", bugs=chipmunk.bugs,
                                     recovery_memo=memo)
        state = next(iter(enumerate_crash_states(base, log)))
        consequence = {"mount": Consequence.UNMOUNTABLE,
                       "walk": Consequence.UNREADABLE}[arm]
        for _ in range(2):
            (report,) = checker.check(state)
            assert report.consequence is consequence
            assert report.detail == f"{arm} crashed: {exc.__name__}: boom"
        assert (checker.recovery_hits, checker.recovery_misses) == (0, 2)
        assert memo.nodes == 0

    def test_counters_reach_every_surface(self):
        """The per-workload counts ride the one result fold into stats,
        report.md and coverage, and survive the journal round trip."""
        chipmunk = harness.Chipmunk("nova")
        results = [chipmunk.test_workload(w) for w in WORKLOADS]
        hits = sum(r.recovery_hits for r in results)
        back = [harness.TestResult.from_dict(json.loads(json.dumps(r.to_dict())))
                for r in results]
        assert [(r.recovery_hits, r.recovery_misses) for r in back] == [
            (r.recovery_hits, r.recovery_misses) for r in results
        ]
        summary = CampaignSummary(fs_name="nova")
        for result in back:
            summary.add_result(result)
        assert summary.to_json_dict()["recovery_hits"] == hits
        assert dict(summary.counter_lines())["recovery memo"].startswith(
            f"{hits} hit(s)"
        )
        report = coverage_from_results([r.to_dict() for r in results],
                                       fs="nova")
        assert report.to_json_dict()["recovery_hits"] == hits
        assert (f"recovery memo skipped mount, walk + usability on {hits} "
                f"state(s)") in report.render_markdown()
