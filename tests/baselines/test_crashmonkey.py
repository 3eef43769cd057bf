"""CrashMonkey-style baseline: crash points only between syscalls.

These tests encode Observation 5: bugs that need a crash *during* a syscall
are invisible to the baseline but found by Chipmunk.
"""

import pytest

from repro.analysis.bugdb import TRIGGERS
from repro.baselines.crashmonkey import CrashMonkeyStyleTester
from repro.core import Chipmunk, ChipmunkConfig
from repro.fs.bugs import BugConfig
from repro.workloads.ops import Op


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CrashMonkeyStyleTester("nova", policy="bogus")

    def test_caller_config_untouched(self):
        config = ChipmunkConfig(cap=1)
        tester = CrashMonkeyStyleTester("nova", policy="post", config=config)
        assert config.crash_points is None
        assert tester._chipmunk.config.crash_points == "post"
        assert tester._chipmunk.config.cap == 1

    def test_fsync_policy_checks_nothing_without_fsync(self):
        """On strong-guarantee FS workloads (no fsync), the real CrashMonkey
        policy has almost no crash points."""
        tester = CrashMonkeyStyleTester("nova", bugs=BugConfig.only(4), policy="fsync")
        workload = TRIGGERS[4][0]
        result = tester.test_workload(workload)
        assert not result.buggy
        assert result.n_crash_states <= 1  # only the final state


class TestObservation5:
    MID_SYSCALL_BUGS = [(4, "nova"), (5, "nova"), (13, "pmfs"), (22, "splitfs")]
    POST_SYSCALL_BUGS = [(14, "pmfs"), (21, "splitfs"), (24, "splitfs"), (2, "nova")]

    @pytest.mark.parametrize("bug_id,fs_name", MID_SYSCALL_BUGS)
    def test_baseline_misses_mid_syscall_bugs(self, bug_id, fs_name):
        tester = CrashMonkeyStyleTester(fs_name, bugs=BugConfig.only(bug_id), policy="post")
        assert all(
            not tester.test_workload(w).buggy for w in TRIGGERS[bug_id]
        )

    @pytest.mark.parametrize("bug_id,fs_name", MID_SYSCALL_BUGS)
    def test_chipmunk_finds_the_same_bugs(self, bug_id, fs_name):
        cm = Chipmunk(fs_name, bugs=BugConfig.only(bug_id))
        assert any(cm.test_workload(w).buggy for w in TRIGGERS[bug_id])

    @pytest.mark.parametrize("bug_id,fs_name", POST_SYSCALL_BUGS)
    def test_baseline_still_finds_synchrony_bugs(self, bug_id, fs_name):
        """Bugs visible in between-syscall states are found by both."""
        tester = CrashMonkeyStyleTester(fs_name, bugs=BugConfig.only(bug_id), policy="post")
        assert any(tester.test_workload(w).buggy for w in TRIGGERS[bug_id])


class TestCleanOnFixed:
    @pytest.mark.parametrize("policy", ["post", "fsync"])
    def test_no_false_positives(self, policy):
        tester = CrashMonkeyStyleTester("nova", bugs=BugConfig.fixed(), policy=policy)
        workload = [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))]
        assert not tester.test_workload(workload).buggy
