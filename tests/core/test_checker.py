"""Consistency checker semantics on hand-crafted crash states."""

import pytest

from conftest import TEST_DEVICE_SIZE, hand_built_state
from repro.core.checker import ConsistencyChecker
from repro.core.oracle import run_oracle
from repro.core.report import Consequence
from repro.fs.bugs import BugConfig
from repro.fs.registry import fs_class
from repro.pm.device import PMDevice
from repro.workloads.ops import Op, execute_op

NOVA = fs_class("nova")
PMFS = fs_class("pmfs")
FIXED = BugConfig.fixed()


def build(fs_cls, workload, upto=None):
    """Run ``workload[:upto]`` on a fresh instance, return its image."""
    device = PMDevice(TEST_DEVICE_SIZE)
    fs = fs_cls.mkfs(device, bugs=FIXED)
    for op in (workload if upto is None else workload[:upto]):
        execute_op(fs, op)
    return device.snapshot()


def checker_for(fs_cls, workload):
    oracle = run_oracle(fs_cls, workload, TEST_DEVICE_SIZE, bugs=FIXED)
    return ConsistencyChecker(fs_cls, oracle, "test-workload", bugs=FIXED)


def state(image, syscall=None, name=None, mid=False, after=-1, n=0):
    return hand_built_state(
        image, syscall=syscall, syscall_name=name, mid_syscall=mid,
        after_syscall=after, n_replayed=n,
    )


WORKLOAD = [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))]


class TestMountCheck:
    def test_unmountable_image_reported(self):
        checker = checker_for(NOVA, WORKLOAD)
        garbage = b"\xff" * TEST_DEVICE_SIZE
        reports = checker.check(state(garbage))
        assert len(reports) == 1
        assert reports[0].consequence is Consequence.UNMOUNTABLE


class TestSynchrony:
    def test_post_state_matching_oracle_is_clean(self):
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD, upto=1)
        assert checker.check(state(image, after=0)) == []

    def test_lost_syscall_reported(self):
        """A post-syscall state still showing the pre-state violates
        synchrony."""
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD, upto=0)  # /f never created
        reports = checker.check(state(image, after=0))
        assert reports
        assert reports[0].consequence is Consequence.SYNCHRONY

    def test_final_state_checked(self):
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD)
        assert checker.check(state(image, after=1)) == []


class TestAtomicity:
    def test_pre_state_accepted_mid_syscall(self):
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD, upto=1)
        assert checker.check(state(image, syscall=1, name="write", mid=True, after=0)) == []

    def test_post_state_accepted_mid_syscall(self):
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD, upto=2)
        assert checker.check(state(image, syscall=1, name="write", mid=True, after=0)) == []

    def test_intermediate_state_rejected_for_atomic_fs(self):
        """NOVA writes are atomic: a half-written file is a violation."""
        checker = checker_for(NOVA, WORKLOAD)
        half = [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 256))]
        image = build(NOVA, half)
        reports = checker.check(state(image, syscall=1, name="write", mid=True, after=0))
        assert reports
        assert reports[0].consequence in (Consequence.ATOMICITY, Consequence.DATA_LOSS)

    def test_torn_write_allowed_for_non_atomic_fs(self):
        """PMFS write is not atomic: torn *content* inside the envelope
        passes (metadata is journaled, so the size is old or new)."""
        workload = [
            Op("creat", ("/f",)),
            Op("write", ("/f", 0, 0x41, 512)),
            Op("write", ("/f", 0, 0x42, 512)),
        ]
        checker = checker_for(PMFS, workload)
        torn = [
            Op("creat", ("/f",)),
            Op("write", ("/f", 0, 0x41, 512)),
            Op("write", ("/f", 0, 0x42, 256)),  # only half the new data hit PM
        ]
        image = build(PMFS, torn)
        assert checker.check(state(image, syscall=2, name="write", mid=True, after=1)) == []

    def test_torn_size_rejected_even_for_non_atomic_fs(self):
        """The file size is journaled on PMFS: a torn size is a violation."""
        checker = checker_for(PMFS, WORKLOAD)
        half = [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 256))]
        image = build(PMFS, half)
        reports = checker.check(state(image, syscall=1, name="write", mid=True, after=0))
        assert reports

    def test_torn_rename_rejected_even_for_non_atomic_fs(self):
        """The write envelope applies only to data ops, never rename."""
        workload = [Op("creat", ("/f",)), Op("rename", ("/f", "/g"))]
        checker = checker_for(PMFS, workload)
        # State with *neither* name: created then unlinked.
        other = [Op("creat", ("/f",)), Op("unlink", ("/f",))]
        image = build(PMFS, other)
        reports = checker.check(state(image, syscall=1, name="rename", mid=True, after=0))
        assert reports
        assert reports[0].consequence is Consequence.ATOMICITY
        assert "rename atomicity broken" in reports[0].detail

    def test_failed_syscall_must_not_mutate(self):
        workload = [Op("creat", ("/f",)), Op("creat", ("/f",))]
        checker = checker_for(NOVA, workload)
        image = build(NOVA, workload, upto=1)
        assert checker.check(state(image, syscall=1, name="creat", mid=True, after=0)) == []

    def test_rename_old_still_present_classified(self):
        workload = [Op("creat", ("/f",)), Op("rename", ("/f", "/g"))]
        checker = checker_for(NOVA, workload)
        both = [Op("creat", ("/f",)), Op("link", ("/f", "/g"))]
        image = build(NOVA, both)
        reports = checker.check(state(image, syscall=1, name="rename", mid=True, after=0))
        assert reports
        assert "still present" in reports[0].detail


class TestUsability:
    def test_clean_state_usable(self):
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD)
        reports = checker.check(state(image, after=1))
        assert reports == []

    def test_usability_check_mutations_do_not_leak(self):
        """Checking the same image twice gives identical results (fresh
        device copy per check — the undo-log equivalent)."""
        checker = checker_for(NOVA, WORKLOAD)
        image = build(NOVA, WORKLOAD)
        first = checker.check(state(image, after=1))
        second = checker.check(state(image, after=1))
        assert first == second == []


class TestWeakMode:
    def test_weak_fs_checked_against_post_state(self):
        EXT4 = fs_class("ext4-dax")
        workload = [Op("creat", ("/f",)), Op("fsync", ("/f",))]
        oracle = run_oracle(EXT4, workload, TEST_DEVICE_SIZE, bugs=FIXED)
        checker = ConsistencyChecker(EXT4, oracle, "w", bugs=FIXED)
        image = build(EXT4, workload)
        assert checker.check(state(image, after=1)) == []

    def test_failed_sync_sets_no_synchrony_expectation(self):
        """A sync call that failed promises nothing on a weak-guarantee
        file system: the crash right after it is not held to its post-state
        (the unlink before it was never synced)."""
        EXT4 = fs_class("ext4-dax")
        workload = [Op("creat", ("/f",)), Op("fsync", ("/f",)),
                    Op("unlink", ("/f",)), Op("fsync", ("/f",))]
        oracle = run_oracle(EXT4, workload, TEST_DEVICE_SIZE, bugs=FIXED)
        assert oracle.errnos[3] is not None
        checker = ConsistencyChecker(EXT4, oracle, "w", bugs=FIXED)
        image = build(EXT4, workload, upto=2)  # /f synced, unlink not yet
        assert checker.check(state(image, after=3)) == []
        # Only the synchrony expectation is waived: mount findings stand,
        # and the same image is still judged after the unlink itself.
        garbage = b"\xff" * TEST_DEVICE_SIZE
        (report,) = checker.check(state(garbage, after=3))
        assert report.consequence is Consequence.UNMOUNTABLE
        (report,) = checker.check(state(image, after=2))
        assert report.consequence is Consequence.SYNCHRONY
        # The shared memo key tells the two contexts apart.
        assert checker.context_digest(state(image, after=3)) != (
            checker.context_digest(state(image, after=2))
        )

    def test_failed_sync_on_a_strong_fs_keeps_its_expectation(self):
        workload = [Op("creat", ("/f",)), Op("unlink", ("/f",)),
                    Op("fsync", ("/f",))]
        checker = checker_for(NOVA, workload)
        image = build(NOVA, workload, upto=1)
        (report,) = checker.check(state(image, after=2))
        assert report.consequence is Consequence.SYNCHRONY

    def test_ext4dax_failed_fsync_is_not_a_synchrony_report(self):
        """The false positive the ext4-DAX benchmark slice recorded:
        unlink, link, then an fsync of the unlinked name (ENOENT)."""
        from repro.campaign import CampaignSpec
        from repro.workloads import ace

        workload = ace.workload_at(2, 1677, mode="fsync")
        assert [op.name for op in workload.core] == [
            "unlink", "link", "fsync", "sync"
        ]
        chipmunk = CampaignSpec(fs="ext4-dax", seq=2).build_chipmunk()
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        assert result.errnos[2] is not None
        assert result.reports == []
