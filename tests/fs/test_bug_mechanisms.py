"""Direct crash-semantics tests of representative bug mechanisms.

The detection-matrix tests (tests/core/test_bug_detection.py) assert that
Chipmunk *reports* every bug; these tests pin down the precise inconsistent
state each mechanism produces, by replaying specific subsets by hand.
"""

import pytest

from repro.core.harness import Chipmunk
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.fs.registry import fs_class
from repro.pm.device import PMDevice
from repro.vfs.errors import FsError
from repro.vfs.interface import MountError
from repro.workloads.ops import Op


def crash_states(fs_name, bugs, workload, cap=2):
    cm = Chipmunk(fs_name, bugs=bugs)
    base, log, oracle = cm.record(workload)
    assert all(e is None for e in oracle.errnos), oracle.errnos
    return [
        (s, PMDevice.from_snapshot(s.image))
        for s in enumerate_crash_states(base, log, cap=cap)
    ]


class TestBug4FileDisappears:
    def test_exists_a_state_with_neither_name(self):
        states = crash_states(
            "nova",
            BugConfig.only(4),
            [Op("mkdir", ("/A",)), Op("creat", ("/foo",)), Op("rename", ("/foo", "/A/bar"))],
        )
        cls = fs_class("nova")
        vanished = False
        for state, device in states:
            fs = cls.mount(device, bugs=BugConfig.only(4))
            if not fs.exists("/foo") and not fs.exists("/A/bar") and state.mid_syscall:
                vanished = True
        assert vanished

    def test_fixed_never_loses_both_names(self):
        states = crash_states(
            "nova",
            BugConfig.fixed(),
            [Op("mkdir", ("/A",)), Op("creat", ("/foo",)), Op("rename", ("/foo", "/A/bar"))],
        )
        cls = fs_class("nova")
        for state, device in states:
            if state.after_syscall < 1:
                continue  # /foo does not exist before its creat completes
            fs = cls.mount(device, bugs=BugConfig.fixed())
            assert fs.exists("/foo") or fs.exists("/A/bar"), state.describe()


class TestBug5BothNames:
    def test_exists_a_state_with_both_names(self):
        states = crash_states(
            "nova",
            BugConfig.only(5),
            [Op("creat", ("/foo",)), Op("rename", ("/foo", "/bar"))],
        )
        cls = fs_class("nova")
        assert any(
            cls.mount(d, bugs=BugConfig.only(5)).exists("/foo")
            and cls.mount(d, bugs=BugConfig.only(5)).exists("/bar")
            for _, d in states
        )


class TestBug2DanglingDentry:
    def test_name_present_but_unreadable(self):
        states = crash_states("nova", BugConfig.only(2), [Op("creat", ("/foo",))])
        cls = fs_class("nova")
        final_fs = cls.mount(states[-1][1], bugs=BugConfig.only(2))
        assert "foo" in final_fs.readdir("/")
        with pytest.raises(FsError):
            final_fs.stat("/foo")
        with pytest.raises(FsError):
            final_fs.unlink("/foo")


class TestBug14UnsynchronousWrite:
    def test_final_state_missing_data(self):
        states = crash_states(
            "pmfs",
            BugConfig.only(14),
            [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))],
        )
        cls = fs_class("pmfs")
        # The post-workload state: size published but data never fenced.
        post = [s for s, _ in states if not s.mid_syscall and s.after_syscall == 1]
        assert post
        fs = cls.mount(PMDevice.from_snapshot(post[0].image), bugs=BugConfig.only(14))
        assert fs.stat("/f").size == 512
        assert fs.read("/f", 0, 4) == b"\x00" * 4  # data lost

    def test_fixed_final_state_has_data(self):
        states = crash_states(
            "pmfs",
            BugConfig.fixed(),
            [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))],
        )
        cls = fs_class("pmfs")
        fs = cls.mount(states[-1][1], bugs=BugConfig.fixed())
        assert fs.read("/f", 0, 4) == b"\x41" * 4


class TestBug13UnmountableTruncate:
    def test_mid_truncate_state_unmountable(self):
        states = crash_states(
            "pmfs",
            BugConfig.only(13),
            [
                Op("creat", ("/f",)),
                Op("write", ("/f", 0, 0x41, 1000)),
                Op("truncate", ("/f", 100)),
            ],
        )
        cls = fs_class("pmfs")
        failures = 0
        for state, device in states:
            try:
                cls.mount(device, bugs=BugConfig.only(13))
            except MountError as exc:
                failures += 1
                assert "NULL pointer" in str(exc)
        assert failures > 0


class TestBug22PublishBeforeStage:
    def test_committed_entry_with_garbage_data(self):
        states = crash_states(
            "splitfs",
            BugConfig.only(22),
            [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))],
        )
        cls = fs_class("splitfs")
        lost = False
        for state, device in states:
            if not state.mid_syscall:
                continue
            fs = cls.mount(device, bugs=BugConfig.only(22))
            if fs.exists("/f") and fs.stat("/f").size == 512:
                if fs.read("/f", 0, 8) != b"\x41" * 8:
                    lost = True
        assert lost


class TestBug9StaleChecksum:
    def test_post_unlink_parent_unreadable(self):
        states = crash_states(
            "nova-fortis",
            BugConfig.only(9),
            [Op("creat", ("/f",)), Op("unlink", ("/f",))],
        )
        cls = fs_class("nova-fortis")
        unreadable = 0
        for state, device in states:
            fs = cls.mount(device, bugs=BugConfig.only(9))
            try:
                fs.readdir("/")
            except FsError:
                unreadable += 1
        assert unreadable > 0
