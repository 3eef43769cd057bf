"""The oracle comes from the recording run, and observing it changes nothing.

``Chipmunk.record`` walks the probed instance before every syscall and after
the last one and returns those trees as the workload's oracle.  Two
properties make that one run a valid replacement for the reference
two-instance oracle (``run_oracle``, a fresh unprobed instance):

* the trees and errnos equal ``run_oracle``'s;
* the base image and write log equal those of a recording that never walks,
  built by hand (``single_run_oracle_driver.unobserved_recording``) — a
  walk only reads.

A walk that does append to the log is a harness error, not a finding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from single_run_oracle_driver import mismatch
from repro.core.harness import Chipmunk
from repro.fs.bugs import BugConfig
from repro.fs.nova import NovaFS
from repro.fs.registry import FS_CLASSES
from repro.vfs.interface import FileSystem
from repro.workloads import ace
from repro.workloads.ops import Op

#: The ACE seq-1 core ops plus the fsync-family calls of its fsync mode.
OP_SPACE = (
    ace.core_op_space()
    + [Op("fsync", (path,)) for path in ace.FILES + ace.DIRS]
    + [Op("sync", ())]
)

BUG_SETS = {"catalogue": None, "fixed": BugConfig.fixed()}


@pytest.mark.parametrize("bugs", sorted(BUG_SETS))
@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
@settings(max_examples=25, deadline=None)
@given(core=st.lists(st.sampled_from(OP_SPACE), min_size=1, max_size=4))
def test_single_run_equals_the_reference_and_logs_alike(fs_name, bugs, core):
    chipmunk = Chipmunk(fs_name, bugs=BUG_SETS[bugs])
    assert mismatch(chipmunk, core, ace.build_setup(core)) == ""


class WritingStatNova(NovaFS):
    """A NOVA whose ``stat`` makes a probed store, walked by path."""

    _walk_into = FileSystem._walk_into

    def stat(self, path):
        self.ops.memcpy_to_pmem_nocache(0, self.device.read(0, 8))
        return super().stat(path)


class TestWalkGuard:
    def test_a_walk_that_logs_makes_record_raise(self):
        chipmunk = Chipmunk(WritingStatNova, bugs=BugConfig.fixed())
        with pytest.raises(RuntimeError, match="oracle walk appended"):
            chipmunk.record([Op("creat", ("/f",))])

    def test_the_pipeline_does_not_turn_it_into_a_finding(self):
        chipmunk = Chipmunk(WritingStatNova, bugs=BugConfig.fixed())
        with pytest.raises(RuntimeError, match="oracle walk appended"):
            chipmunk.test_workload([Op("creat", ("/f",))])
