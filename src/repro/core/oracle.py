"""Oracle state tracking (paper section 3.3, "Testing crash states").

The oracle is the whole-tree observation of the workload's file system
before every syscall and after the last one.  A crash during syscall *i*
must leave the tree at the syscall's *pre* or *post* state (atomicity); a
crash after it must match the *post* state exactly (synchrony).
Observations are cached per version, as in the paper ("Chipmunk caches the
metadata and contents for each oracle file version in memory").

:meth:`repro.core.harness.Chipmunk.record` observes the recording run
itself: it walks the probed instance between syscalls, and a walk only
reads, so the write log is what an unobserved run records.
:func:`run_oracle` builds the same result on a fresh, unprobed instance;
it is the reference the single-run oracle is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pm.device import PMDevice
from repro.vfs.interface import FileObservation, FileSystem
from repro.workloads.ops import Op, Workload, execute_op

TreeState = Dict[str, FileObservation]


@dataclass
class OracleResult:
    """Per-syscall legal states of a workload."""

    workload: List[Op]
    #: ``states[i]`` is the tree before syscall ``i``; ``states[len]`` is the
    #: final tree.
    states: List[TreeState] = field(default_factory=list)
    #: errno name per syscall (None = success).
    errnos: List[Optional[str]] = field(default_factory=list)

    def pre_state(self, syscall: int) -> TreeState:
        return self.states[syscall]

    def post_state(self, syscall: int) -> TreeState:
        return self.states[syscall + 1]

    @property
    def final_state(self) -> TreeState:
        return self.states[-1]

    def syscall_changed(self, syscall: int) -> bool:
        return self.pre_state(syscall) != self.post_state(syscall)


def run_oracle(
    fs_class,
    workload: Workload,
    device_size: int,
    bugs=None,
    setup: Workload = (),
) -> OracleResult:
    """Execute ``workload`` on a fresh instance, snapshotting around each op.

    This is the reference two-instance oracle; the pipeline takes its
    oracle from the recording run instead.  The oracle uses the same
    file-system configuration as the system under test (the oracle defines
    *expected* behaviour, including any behaviour the enabled bugs exhibit
    in the absence of a crash — the injected bugs are crash-only by
    construction).
    """
    device = PMDevice(device_size)
    fs: FileSystem = fs_class.mkfs(device, bugs=bugs)
    for op in setup:
        execute_op(fs, op)
    result = OracleResult(workload=list(workload))
    for op in workload:
        result.states.append(fs.walk())
        result.errnos.append(execute_op(fs, op))
    result.states.append(fs.walk())
    return result
