"""CrashMonkey-style baseline tester.

CrashMonkey (Mohan et al.) tests traditional file systems by recording
block-layer writes and injecting crashes **only after fsync-related
syscalls** — "they do not test what happens when you crash in the middle of
a system call" (paper section 1).  The real tool cannot intercept PM stores
at all; this baseline gives it the benefit of Chipmunk's PM write log and
keeps only its *crash-point policy*, so experiments isolate exactly the
strategy difference Observation 5 is about: 11 of the 23 bugs require a
crash during a syscall and are invisible to a between-syscalls policy.

Two policies are provided:

* ``"fsync"`` — crash states only after fsync/fdatasync/sync (CrashMonkey's
  actual behaviour; on PM file systems, whose workloads contain no fsync,
  this checks almost nothing);
* ``"post"`` — crash states after *every* syscall but never during one (a
  generous upgrade of CrashMonkey to synchronous-FS semantics; still misses
  every mid-syscall bug).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Type, Union

from repro.core.harness import Chipmunk, ChipmunkConfig, TestResult
from repro.fs.bugs import BugConfig
from repro.vfs.interface import FileSystem
from repro.workloads.ops import Workload


class CrashMonkeyStyleTester:
    """Chipmunk pipeline restricted to CrashMonkey's crash-point policy."""

    def __init__(
        self,
        fs: Union[str, Type[FileSystem]],
        bugs: Optional[BugConfig] = None,
        policy: str = "post",
        config: Optional[ChipmunkConfig] = None,
    ) -> None:
        if policy not in ("fsync", "post"):
            raise ValueError(f"unknown CrashMonkey policy {policy!r}")
        config = replace(config or ChipmunkConfig(), crash_points=policy)
        self.policy = policy
        self._chipmunk = Chipmunk(fs, bugs=bugs, config=config)

    @property
    def fs_class(self) -> Type[FileSystem]:
        return self._chipmunk.fs_class

    def test_workload(self, workload: Workload, setup: Workload = ()) -> TestResult:
        """Test one workload under the restricted crash-point policy."""
        return self._chipmunk.test_workload(workload, setup=setup)
