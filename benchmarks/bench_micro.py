"""Micro-benchmarks of the testing machinery itself.

Not a paper table — these keep the harness honest: how fast is one
record/replay/check pipeline, a mount, a crash-state enumeration?  Useful
for spotting performance regressions in the reproduction itself (the paper
makes the same point about Chipmunk being fast enough for developer use).
"""

import pytest

from repro.core import Chipmunk, ChipmunkConfig
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.workloads.ops import Op

WORKLOAD = [
    Op("mkdir", ("/A",)),
    Op("creat", ("/A/f",)),
    Op("write", ("/A/f", 0, 0x41, 1024)),
    Op("rename", ("/A/f", "/g")),
    Op("truncate", ("/g", 100)),
]


@pytest.mark.parametrize("fs_name", ["nova", "pmfs", "winefs", "splitfs"])
def test_bench_full_pipeline(benchmark, fs_name):
    """One complete Chipmunk test of a 5-op workload."""
    cm = Chipmunk(fs_name, bugs=BugConfig.fixed())
    result = benchmark(cm.test_workload, WORKLOAD)
    assert not result.buggy


@pytest.mark.parametrize("fs_name", ["nova", "nova-fortis", "pmfs", "ext4-dax"])
def test_bench_mount(benchmark, fs_name):
    """Mount-time recovery on a populated image."""
    cls = FS_CLASSES()[fs_name]
    device = PMDevice(256 * 1024)
    fs = cls.mkfs(device, bugs=BugConfig.fixed())
    for i in range(10):
        fs.creat(f"/f{i}")
        fs.write(f"/f{i}", 0, bytes([i]) * 512)
    fs.sync()
    snapshot = device.snapshot()

    def mount():
        return cls.mount(PMDevice.from_snapshot(snapshot), bugs=BugConfig.fixed())

    mounted = benchmark(mount)
    assert len(mounted.readdir("/")) == 10


def test_bench_record(benchmark):
    """Probe-instrumented workload execution."""
    cm = Chipmunk("nova", bugs=BugConfig.fixed())
    base, log, oracle = benchmark(cm.record, WORKLOAD)
    assert oracle.errnos == [None] * len(WORKLOAD)
    assert len(log) > 0


def test_bench_enumeration(benchmark):
    """Crash-state construction from a recorded log."""
    cm = Chipmunk("nova", bugs=BugConfig.fixed())
    base, log, _ = cm.record(WORKLOAD)

    def enumerate_all():
        return sum(1 for _ in enumerate_crash_states(base, log, cap=2))

    count = benchmark(enumerate_all)
    assert count > 10


def test_bench_fs_write_throughput(benchmark):
    """Raw simulated-FS write path (no probes).

    A fresh instance per round: NOVA's per-inode log grows with every write
    and this reproduction performs no log garbage collection, so reusing one
    instance across thousands of rounds would exhaust the device.
    """
    cls = FS_CLASSES()["nova"]
    data = bytes(range(256)) * 4

    def make_fs():
        fs = cls.mkfs(PMDevice(1024 * 1024), bugs=BugConfig.fixed())
        fs.creat("/f")
        return (fs,), {}

    def write_loop(fs):
        for offset in range(0, 8192, 1024):
            fs.write("/f", offset, data)

    benchmark.pedantic(write_loop, setup=make_fs, rounds=25)
