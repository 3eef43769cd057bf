"""Totality of recovery on damaged images.

A torn or corrupt superblock can describe any geometry, and a damaged
inode, log or bitmap byte any structure.  Whatever the image says,
mounting it, walking the tree and the checker's usability pass must either
succeed or fail inside the checker's taxonomy: ``MountError`` and
``FsError``, plus :data:`repro.core.checker.RECOVERY_CRASHES`, the
exceptions ``ConsistencyChecker`` turns into "mount/walk/usability crashed"
findings.  Anything else escapes the checker and fails the whole workload.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fixed_fs
from repro.core.checker import RECOVERY_CRASHES, ConsistencyChecker
from repro.core.oracle import OracleResult
from repro.core.report import Consequence
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.pm.image import CrashImage, fence_base
from repro.vfs.errors import FsError
from repro.vfs.interface import MountError

TAXONOMY = (MountError, FsError) + RECOVERY_CRASHES

#: Every superblock of the registry keeps its geometry in bytes 8..32:
#: a u64 device size then u32 fields (block size and per-FS counts).
FIELDS = [(8, 8), (16, 4), (20, 4), (24, 4), (28, 4)]


@lru_cache(maxsize=None)
def populated_image(fs_name):
    """A small synced tree: a directory, a file with data, a hard link."""
    fs = make_fixed_fs(fs_name)
    fs.mkdir("/A")
    fs.creat("/A/f")
    fs.write("/A/f", 0, b"x" * 700)
    fs.link("/A/f", "/g")
    fs.sync()
    return fs.device.snapshot()


def checker_for(fs_name):
    return ConsistencyChecker(FS_CLASSES()[fs_name], OracleResult(workload=[]),
                              "totality", bugs=BugConfig.fixed())


def recover(fs_name, device):
    """Mount, walk and run the usability pass; a failure in the taxonomy
    ends recovery early, anything else propagates."""
    try:
        fs = FS_CLASSES()[fs_name].mount(device)
        tree = fs.walk()
    except TAXONOMY:
        return
    # The usability pass turns everything in the taxonomy into findings.
    checker_for(fs_name)._check_usability(fs, tree)


@lru_cache(maxsize=None)
def read_bytes(fs_name):
    """Every byte address recovery of the populated image reads."""
    device = PMDevice.from_snapshot(populated_image(fs_name))
    with device.traced() as trace:
        recover(fs_name, device)
    return sorted({addr for start, length in trace if length > 0
                   for addr in range(start, start + length)})


@st.composite
def field_mutations(draw):
    offset, width = draw(st.sampled_from(FIELDS))
    value = draw(st.one_of(
        st.integers(0, 2 ** (8 * width) - 1),
        st.integers(0, 1 << 20),
    ))
    return offset, value.to_bytes(width, "little")


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
@settings(max_examples=150, deadline=None)
@given(mutation=field_mutations())
def test_mount_and_walk_stay_inside_the_taxonomy(fs_name, mutation):
    offset, value = mutation
    device = PMDevice.from_snapshot(populated_image(fs_name))
    device.write(offset, value)
    recover(fs_name, device)


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_read_bytes_stay_inside_the_taxonomy(fs_name, data):
    """1-8 random bytes among those recovery of the undamaged image reads."""
    addrs = read_bytes(fs_name)
    damage = data.draw(st.lists(
        st.tuples(st.sampled_from(addrs), st.integers(0, 255)),
        min_size=1, max_size=8,
    ))
    device = PMDevice.from_snapshot(populated_image(fs_name))
    for addr, value in damage:
        device.write(addr, bytes([value]))
    recover(fs_name, device)


#: One-byte damages, found by a seeded scan over the bytes mount, walk and
#: usability read, on which the image mounts and walks but ``creat`` or
#: ``unlink`` raises outside ``FsError``.
USABILITY_CRASHES = [
    ("ext4-dax", 28, 172, "AllocatorError"),
    ("pmfs", 2727, 14, "PMDeviceError"),
]


@pytest.mark.parametrize("fs_name,addr,value,exc_name", USABILITY_CRASHES,
                         ids=[case[0] for case in USABILITY_CRASHES])
def test_usability_crash_is_a_finding(fs_name, addr, value, exc_name):
    device = PMDevice.from_snapshot(populated_image(fs_name))
    device.write(addr, bytes([value]))
    recovery, complete = checker_for(fs_name)._recover(
        device, CrashImage(fence_base(device.snapshot()))
    )
    assert recovery.failure is None and recovery.tree
    crashes = [(consequence, detail) for consequence, detail, _ in
               recovery.findings if detail.startswith("usability crashed: ")]
    assert crashes
    assert all(consequence is Consequence.USABILITY
               for consequence, _ in crashes)
    assert any(detail.startswith(f"usability crashed: {exc_name}: ")
               for _, detail in crashes)
    # A crashed recovery is never remembered by the recovery memo.
    assert not complete
