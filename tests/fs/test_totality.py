"""Totality of mount-time recovery on corrupt superblock geometry.

A torn or corrupt superblock can describe any geometry.  Whatever it says,
mounting the image and walking the tree must either succeed or fail inside
the checker's taxonomy — the exceptions ``ConsistencyChecker`` turns into
findings (``MountError`` / ``PMDeviceError`` / ``AllocatorError`` at mount,
``FsError`` at walk).  Anything else escapes the checker and fails the whole
workload.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fixed_fs
from repro.fs.common.alloc import AllocatorError
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice, PMDeviceError
from repro.vfs.errors import FsError
from repro.vfs.interface import MountError

TAXONOMY = (MountError, PMDeviceError, AllocatorError, FsError)

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
    try:
        FS_CLASSES()[fs_name].mount(device).walk()
    except TAXONOMY:
        pass
