"""Walk by handle equals walk by path, on every image a check can meet.

The ext4-DAX, NOVA and PMFS families override ``FileSystem._walk_into`` to
read each directory and inode once instead of resolving every path from the
root (SplitFS delegates to its ext4-DAX kernel file system, XFS-DAX,
NOVA-Fortis and WineFS inherit).  The generic path walk stays as the
reference: on each image both must return the same ``(path, observation)``
items in the same order, or raise the same exception class with the same
text — a walk failure's text is a report detail in ``bugs.json``.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fixed_fs
from test_totality import TAXONOMY, field_mutations, populated_image
from repro.campaign import CampaignSpec
from repro.core.checker import ConsistencyChecker
from repro.core.recovery_memo import RecoveryMemo
from repro.core.replayer import enumerate_crash_states
from repro.core.report import Consequence
from repro.fs.bugs import BugConfig
from repro.fs.nova import NovaFS
from repro.fs.pmfs import PmfsFS
from repro.fs.pmfs import layout as pmfs_layout
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.pm.image import CrashImage
from repro.vfs.interface import FileSystem
from repro.workloads import ace
from repro.workloads.ops import Op

#: Seq-2 workloads whose crash states are compared, per registry entry.
N_SEQ2 = 40


def outcome(walk):
    """``("items", [...])`` or ``("raised", class, text)`` of one walk."""
    out = {}
    try:
        walk(out)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("items", list(out.items()))


def both_walks(fs):
    """``(by handle, by path)`` outcomes on one mounted instance."""
    fast = outcome(lambda out: fs._walk_into("/", out))
    reference = outcome(lambda out: FileSystem._walk_into(fs, "/", out))
    return fast, reference


def crash_images(fs_name):
    """Every fence-point crash image of the catalogue's ACE seq-2 slice."""
    spec = CampaignSpec(fs=fs_name, seq=2)
    chipmunk = spec.build_chipmunk()
    for workload in itertools.islice(ace.generate(2, mode=spec.mode), N_SEQ2):
        base, log, _ = chipmunk.record(workload.core, setup=workload.setup)
        for state in enumerate_crash_states(base, log, crash_points="fence"):
            yield state.image


@lru_cache(maxsize=None)
def walk_inputs(fs_name):
    """Every device address mounting and walking the populated image reads."""
    device = PMDevice.from_snapshot(populated_image(fs_name))
    with device.traced() as trace:
        FS_CLASSES()[fs_name].mount(device).walk()
    return sorted({
        addr + i for addr, length in trace if length > 0 for i in range(length)
    })


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
def test_every_crash_state_walks_alike(fs_name):
    cls = FS_CLASSES()[fs_name]
    bugs = BugConfig.buggy(fs_name)
    walked = raised = 0
    for image in crash_images(fs_name):
        try:
            fs = cls.mount(PMDevice.from_snapshot(image), bugs=bugs)
        except TAXONOMY:
            continue
        fast, reference = both_walks(fs)
        assert fast == reference
        walked += 1
        raised += fast[0] == "raised"
    assert walked > 0
    if fs_name in ("nova", "nova-fortis"):
        # The NOVA catalogue leaves dangling dentries: the comparison must
        # have covered walks that fail, not only clean trees.
        assert raised > 0


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
@settings(max_examples=60, deadline=None)
@given(mutation=field_mutations())
def test_corrupt_superblocks_walk_alike(fs_name, mutation):
    offset, value = mutation
    device = PMDevice.from_snapshot(populated_image(fs_name))
    device.write(offset, value)
    try:
        fs = FS_CLASSES()[fs_name].mount(device)
    except TAXONOMY:
        return
    fast, reference = both_walks(fs)
    assert fast == reference


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
@settings(max_examples=60, deadline=None)
@given(flips=st.lists(
    st.tuples(st.integers(0, 1 << 30), st.integers(0, 255)),
    min_size=1, max_size=8,
))
def test_corrupt_walk_inputs_walk_alike(fs_name, flips):
    """Damage to the bytes recovery and the walk read: names holding ``/``
    or nothing, dangling or duplicated entries, wild types and pointers."""
    inputs = walk_inputs(fs_name)
    image = bytearray(populated_image(fs_name))
    for pick, value in flips:
        image[inputs[pick % len(inputs)]] = value
    try:
        fs = FS_CLASSES()[fs_name].mount(PMDevice.from_snapshot(bytes(image)))
    except TAXONOMY:
        return
    fast, reference = both_walks(fs)
    assert fast == reference


# ----------------------------------------------------------------------
# Targeted damage: the cases random damage rarely reaches
# ----------------------------------------------------------------------
def mounted_tree(fs_name):
    """A synced tree with a nested directory and two distinct files, as
    recovery rebuilds it from the image."""
    fs = make_fixed_fs(fs_name)
    fs.mkdir("/A")
    fs.creat("/A/f")
    fs.write("/A/f", 0, b"f" * 700)
    fs.creat("/A/g")
    fs.write("/A/g", 0, b"g" * 300)
    fs.mkdir("/A/B")
    fs.creat("/A/B/h")
    fs.sync()
    return FS_CLASSES()[fs_name].mount(PMDevice.from_snapshot(fs.device.snapshot()))


def rename_entry(fs, parent, old, new):
    """Make ``parent``'s entry ``old`` read as ``new``, as a torn name would.

    PMFS reads dentries from PM on every lookup, so its dentry is rewritten
    on the device; the DRAM families rename the key of their child map.
    """
    fs = getattr(fs, "kfs", None) or fs
    if isinstance(fs, PmfsFS):
        _, slot = fs._lookup(parent)
        for addr, dentry in fs._dir_entries(slot):
            if dentry.valid and dentry.name == old:
                fs.device.write(addr, pmfs_layout.pack_dentry(dentry.ino, new))
                return
        raise AssertionError(f"no entry {old!r} in {parent}")
    if isinstance(fs, NovaFS):
        kids = fs._resolve(parent).children
    else:
        kids = fs.children[fs._resolve(parent).ino]
    kids[new] = kids.pop(old)


def set_ftype(fs, path, ftype):
    fs = getattr(fs, "kfs", None) or fs
    if isinstance(fs, PmfsFS):
        ino, _ = fs._lookup(path)
        fs.device.write(fs.geom.inode_addr(ino) + pmfs_layout.INO_FTYPE, bytes([ftype]))
    else:
        fs._resolve(path).ftype = ftype


@pytest.mark.parametrize("fs_name", sorted(FS_CLASSES()))
class TestTargetedDamage:
    @pytest.mark.parametrize("name", [".", "..", "x/y", "B/h", "B//h", "f"])
    def test_entry_names_that_are_not_one_component(self, fs_name, name):
        """``B/h`` resolves, by path, to another object than the entry's;
        ``f`` duplicates a name (PMFS keeps both dentries, and the first
        valid one wins)."""
        fs = mounted_tree(fs_name)
        rename_entry(fs, "/A", "g", name)
        fast, reference = both_walks(fs)
        assert fast == reference

    @pytest.mark.parametrize("ftype", [0, 7, 255])
    def test_a_file_of_unknown_type(self, fs_name, ftype):
        fs = mounted_tree(fs_name)
        set_ftype(fs, "/A/f", ftype)
        fast, reference = both_walks(fs)
        assert fast == reference
        assert fast[0] == "raised"

    def test_a_damaged_data_block(self, fs_name):
        """NOVA-Fortis verifies data checksums on read, so must the walk."""
        fs = mounted_tree(fs_name)
        kfs = getattr(fs, "kfs", None) or fs
        if isinstance(kfs, NovaFS):
            block = kfs._resolve("/A/f").blockmap[0]
        elif isinstance(kfs, PmfsFS):
            block = kfs._lookup("/A/f")[1].ptrs[0]
        else:
            block = kfs._resolve("/A/f").ptrs[0]
        addr = kfs.geom.block_addr(block)
        kfs.device.write(addr, b"X")
        fast, reference = both_walks(fs)
        assert fast == reference
        if fs_name == "nova-fortis":
            assert fast[0] == "raised" and "checksum" in fast[2]


@pytest.mark.parametrize("fs_name, crash", [
    pytest.param("ext4-dax", "PMDeviceError", id="ext4-dax"),
    pytest.param("splitfs", "PMDeviceError", id="splitfs"),
    pytest.param("pmfs", "ValueError", id="pmfs"),
])
def test_a_walk_that_crashes_is_a_finding(fs_name, crash):
    """The scan's damage that recovery never reads: a file's first block
    pointer far past the device.  Mount succeeds, the walk's read raises
    (ext4-DAX and SplitFS read past the device, ``PMDeviceError``; PMFS
    rejects the block number, ``ValueError``, the walk crash the random
    damage of ``test_corrupt_walk_inputs_walk_alike`` meets most often on
    PMFS); the check reports it as UNREADABLE instead of aborting the
    workload, and the recovery memo never stores it."""
    spec = CampaignSpec(fs=fs_name, bug_ids=[])
    chipmunk = spec.build_chipmunk()
    # sync checkpoints SplitFS's journal, so its replay cannot undo the
    # damage below.
    workload = [Op("creat", ("/f",)), Op("write", ("/f", 0, 120, 700)),
                Op("sync", ())]
    base, log, oracle = chipmunk.record(workload)
    state = list(enumerate_crash_states(base, log, crash_points="fsync"))[-1]
    fs = chipmunk.fs_class.mount(PMDevice.from_snapshot(bytes(state.image)))
    kfs = getattr(fs, "kfs", None) or fs
    if isinstance(kfs, PmfsFS):
        ino = kfs._lookup("/f")[0]
    else:
        ino = kfs._resolve("/f").ino
    ptr = kfs.geom.inode_addr(ino) + 16
    damaged = dataclasses.replace(state, image=CrashImage(
        state.image.base, state.image.writes + ((ptr, b"\xff\xff\xff\x7f"),)))
    memo = RecoveryMemo()
    checker = ConsistencyChecker(chipmunk.fs_class, oracle, "w",
                                 bugs=chipmunk.bugs, recovery_memo=memo)
    for _ in range(2):
        (report,) = checker.check(damaged)
        assert report.consequence is Consequence.UNREADABLE
        assert report.detail.startswith(f"walk crashed: {crash}: ")
    assert (checker.recovery_hits, checker.recovery_misses) == (0, 2)
    assert memo.nodes == 0
