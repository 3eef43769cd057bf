"""Real layout maps for splitfs and ext4-dax — golden-pinned timelines.

Same regime as ``test_timeline.py``: recording is deterministic, so the
layout-annotated timelines are byte-stable and pinned under
``tests/forensics/golden/``.  Regenerate with::

    REGEN_GOLDENS=1 python -m pytest tests/forensics/test_layout_maps.py
"""

import os

import pytest

from repro.core.harness import Chipmunk
from repro.core.replayer import enumerate_crash_states
from repro.forensics.provenance import capture_provenance
from repro.forensics.timeline import render_timeline
from repro.fs.ext4dax.fs import Ext4DaxFS
from repro.fs.splitfs.fs import SplitFS
from repro.pm.device import PMDevice
from repro.workloads import ace
from repro.workloads.ops import Op

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def assert_matches_golden(name: str, text: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REGEN_GOLDENS"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert text == golden, f"{name} drifted from its golden; see module docstring"


def fresh_layout(fs_class, device_size):
    device = PMDevice(device_size)
    fs_class.mkfs(device)
    return fs_class.layout_map(device.snapshot())


class TestSplitfsLayoutMap:
    def test_regions_cover_both_components(self):
        layout = fresh_layout(SplitFS, 256 * 1024)
        names = [r.name for r in layout.regions]
        assert names[:3] == ["superblock", "oplog", "staging"]
        assert "kernel.superblock" in names
        assert "kernel.journal" in names
        assert "kernel.data" in names

    def test_oplog_entries_are_slotted(self):
        layout = fresh_layout(SplitFS, 256 * 1024)
        oplog = next(r for r in layout.regions if r.name == "oplog")
        # Second op-log entry, a few bytes in.
        addr = oplog.region.offset + oplog.slot_size + 8
        assert layout.locate(addr) == "oplog[1]+0x8"
        assert layout.region_of(addr) == "oplog"

    def test_corrupt_superblock_falls_back(self):
        layout = SplitFS.layout_map(b"\x00" * 4096)
        assert [r.name for r in layout.regions] == ["device"]

    def test_torn_kernel_superblock_keeps_usplit_regions(self):
        device = PMDevice(256 * 1024)
        fs = SplitFS.mkfs(device)
        image = bytearray(device.snapshot())
        korigin = fs.geom.kernel_origin
        image[korigin : korigin + 8] = b"\x00" * 8  # tear K-Split's sb only
        layout = SplitFS.layout_map(bytes(image))
        names = [r.name for r in layout.regions]
        assert names == ["superblock", "oplog", "staging", "kernel"]

    def test_timeline_matches_golden(self):
        w = ace.workload_at(2, 1)  # creat('/foo'); creat('/bar')
        result = Chipmunk("splitfs").test_workload(w.core, setup=w.setup)
        report = next(r for r in result.reports if r.provenance.dropped())
        prov = report.provenance
        layout = fresh_layout(SplitFS, prov.config.device_size)
        culprits = [e.seq for e in prov.dropped()][:1]
        text = render_timeline(prov, layout, culprits)
        assert "oplog[" in text
        assert_matches_golden("timeline_splitfs_seq2.txt", text + "\n")


class TestExt4DaxLayoutMap:
    def test_region_names_and_slots(self):
        layout = fresh_layout(Ext4DaxFS, 256 * 1024)
        names = [r.name for r in layout.regions]
        assert names == [
            "superblock", "journal", "inode_table", "xattr_area",
            "bitmap", "data",
        ]
        inode_table = next(
            r for r in layout.regions if r.name == "inode_table"
        )
        addr = inode_table.region.offset + 64 + 4
        assert layout.locate(addr) == "inode_table[1]+0x4"

    def test_regions_tile_the_device(self):
        layout = fresh_layout(Ext4DaxFS, 256 * 1024)
        cursor = 0
        for named in layout.regions:
            assert named.region.offset == cursor
            cursor = named.region.end
        assert cursor == 256 * 1024

    def test_corrupt_superblock_falls_back(self):
        layout = Ext4DaxFS.layout_map(b"\xff" * 4096)
        assert [r.name for r in layout.regions] == ["device"]

    def test_timeline_matches_golden(self):
        # ext4-DAX has no crash-consistency bugs (the paper found none), so
        # no checker report carries provenance; capture the lineage of a
        # post-fsync crash state directly from the recorded log.
        workload = [
            Op("creat", ("/foo",)),
            Op("write", ("/foo", 0, 65, 64)),
            Op("fsync", ("/foo",)),
        ]
        chip = Chipmunk("ext4-dax")
        base, log, oracle = chip.record(workload)
        assert oracle.errnos == [None, None, None]
        states = list(enumerate_crash_states(base, log, cap=2))
        state = next(
            s for s in states
            if s.kind == "subset" and s.replayed_entries
        )
        prov = capture_provenance(
            log, state, fs_name="ext4-dax", workload=workload
        )
        layout = Ext4DaxFS.layout_map(base)
        text = render_timeline(prov, layout)
        assert "journal" in text
        assert_matches_golden("timeline_ext4dax_fsync.txt", text + "\n")
