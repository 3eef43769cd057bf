"""PMFS internals: undo journal, truncate list, bitmap, recovery ordering."""

import pytest

from repro.fs.bugs import BugConfig
from repro.fs.pmfs import layout as L
from repro.fs.pmfs.fs import ROOT_INO, PmfsFS
from repro.fs.winefs.fs import WineFS
from repro.pm.device import PMDevice
from repro.vfs.interface import MountError


def make_pmfs(bugs=None):
    return PmfsFS.mkfs(PMDevice(256 * 1024), bugs=bugs or BugConfig.fixed())


class TestLayout:
    def test_superblock_roundtrip(self):
        geom = L.PmfsGeometry(device_size=128 * 1024, n_cpus=2)
        assert L.unpack_superblock(L.pack_superblock(geom)) == geom

    def test_inode_slot_roundtrip(self):
        slot = L.unpack_inode_slot(
            L.pack_inode_slot(L.FTYPE_REG, 0o644, 2, 1000, [5, 6, 0, 7])
        )
        assert slot.valid and slot.nlink == 2 and slot.size == 1000
        assert slot.mapped() == [(0, 5), (1, 6), (3, 7)]

    def test_dentry_roundtrip(self):
        d = L.unpack_dentry(L.pack_dentry(9, "name"))
        assert d.valid and d.ino == 9 and d.name == "name"

    def test_journal_record_roundtrip(self):
        rec = L.pack_journal_record(1234, b"before-image")
        from repro.fs.common.layout import read_u16, read_u64

        assert read_u64(rec, L.REC_ADDR) == 1234
        assert read_u16(rec, L.REC_LEN) == 12
        assert rec[L.REC_MAGIC] == L.RECORD_MAGIC
        assert rec[L.REC_DATA : L.REC_DATA + 12] == b"before-image"

    def test_record_size_limit(self):
        with pytest.raises(ValueError):
            L.pack_journal_record(0, b"x" * 65)

    def test_regions_disjoint(self):
        geom = L.PmfsGeometry()
        regions = [
            geom.superblock,
            geom.journal_area(0),
            geom.truncate_list,
            geom.inode_table,
            geom.bitmap,
        ]
        for a, b in zip(regions, regions[1:]):
            assert a.end <= b.offset


class TestUndoJournal:
    def test_rollback_of_active_tx(self):
        """An active journal at mount rolls the interrupted update back."""
        fs = make_pmfs()
        fs.creat("/f")
        # Begin a transaction over the dentry and mutate it, then "crash"
        # without tx_end.
        parent = fs._read_slot(ROOT_INO)
        dentry_addr, dentry = fs._dir_lookup(parent, "f")
        fs._tx_begin(0, [(dentry_addr, L.DENTRY_SIZE)])
        fs._flush_write(dentry_addr, b"\x00")
        fs._fence()
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted.exists("/f")  # rollback restored the dentry

    def test_completed_tx_not_rolled_back(self):
        fs = make_pmfs()
        fs.creat("/f")
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted.exists("/f")

    def test_oversized_tx_rejected(self):
        fs = make_pmfs()
        from repro.vfs.errors import ENOSPC

        ranges = [(i * 64, 8) for i in range(fs.geom.journal_records_per_area + 1)]
        with pytest.raises(ENOSPC):
            fs._tx_begin(0, ranges)


class TestTruncateList:
    def test_interrupted_free_completed_at_mount(self):
        """A valid truncate-list entry at mount finishes the block freeing."""
        fs = make_pmfs()
        fs.creat("/f")
        fs.write("/f", 0, b"x" * 1536)  # 3 blocks
        ino, slot = fs._file_slot("/f")
        # Simulate the committed-but-unfinished truncate: size set, list
        # entry persisted, crash before freeing.
        index = fs._find_free_truncate_entry()
        fs._tx_begin(
            0,
            [
                (fs.geom.inode_addr(ino), L.INODE_SLOT_SIZE),
                (fs._truncate_entry_addr(index), L.TL_ENTRY_SIZE),
            ],
        )
        from repro.fs.common.layout import u64

        fs._flush_write(fs.geom.inode_addr(ino) + L.INO_SIZE, u64(512))
        fs._flush_write(fs._truncate_entry_addr(index), L.pack_truncate_entry(ino, 512))
        fs._fence()
        fs._tx_end(0)
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted.stat("/f").size == 512
        new_slot = mounted._read_slot(ino)
        assert new_slot.mapped() == [(0, slot.ptrs[0])]
        # List entry cleared after replay.
        assert mounted.ops.read_pm(mounted._truncate_entry_addr(index), 1) == b"\x00"

    def test_stale_entry_for_invalid_inode_skipped(self):
        fs = make_pmfs()
        fs.creat("/f")
        index = fs._find_free_truncate_entry()
        fs._flush_write(fs._truncate_entry_addr(index), L.pack_truncate_entry(30, 0))
        fs._fence()
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted.exists("/f")


class TestBitmap:
    def test_metadata_blocks_marked(self):
        fs = make_pmfs()
        for block in range(fs.geom.first_data_block):
            assert fs._bitmap_get(block)

    def test_alloc_reflected_after_remount(self):
        fs = make_pmfs()
        fs.creat("/f")
        fs.write("/f", 0, b"x" * 1024)
        free = fs._free_blocks.free_count
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted._free_blocks.free_count == free

    def test_free_reflected_after_remount(self):
        fs = make_pmfs()
        fs.creat("/f")
        fs.write("/f", 0, b"x" * 1024)
        fs.unlink("/f")
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted._free_blocks.free_count == fs._free_blocks.free_count


class TestDirectoryGrowth:
    def test_directory_extends_past_one_block(self):
        fs = make_pmfs()
        per_block = fs.geom.block_size // L.DENTRY_SIZE
        for i in range(per_block + 2):
            fs.creat(f"/f{i}")
        assert len(fs.readdir("/")) == per_block + 2
        assert fs.stat("/").size == 2 * fs.geom.block_size
        mounted = PmfsFS.mount(fs.device, bugs=BugConfig.fixed())
        assert mounted.walk() == fs.walk()

    def test_dentry_slot_reused_after_unlink(self):
        fs = make_pmfs()
        fs.creat("/a")
        fs.unlink("/a")
        fs.creat("/b")
        assert fs.stat("/").size == fs.geom.block_size


class TestMaxFileSize:
    def test_efbig_on_oversized_write(self):
        fs = make_pmfs()
        fs.creat("/f")
        from repro.vfs.errors import EFBIG

        with pytest.raises(EFBIG):
            fs.write("/f", 0, b"x" * (fs.geom.max_file_size + 1))

    def test_full_size_file_works(self):
        fs = make_pmfs()
        fs.creat("/f")
        fs.write("/f", 0, b"m" * fs.geom.max_file_size)
        assert fs.stat("/f").size == fs.geom.max_file_size


class TestCorruptGeometry:
    """A torn superblock can describe any geometry; recovery indexes the
    one-block bitmap by block number, so one the bitmap or the device cannot
    hold used to escape as ``IndexError`` (``ZeroDivisionError`` for a zero
    block size, ``ValueError`` from ``block_addr`` for a shrunken device)
    instead of failing the mount.  WineFS shares the mount path."""

    #: name -> (superblock offset, little-endian replacement, message)
    MUTATIONS = {
        "block-size-1": (16, (1).to_bytes(4, "little"), "corrupt superblock geometry"),
        "block-size-64": (16, (64).to_bytes(4, "little"), "corrupt superblock geometry"),
        "block-size-0": (16, (0).to_bytes(4, "little"), "block_size must be positive"),
        "device-size-0": (8, (0).to_bytes(8, "little"), "corrupt superblock geometry"),
        "device-size-x64": (8, (64 * 256 * 1024).to_bytes(8, "little"),
                            "corrupt superblock geometry"),
        "inode-blocks-huge": (20, (1 << 20).to_bytes(4, "little"),
                              "corrupt superblock geometry"),
    }

    def _mutated(self, cls, mutation):
        fs = cls.mkfs(PMDevice(256 * 1024), bugs=BugConfig.fixed())
        fs.creat("/f")
        offset, value, _ = self.MUTATIONS[mutation]
        fs.device.write(offset, value)
        return fs.device

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("cls", [PmfsFS, WineFS])
    def test_mount_fails_inside_the_taxonomy(self, cls, mutation):
        with pytest.raises(MountError, match=self.MUTATIONS[mutation][2]):
            cls.mount(self._mutated(cls, mutation), bugs=BugConfig.fixed())

    @pytest.mark.parametrize("cls", [PmfsFS, WineFS])
    def test_checker_reports_unmountable_not_an_exception(self, cls):
        from repro.core.checker import ConsistencyChecker
        from repro.core.oracle import run_oracle
        from conftest import hand_built_state
        from repro.core.report import Consequence
        from repro.workloads.ops import Op

        workload = [Op("creat", ("/f",))]
        oracle = run_oracle(cls, workload, 256 * 1024, bugs=BugConfig.fixed())
        checker = ConsistencyChecker(cls, oracle, "w", bugs=BugConfig.fixed())
        state = hand_built_state(
            self._mutated(cls, "block-size-1").snapshot(), after_syscall=1
        )
        reports = checker.check(state)
        assert [r.consequence for r in reports] == [Consequence.UNMOUNTABLE]
        assert "corrupt superblock geometry" in reports[0].detail
