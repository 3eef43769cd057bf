"""ext4-DAX / XFS-DAX: weak guarantees, journal commit, xattrs, origin."""

import pytest

from repro.fs.bugs import BugConfig
from repro.fs.ext4dax.fs import Ext4DaxFS, Ext4DaxGeometry, XfsDaxFS
from repro.pm.device import PMDevice
from repro.vfs.errors import EINVAL, ENOENT


def make_dax(cls=Ext4DaxFS):
    return cls.mkfs(PMDevice(256 * 1024), bugs=BugConfig.fixed())


class TestWeakGuarantees:
    def test_unsynced_data_lost_on_remount(self):
        fs = make_dax()
        fs.creat("/f")
        fs.sync()
        fs.write("/f", 0, b"volatile")
        mounted = Ext4DaxFS.mount(fs.device)
        # The write sat in the page cache; it never reached PM.
        assert mounted.stat("/f").size == 0

    def test_unsynced_creat_lost_on_remount(self):
        fs = make_dax()
        fs.sync()
        fs.creat("/ghost")
        mounted = Ext4DaxFS.mount(fs.device)
        assert not mounted.exists("/ghost")

    def test_fsync_persists_everything_dirty(self):
        fs = make_dax()
        fs.creat("/f")
        fs.creat("/g")
        fs.write("/g", 0, b"both persisted")
        fs.fsync("/f")  # global ordered-mode commit
        mounted = Ext4DaxFS.mount(fs.device)
        assert mounted.read_all("/g") == b"both persisted"

    def test_fsync_missing_file_rejected(self):
        fs = make_dax()
        with pytest.raises(ENOENT):
            fs.fsync("/missing")

    def test_strong_guarantees_flag(self):
        assert Ext4DaxFS.strong_guarantees is False
        assert XfsDaxFS.strong_guarantees is False


class TestJournalCommit:
    def test_journal_cleared_after_commit(self):
        fs = make_dax()
        fs.creat("/f")
        fs.sync()
        assert fs.ops.read_pm(fs.geom.journal.offset, 1) == b"\x00"

    def test_committed_journal_replayed(self):
        """A journal with the commit flag set but no checkpoint is redone."""
        fs = make_dax()
        fs.creat("/f")
        fs.sync()
        # Re-commit with a mutated inode table but skip the checkpoint by
        # crafting the image: write records + commit flag manually.
        import repro.fs.ext4dax.fs as E

        records = fs._serialize_metadata()
        snapshot = fs.device.snapshot()
        device = PMDevice.from_snapshot(snapshot)
        ops = Ext4DaxFS.ops_class(device)
        pos = fs.geom.journal.offset + E.JOURNAL_HEADER
        from repro.fs.common.layout import u16, u32, u64

        addr, data = records[-1][0], records[-1][1][:64]
        rec = u64(addr) + u16(len(data)) + b"\x00" * 6 + data
        rec += b"\x00" * ((-len(rec)) % 16)
        ops.dax_memcpy_nt(pos, rec)
        header = bytearray(8)
        header[E.JH_COMMIT] = 1
        header[E.JH_NRECORDS : E.JH_NRECORDS + 4] = u32(1)
        ops.dax_memcpy_nt(fs.geom.journal.offset, bytes(header))
        mounted = Ext4DaxFS.mount(device)
        assert mounted.ops.read_pm(fs.geom.journal.offset, 1) == b"\x00"

    def test_large_commit_batched(self):
        fs = make_dax()
        for i in range(10):
            fs.creat(f"/f{i}")
            fs.write(f"/f{i}", 0, bytes([i]) * 512)
        fs.sync()
        mounted = Ext4DaxFS.mount(fs.device)
        assert mounted.walk() == fs.walk()


class TestXattrs:
    def test_set_get_roundtrip(self):
        fs = make_dax()
        fs.creat("/f")
        fs.setxattr("/f", "user.key", b"value")
        assert fs.getxattr("/f", "user.key") == b"value"
        assert fs.listxattr("/f") == ["user.key"]

    def test_persisted_across_remount(self):
        fs = make_dax()
        fs.creat("/f")
        fs.setxattr("/f", "user.key", b"value")
        fs.sync()
        mounted = Ext4DaxFS.mount(fs.device)
        assert mounted.getxattr("/f", "user.key") == b"value"

    def test_removexattr(self):
        fs = make_dax()
        fs.creat("/f")
        fs.setxattr("/f", "user.key", b"v")
        fs.removexattr("/f", "user.key")
        with pytest.raises(ENOENT):
            fs.getxattr("/f", "user.key")

    def test_remove_missing_rejected(self):
        fs = make_dax()
        fs.creat("/f")
        with pytest.raises(ENOENT):
            fs.removexattr("/f", "user.nope")

    def test_oversized_value_rejected(self):
        fs = make_dax()
        fs.creat("/f")
        with pytest.raises(EINVAL):
            fs.setxattr("/f", "user.k", b"x" * 100)

    def test_strong_fs_reject_xattrs(self):
        from conftest import make_fixed_fs

        fs = make_fixed_fs("nova")
        fs.creat("/f")
        with pytest.raises(EINVAL):
            fs.setxattr("/f", "user.k", b"v")


class TestOrigin:
    def test_embedded_instance_stays_in_region(self):
        device = PMDevice(256 * 1024)
        origin = 64 * 1024
        geom = Ext4DaxGeometry(device_size=device.size - origin, origin=origin)
        fs = Ext4DaxFS.mkfs(device, geometry=geom, bugs=BugConfig.fixed())
        fs.creat("/f")
        fs.write("/f", 0, b"contained")
        fs.sync()
        assert device.read(0, origin) == b"\x00" * origin
        mounted = Ext4DaxFS.mount(device, origin=origin)
        assert mounted.read_all("/f") == b"contained"

    def test_geometry_must_fit_device(self):
        device = PMDevice(64 * 1024)
        geom = Ext4DaxGeometry(device_size=64 * 1024, origin=1024)
        with pytest.raises(ValueError):
            Ext4DaxFS.mkfs(device, geometry=geom)


class TestXfsVariant:
    def test_name_and_bigger_journal(self):
        assert XfsDaxFS.name == "xfs-dax"
        fs = make_dax(XfsDaxFS)
        assert fs.geom.journal_blocks == 24

    def test_basic_operation(self):
        fs = make_dax(XfsDaxFS)
        fs.creat("/f")
        fs.write("/f", 0, b"xfs data")
        fs.sync()
        mounted = XfsDaxFS.mount(fs.device)
        assert mounted.read_all("/f") == b"xfs data"


class TestCorruptGeometry:
    """A torn superblock can describe any geometry; recovery indexes the
    one-block bitmap by block number, so one the bitmap cannot cover used to
    escape as ``IndexError`` (``ZeroDivisionError`` for a zero block size)
    instead of failing the mount."""

    #: (superblock offset, little-endian replacement)
    MUTATIONS = {
        "block-size-64": (16, (64).to_bytes(4, "little")),
        "block-size-0": (16, (0).to_bytes(4, "little")),
        "device-size-x64": (8, (64 * 256 * 1024).to_bytes(8, "little")),
    }

    def _mutated(self, cls, mutation):
        fs = make_dax(cls)
        fs.creat("/f")
        fs.sync()
        offset, value = self.MUTATIONS[mutation]
        fs.device.write(offset, value)
        return fs.device

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("cls", [Ext4DaxFS, XfsDaxFS])
    def test_mount_fails_inside_the_taxonomy(self, cls, mutation):
        from repro.vfs.interface import MountError

        # The geometry itself rejects a zero block size.
        message = ("block_size must be positive" if mutation == "block-size-0"
                   else "corrupt superblock geometry")
        with pytest.raises(MountError, match=message):
            cls.mount(self._mutated(cls, mutation))

    @pytest.mark.parametrize("cls", [Ext4DaxFS, XfsDaxFS])
    def test_checker_reports_unmountable_not_an_exception(self, cls):
        from repro.core.checker import ConsistencyChecker
        from repro.core.oracle import run_oracle
        from conftest import hand_built_state
        from repro.core.report import Consequence
        from repro.workloads.ops import Op

        workload = [Op("creat", ("/f",)), Op("sync", ())]
        oracle = run_oracle(cls, workload, 256 * 1024, bugs=BugConfig.fixed())
        checker = ConsistencyChecker(cls, oracle, "w", bugs=BugConfig.fixed())
        state = hand_built_state(
            self._mutated(cls, "block-size-64").snapshot(), after_syscall=1
        )
        reports = checker.check(state)
        assert [r.consequence for r in reports] == [Consequence.UNMOUNTABLE]
        assert "corrupt superblock geometry" in reports[0].detail
