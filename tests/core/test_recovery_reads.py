"""Recovery-read sets (extension, paper section 6.2)."""

import pytest

from conftest import TEST_DEVICE_SIZE, make_fixed_fs
from repro.core.recovery_reads import recovery_read_set
from repro.fs.bugs import BugConfig
from repro.fs.nova.fs import NovaFS
from repro.pm.device import PMDevice, PMDeviceError


class ScriptFS:
    """A 'file system' whose recovery is a script of device accesses.

    ``("r", addr, n)`` reads and remembers what it saw, ``("w", addr,
    data)`` writes, ``("snap",)`` remembers the whole image.
    """

    script = ()
    seen = []

    @classmethod
    def mount(cls, device, bugs=None):
        for step in cls.script:
            if step[0] == "r":
                cls.seen.append(device.read(step[1], step[2]))
            elif step[0] == "w":
                device.write(step[1], step[2])
            else:
                cls.seen.append(device.snapshot())
        return cls()


def run_script(script, base, writes=None, granularity=1):
    fs = type("Script", (ScriptFS,), {"script": tuple(script), "seen": []})
    lines = recovery_read_set(fs, base, granularity=granularity,
                              writes=writes)
    return lines, fs.seen


class TestReadTrackingDevice:
    """Read tracking is the device's own access trace (``traced``)."""

    def test_reads_recorded(self):
        dev = PMDevice(1024)
        with dev.traced() as trace:
            dev.read(100, 8)
            dev.write(7, b"data")
            dev.read(500, 64)
        dev.read(0, 8)  # after the block: not recorded
        assert trace == [(100, 8), (7, -4), (500, 64)]
        with pytest.raises(PMDeviceError):
            with dev.traced():
                with dev.traced():
                    pass

    def test_zero_length_ignored(self):
        lines, _ = run_script(
            [("r", 0, 0), ("w", 640, b"x" * 64), ("r", 130, 8)],
            bytes(1024), granularity=64,
        )
        assert lines == {2}  # neither the empty read nor the write counts

    def test_from_snapshot(self):
        dev = PMDevice(1024)
        dev.write(7, b"data")
        clone = PMDevice.from_snapshot(dev.snapshot())
        with clone.traced() as trace:
            assert clone.read(7, 4) == b"data"
        assert trace == [(7, 4)]


class TestOverlayReadTrackingDevice:
    """With ``writes=``, recovery mounts ``base + writes``; the caller's
    base never changes."""

    def test_reads_through_overlay(self):
        lines, seen = run_script([("r", 100, 4)], bytes(8192),
                                 writes=[(100, b"abcd"), (102, b"XY")])
        assert seen == [b"abXY"]  # later writes win, in log order
        assert lines == {100, 101, 102, 103}

    def test_base_never_mutated(self):
        base = bytes(8192)
        _, seen = run_script([("w", 4096, b"recovery-write"), ("r", 4096, 14)],
                             base, writes=[(0, b"hello")])
        assert seen == [b"recovery-write"]
        assert base == bytes(8192)

    def test_cross_chunk_read(self):
        data = b"Z" * 16
        _, seen = run_script([("r", 4088, 16), ("r", 0, 8192)],
                             bytes(4 * 4096), writes=[(4088, data)])
        assert seen == [data, bytes(4088) + data + bytes(4088)]

    def test_mount_writes_visible_to_later_reads(self):
        _, seen = run_script([("w", 64, b"\x01" * 8), ("r", 64, 8)],
                             bytes(8192), writes=[])
        assert seen == [b"\x01" * 8]

    def test_snapshot_matches_flat_application(self):
        base = bytes(range(256)) * 32
        writes = [(10, b"aa"), (4095, b"bb"), (4101, b"c" * 70)]
        flat = bytearray(base)
        for addr, data in writes:
            flat[addr : addr + len(data)] = data
        _, seen = run_script([("r", 0, 16), ("snap",)], base, writes=writes)
        assert seen[1] == bytes(flat)

    def test_out_of_range_overlay_write_rejected(self):
        with pytest.raises(PMDeviceError):
            run_script([("r", 0, 8)], bytes(1024), writes=[(1020, b"12345678")])

    def test_matches_flat_device_read_set(self):
        fs = make_fixed_fs("nova")
        base = fs.device.snapshot()
        fs.creat("/f")
        fs.write("/f", 0, b"x" * 512)
        final = fs.device.snapshot()
        overlay = []
        for off in range(0, len(base), 64):
            if final[off : off + 64] != base[off : off + 64]:
                overlay.append((off, final[off : off + 64]))
        flat = recovery_read_set(NovaFS, final, bugs=BugConfig.fixed())
        lazy = recovery_read_set(
            NovaFS, base, bugs=BugConfig.fixed(), writes=overlay
        )
        assert flat == lazy


class TestRecoveryReadSet:
    def test_mount_reads_metadata_regions(self):
        fs = make_fixed_fs("nova")
        fs.creat("/f")
        fs.write("/f", 0, b"x" * 512)
        lines = recovery_read_set(NovaFS, fs.device.snapshot(), bugs=BugConfig.fixed())
        assert lines
        # Recovery reads the inode table...
        table = fs.geom.inode_table
        assert any(table.offset // 64 <= line < table.end // 64 for line in lines)
        # ...but not the file's data blocks (NOVA rebuilds metadata only).
        data_block = next(iter(fs.inodes[fs.inodes[0].children["f"]].blockmap.values()))
        data_line = fs.geom.block_addr(data_block) // 64
        assert data_line not in lines

    def test_failed_mount_still_yields_reads(self):
        lines = recovery_read_set(NovaFS, bytes(TEST_DEVICE_SIZE))
        assert lines  # at least the superblock read

