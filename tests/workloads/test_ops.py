"""Workload op descriptors and execution."""

import pytest

from conftest import make_fixed_fs
from repro.workloads.ops import Op, data_bytes, describe_workload, execute_op, run_workload


class TestDataBytes:
    def test_deterministic(self):
        assert data_bytes(0x41, 100) == data_bytes(0x41, 100)

    def test_length(self):
        assert len(data_bytes(0, 321)) == 321

    def test_rolling_tweak_distinguishes_regions(self):
        data = data_bytes(0x41, 128)
        assert data[0] != data[64]

    def test_empty(self):
        assert data_bytes(5, 0) == b""

    @pytest.mark.parametrize("fill", [0, 1, 0x41, 200, 255])
    def test_equals_the_per_byte_definition(self, fill):
        """Byte ``i`` is ``(fill + i // 64) % 256`` — the per-byte generator
        line-at-a-time construction replaced — and the fill byte wraps."""
        for length in [*range(601), 1024, 4095, 5000]:
            expected = bytes((fill + (i // 64)) % 256 for i in range(length))
            assert data_bytes(fill, length) == expected, length


class TestExecute:
    def test_every_op_kind_dispatches(self):
        fs = make_fixed_fs("nova")
        ops = [
            Op("mkdir", ("/A",)),
            Op("creat", ("/A/f",)),
            Op("write", ("/A/f", 0, 0x41, 100)),
            Op("append", ("/A/f", 0, 0x42, 50)),
            Op("fallocate", ("/A/f", 0, 200)),
            Op("truncate", ("/A/f", 80)),
            Op("link", ("/A/f", "/g")),
            Op("rename", ("/g", "/h")),
            Op("read", ("/h", 0, 10)),
            Op("stat", ("/h",)),
            Op("fsync", ("/h",)),
            Op("fdatasync", ("/h",)),
            Op("sync", ()),
            Op("unlink", ("/h",)),
            Op("remove", ("/A/f",)),
            Op("rmdir", ("/A",)),
        ]
        errnos = run_workload(fs, ops)
        assert errnos == [None] * len(ops)

    def test_errno_on_failure(self):
        fs = make_fixed_fs("nova")
        assert execute_op(fs, Op("unlink", ("/missing",))) == "ENOENT"

    def test_unknown_op_raises(self):
        fs = make_fixed_fs("nova")
        with pytest.raises(ValueError):
            execute_op(fs, Op("bogus", ()))

    def test_xattr_ops_on_weak_fs(self):
        fs = make_fixed_fs("ext4-dax")
        fs.creat("/f")
        assert execute_op(fs, Op("setxattr", ("/f", "user.k", 0x41, 8))) is None
        assert execute_op(fs, Op("removexattr", ("/f", "user.k"))) is None

    def test_describe(self):
        op = Op("rename", ("/a", "/b"))
        assert op.describe() == "rename('/a', '/b')"
        assert describe_workload([op, Op("sync", ())]) == "rename('/a', '/b'); sync()"

    def test_op_hashable(self):
        assert len({Op("creat", ("/a",)), Op("creat", ("/a",))}) == 1
