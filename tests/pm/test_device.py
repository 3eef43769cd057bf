"""PMDevice: raw access, snapshots, undo log, cache-line helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm.device import ATOMIC_UNIT, CACHE_LINE, PMDevice, PMDeviceError, cacheline_span


class TestConstruction:
    def test_size_must_be_positive(self):
        with pytest.raises(PMDeviceError):
            PMDevice(0)

    def test_size_must_be_line_multiple(self):
        with pytest.raises(PMDeviceError):
            PMDevice(CACHE_LINE + 1)

    def test_fresh_device_is_zeroed(self):
        dev = PMDevice(1024)
        assert dev.read(0, 1024) == b"\x00" * 1024

    def test_constants(self):
        assert CACHE_LINE == 64
        assert ATOMIC_UNIT == 8


class TestReadWrite:
    def test_write_then_read(self):
        dev = PMDevice(1024)
        dev.write(100, b"hello")
        assert dev.read(100, 5) == b"hello"

    def test_write_at_end(self):
        dev = PMDevice(1024)
        dev.write(1019, b"tail!")
        assert dev.read(1019, 5) == b"tail!"

    def test_read_past_end_rejected(self):
        dev = PMDevice(1024)
        with pytest.raises(PMDeviceError):
            dev.read(1020, 5)

    def test_write_past_end_rejected(self):
        dev = PMDevice(1024)
        with pytest.raises(PMDeviceError):
            dev.write(1022, b"xyz")

    def test_negative_address_rejected(self):
        dev = PMDevice(1024)
        with pytest.raises(PMDeviceError):
            dev.read(-1, 1)

    def test_negative_length_rejected(self):
        dev = PMDevice(1024)
        with pytest.raises(PMDeviceError):
            dev.read(0, -1)

    def test_zero_length_read(self):
        dev = PMDevice(1024)
        assert dev.read(0, 0) == b""


class TestSnapshots:
    def test_snapshot_is_a_copy(self):
        dev = PMDevice(1024)
        snap = dev.snapshot()
        dev.write(0, b"x")
        assert snap[0] == 0

    def test_from_snapshot(self):
        dev = PMDevice(1024)
        dev.write(10, b"data")
        clone = PMDevice.from_snapshot(dev.snapshot())
        assert clone.read(10, 4) == b"data"
        clone.write(10, b"diff")
        assert dev.read(10, 4) == b"data"


class TestUndoLog:
    """The undo log a :meth:`PMDevice.cow_view` arms (paper section 3.3)."""

    def test_rollback_restores_before_images(self):
        dev = PMDevice(1024)
        dev.write(0, b"original")
        with dev.cow_view(()) as view:
            view.write(0, b"mutated!")
            view.write(100, b"more")
        assert dev.read(0, 8) == b"original"
        assert dev.read(100, 4) == b"\x00" * 4

    def test_rollback_applies_in_reverse_order(self):
        dev = PMDevice(1024)
        with dev.cow_view(()) as view:
            view.write(0, b"first")
            view.write(0, b"secnd")
            assert view.undo_ranges() == [(0, 5), (0, 5)]
        assert dev.read(0, 5) == b"\x00" * 5

    def test_double_begin_rejected(self):
        dev = PMDevice(1024)
        with dev.cow_view(()):
            with pytest.raises(PMDeviceError, match="already active"):
                with dev.cow_view(()):
                    pass

    def test_rollback_without_begin_rejected(self):
        dev = PMDevice(1024)
        with pytest.raises(PMDeviceError, match="no undo log active"):
            dev.rewind_undo()
        with pytest.raises(PMDeviceError, match="no undo log active"):
            dev.undo_ranges()


class TestCachelineSpan:
    def test_single_line(self):
        assert list(cacheline_span(0, 10)) == [0]

    def test_straddling_lines(self):
        assert list(cacheline_span(60, 10)) == [0, 64]

    def test_exact_line(self):
        assert list(cacheline_span(64, 64)) == [64]

    def test_empty_range(self):
        assert list(cacheline_span(100, 0)) == []

    @given(addr=st.integers(0, 4000), length=st.integers(1, 300))
    @settings(max_examples=60)
    def test_span_covers_range(self, addr, length):
        lines = list(cacheline_span(addr, length))
        assert lines[0] <= addr
        assert lines[-1] + 64 >= addr + length
        assert all(line % 64 == 0 for line in lines)


class TestHypothesisRoundTrips:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=24)),
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_last_write_wins(self, writes):
        dev = PMDevice(1024)
        shadow = bytearray(1024)
        for addr, data in writes:
            dev.write(addr, data)
            shadow[addr : addr + len(data)] = data
        assert dev.snapshot() == bytes(shadow)

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=24)),
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_undo_is_exact_inverse(self, writes):
        dev = PMDevice(1024)
        dev.write(3, b"seed-data")
        before = dev.snapshot()
        with dev.cow_view(()) as view:
            for addr, data in writes:
                view.write(addr, data)
            view.rewind_undo()
            assert view.snapshot() == before
            for addr, data in writes:
                view.write(addr, data)
        assert dev.snapshot() == before
