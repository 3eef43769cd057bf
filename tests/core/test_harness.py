"""End-to-end Chipmunk harness behaviour."""

import time

import pytest

from conftest import STRONG_FS
from repro.core import Chipmunk, ChipmunkConfig, harness
from repro.fs.bugs import BugConfig
from repro.workloads.ops import Op

SIMPLE = [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))]


class TestFixedModeIsClean:
    @pytest.mark.parametrize("fs_name", STRONG_FS)
    def test_no_reports_on_fixed_fs(self, fs_name):
        cm = Chipmunk(fs_name, bugs=BugConfig.fixed())
        result = cm.test_workload(SIMPLE)
        assert result.reports == []
        assert result.n_crash_states > 0
        assert result.n_fences > 0

    @pytest.mark.parametrize("fs_name", ["ext4-dax", "xfs-dax"])
    def test_weak_fs_with_fsync(self, fs_name):
        cm = Chipmunk(fs_name, bugs=BugConfig.fixed())
        workload = SIMPLE + [Op("fsync", ("/f",)), Op("truncate", ("/f", 100)), Op("sync", ())]
        result = cm.test_workload(workload)
        assert result.reports == []


class TestResultMetadata:
    def test_errnos_recorded(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload([Op("creat", ("/f",)), Op("creat", ("/f",))])
        assert result.errnos == [None, "EEXIST"]

    def test_inflight_histogram_populated(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload(SIMPLE)
        assert "creat" in result.inflight

    def test_inflight_histogram_is_on_the_analyze_clock(self, monkeypatch):
        histogram = harness.inflight_histogram

        def slow_histogram(*args):
            time.sleep(0.02)
            return histogram(*args)

        monkeypatch.setattr(harness, "inflight_histogram", slow_histogram)
        result = Chipmunk("nova", bugs=BugConfig.fixed()).test_workload(SIMPLE)
        assert result.stage_times["analyze"] >= 0.02
        assert "creat" in result.inflight

    def test_unique_not_more_than_total(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload(SIMPLE)
        assert result.n_unique_states <= result.n_crash_states

    def test_summary_renders(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload(SIMPLE)
        assert "crash states" in result.summary()

    def test_buggy_flag(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        result = cm.test_workload([Op("creat", ("/f",)), Op("rename", ("/f", "/g"))])
        assert result.buggy
        assert result.summary().count("-") >= 1


class TestSetupPhase:
    def test_setup_not_crash_tested(self):
        """Setup ops run before recording: no crash states from them."""
        setup = [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))]
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload([Op("unlink", ("/A/f",))], setup=setup)
        assert result.reports == []
        mid_names = set(result.inflight)
        assert "mkdir" not in mid_names

    def test_buggy_setup_does_not_report(self):
        """Even on a buggy FS, setup ops produce no reports (not recorded)."""
        cm = Chipmunk("nova", bugs=BugConfig.only(2))  # creat bug
        result = cm.test_workload(
            [Op("truncate", ("/A/f", 0))],
            setup=[Op("mkdir", ("/A",)), Op("creat", ("/A/f",))],
        )
        assert result.reports == []


class TestConfig:
    def test_cap_respected(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed(), config=ChipmunkConfig(cap=1))
        result = cm.test_workload(SIMPLE)
        assert result.n_crash_states > 0

    def test_crash_point_override(self):
        config = ChipmunkConfig(crash_points="post")
        cm = Chipmunk("nova", bugs=BugConfig.only(4), config=config)
        workload = [
            Op("mkdir", ("/A",)),
            Op("creat", ("/f",)),
            Op("rename", ("/f", "/A/g")),
        ]
        # Bug 4 needs a mid-syscall crash; the post-only policy misses it.
        assert not cm.test_workload(workload).buggy

    def test_unknown_fs_rejected(self):
        with pytest.raises(KeyError):
            Chipmunk("not-a-fs")

    def test_fs_class_accepted_directly(self):
        from repro.fs.nova.fs import NovaFS

        cm = Chipmunk(NovaFS, bugs=BugConfig.fixed())
        assert cm.test_workload(SIMPLE).reports == []


class TestCoverageIntegration:
    def test_coverage_collected(self):
        from repro.workloads.coverage import CoverageMap

        coverage = CoverageMap()
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        cm.test_workload(SIMPLE, coverage=coverage)
        assert any(p.startswith("nova.") for p in coverage.points())


class TestTestMany:
    def test_stop_after(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(5))
        workloads = [
            [Op("creat", ("/a",))],
            [Op("creat", ("/f",)), Op("rename", ("/f", "/g"))],
            [Op("creat", ("/z",))],
        ]
        results = list(cm.test_many(workloads, stop_after=1))
        assert len(results) == 2  # stopped right after the buggy workload
