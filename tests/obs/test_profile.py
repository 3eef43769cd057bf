"""Hot-path profiler: stage attribution invariant, the site table,
serialization, nullability.

The load-bearing property is the attribution invariant: the profiler *is*
the pipeline's telescoping stage clock, so the profiled stages minus the
explicit ``other`` bucket (setup between stages) are exactly
``TestResult.stage_times``, and sum to ``TestResult.elapsed``.  Everything
downstream — `repro profile`, the campaign ``--profile`` flag, the watch
dashboard — trusts that sum.

The callsites are wrapped by name from :data:`~repro.obs.profile.SITES`
only while a profiler is installed: every target must resolve, and every
original object must be back in place once the profiler is gone.
"""

import json

import pytest

from repro.core.harness import Chipmunk, ChipmunkConfig, STAGES, TestResult
from repro.obs import profile as profile_mod
from repro.obs.profile import (
    SITES,
    Profiler,
    install,
    merge_profiles,
    render_profile,
)
from repro.pm.image import ChunkedDigest
from repro.workloads.ops import Op

WORKLOAD = [
    Op("mkdir", ("/d",)),
    Op("creat", ("/d/f",)),
    Op("write", ("/d/f", 0, 65, 2048)),
    Op("fsync", ("/d/f",)),
    Op("rename", ("/d/f", "/d/g")),
]


def site_targets():
    """Every :data:`SITES` target's owner, name and raw attribute now."""
    return [profile_mod._resolve(target) for _site, target, _kind in SITES]


def assert_originals(before):
    for (owner, attr, raw), (_, _, now) in zip(before, site_targets()):
        assert now is raw, f"{owner.__name__}.{attr} left wrapped"


@pytest.fixture(scope="module")
def profiled_result():
    cm = Chipmunk("nova", config=ChipmunkConfig(profile=True))
    return cm.test_workload(WORKLOAD)


class TestAttributionInvariant:
    def test_stages_sum_to_elapsed(self, profiled_result):
        """The profiler is the pipeline's stage clock: its stages minus
        ``other`` are ``stage_times``, key for key and exactly."""
        stages = profiled_result.profile["stages"]
        assert {s: t for s, t in stages.items() if s != "other"} == (
            profiled_result.stage_times)
        assert profiled_result.elapsed == sum(
            profiled_result.stage_times.values())

    def test_stage_names_match_pipeline(self, profiled_result):
        stages = set(profiled_result.profile["stages"])
        assert stages - {"other"} <= set(STAGES)
        # The hot stages must always be present on a real workload.
        assert {"enumerate", "check"} <= stages

    def test_callsite_seconds_bounded_by_stage(self, profiled_result):
        stages = profiled_result.profile["stages"]
        per_stage = {}
        for stage, _site, _calls, seconds in profiled_result.profile["sites"]:
            per_stage[stage] = per_stage.get(stage, 0.0) + seconds
        for stage, seconds in per_stage.items():
            # Attribution within a stage can never exceed the stage clock
            # (small tolerance for perf_counter granularity).  Nesting
            # callsites record self time (profile._timed), which is what
            # keeps this a partition rather than a double count.
            assert seconds <= stages[stage] * 1.05 + 1e-4, stage

    def test_outcome_key_is_a_check_stage_callsite(self, profiled_result):
        """The recovered-outcome cache's key cost is attributed, once per
        state that mounted and could be keyed."""
        rows = [r for r in profiled_result.profile["sites"]
                if r[1] == "checker.outcome_key"]
        assert [r[0] for r in rows] == ["check"]
        _stage, _site, calls, seconds = rows[0]
        assert calls == (profiled_result.outcome_hits
                         + profiled_result.outcome_misses)
        assert seconds > 0


class TestSiteTable:
    def test_every_target_resolves(self):
        assert len(site_targets()) == len(SITES)

    def test_unresolvable_target_raises_at_install(self, monkeypatch):
        before = site_targets()
        monkeypatch.setattr(profile_mod, "SITES", SITES + (
            ("gone", "repro.pm.image:CrashImage.renamed", "function"),))
        with pytest.raises(AttributeError, match="CrashImage.renamed"):
            with install(Profiler()):
                pass
        assert profile_mod.ACTIVE is None
        assert_originals(before)

    def test_originals_restored_after_a_profiled_workload(self):
        before = site_targets()
        Chipmunk("nova", config=ChipmunkConfig(profile=True)).test_workload(
            WORKLOAD)
        assert_originals(before)

    def test_nested_install_wraps_once_and_restores(self):
        before = site_targets()
        with install(Profiler()):
            wrapped = site_targets()
            with install(Profiler()):
                assert [raw for *_, raw in site_targets()] == [
                    raw for *_, raw in wrapped]
            assert [raw for *_, raw in site_targets()] == [
                raw for *_, raw in wrapped]
        assert_originals(before)

    def test_nested_install_counts_each_call_once(self):
        digest = ChunkedDigest(bytearray(64))
        outer = Profiler()
        with install(outer):
            inner = Profiler()
            with install(inner):
                digest.digest()
            digest.digest()
        assert inner.sites[("other", "image.chunk_rehash")][0] == 1
        assert outer.sites[("other", "image.chunk_rehash")][0] == 1

    def test_nested_site_time_is_not_charged_to_its_caller(self, monkeypatch):
        """``PersistTracker.base`` digests inside itself: on a clock that
        ticks once per read, the digest's one tick is its own and the base
        keeps the other two of its three."""
        import itertools

        from repro.pm.image import PersistTracker

        tracker = PersistTracker(bytes(64 * 1024))
        monkeypatch.setattr(profile_mod, "perf_counter",
                            itertools.count().__next__)
        prof = Profiler()
        with install(prof):
            tracker.base()
        assert prof.sites[("other", "image.chunk_rehash")] == [1, 1]
        assert prof.sites[("other", "replay.fence_base")] == [1, 2]


class TestNullability:
    def test_disabled_is_default_and_records_nothing(self):
        cm = Chipmunk("nova")
        result = cm.test_workload(WORKLOAD)
        assert result.profile == {}
        assert profile_mod.ACTIVE is None

    def test_profiler_uninstalled_after_run(self, profiled_result):
        assert profile_mod.ACTIVE is None

    def test_install_restores_previous(self):
        outer = Profiler()
        with install(outer):
            inner = Profiler()
            with install(inner):
                assert profile_mod.ACTIVE is inner
            assert profile_mod.ACTIVE is outer
        assert profile_mod.ACTIVE is None


class TestSerialization:
    def test_testresult_roundtrip_preserves_profile(self, profiled_result):
        data = json.loads(json.dumps(profiled_result.to_dict()))
        back = TestResult.from_dict(data)
        assert back.profile["sites"] == profiled_result.profile["sites"]
        assert back.profile["stages"] == pytest.approx(
            profiled_result.profile["stages"]
        )

    def test_merge_profiles_sums(self):
        p = Profiler()
        with install(p):
            p.set_stage("check")
            profile_mod._timed("site.a", sum)([1, 2])
        merged = merge_profiles([p.to_dict(), p.to_dict()])
        row = next(r for r in merged["sites"] if r[1] == "site.a")
        assert row[2] == 2  # calls
        assert row[3] == pytest.approx(2 * p.sites[("check", "site.a")][1])
        assert merged["stages"]["check"] == pytest.approx(
            2 * p.stages["check"])

    def test_merge_reads_rows_with_a_bytes_column(self):
        """Journals written while byte accounting existed still fold."""
        old = {"stages": {"check": 1.0}, "bytes": {"materialized": 0},
               "sites": [["check", "memo.key", 3, 0.25, 0]]}
        merged = merge_profiles([old, old])
        assert merged["sites"] == [["check", "memo.key", 6, 0.5]]
        assert "memo.key" in render_profile(merged)

    def test_merge_skips_empty(self):
        merged = merge_profiles([{}, {}])
        assert merged["stages"] == {}
        assert merged["sites"] == []


class TestStageClock:
    def test_telescoping_sums_to_window(self):
        from time import perf_counter

        p = Profiler()
        t0 = perf_counter()
        p.start()
        p.set_stage("record")
        for _ in range(1000):
            pass
        p.set_stage("check")
        for _ in range(1000):
            pass
        p.stop()
        window = perf_counter() - t0
        assert sum(p.stages.values()) <= window + 1e-4
        assert sum(p.stages.values()) == pytest.approx(window, abs=1e-3)

    def test_stop_is_idempotent(self):
        p = Profiler()
        p.start()
        p.set_stage("check")
        p.stop()
        snapshot = dict(p.stages)
        p.stop()
        assert p.stages == snapshot


class TestRender:
    def test_sections_present(self, profiled_result):
        text = render_profile(profiled_result.profile)
        assert "## Stage breakdown" in text
        assert "## Hot callsites" in text
        assert "image.materialize" in text or "replay.fence_base" in text
