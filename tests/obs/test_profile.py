"""Hot-path profiler: stage attribution invariant, serialization, nullability.

The load-bearing property is the attribution invariant: the telescoping
stage clock transitions at the same boundaries the harness uses for its
telemetry spans, so the profiled stages (minus the explicit ``other``
bucket for setup between spans) must sum to ``TestResult.elapsed`` within
a small tolerance.  Everything downstream — `repro profile`, the campaign
``--profile`` flag, the watch dashboard's byte totals — trusts that sum.

A clean pipeline materializes *nothing*: fence bases share the replayer's
live buffer and the checker mounts that buffer through a COW view, so the
``materialized`` category stays at zero while every other one is fed.
"""

import json

import pytest

from repro.core.harness import Chipmunk, ChipmunkConfig, STAGES, TestResult
from repro.obs import profile as profile_mod
from repro.obs.profile import (
    BYTE_CATEGORIES,
    Profiler,
    install,
    merge_profiles,
    render_profile,
)
from repro.workloads.ops import Op

WORKLOAD = [
    Op("mkdir", ("/d",)),
    Op("creat", ("/d/f",)),
    Op("write", ("/d/f", 0, 65, 2048)),
    Op("fsync", ("/d/f",)),
    Op("rename", ("/d/f", "/d/g")),
]

#: Which callsites feed each byte-accounting category (the data plane's
#: complete producer set; a new producer must be added here to keep the
#: sum invariant meaningful).
CATEGORY_SITES = {
    "materialized": {"replay.fence_base", "image.materialize"},
    "overlay_applied": {"device.cow_apply"},
    "digest_hashed": {"image.chunk_rehash", "checker.outcome_key"},
    "cow_rollback": {"device.cow_rollback"},
}


@pytest.fixture(scope="module")
def profiled_result():
    cm = Chipmunk("nova", config=ChipmunkConfig(profile=True))
    return cm.test_workload(WORKLOAD)


class TestAttributionInvariant:
    def test_stages_sum_to_elapsed(self, profiled_result):
        stages = profiled_result.profile["stages"]
        attributed = sum(t for s, t in stages.items() if s != "other")
        assert attributed == pytest.approx(profiled_result.elapsed, rel=0.05)

    def test_stage_names_match_pipeline(self, profiled_result):
        stages = set(profiled_result.profile["stages"])
        assert stages - {"other"} <= set(STAGES)
        # The hot stages must always be present on a real workload.
        assert {"enumerate", "check"} <= stages

    def test_callsite_seconds_bounded_by_stage(self, profiled_result):
        stages = profiled_result.profile["stages"]
        per_stage = {}
        for stage, _site, _calls, seconds, _b in profiled_result.profile["sites"]:
            per_stage[stage] = per_stage.get(stage, 0.0) + seconds
        for stage, seconds in per_stage.items():
            # Attribution within a stage can never exceed the stage clock
            # (small tolerance for perf_counter granularity).  Nesting
            # callsites record exclusive time (Profiler.add_exclusive),
            # which is what keeps this a partition rather than a
            # double count.
            assert seconds <= stages[stage] * 1.05 + 1e-4, stage

    def test_byte_categories_sum_per_callsite(self, profiled_result):
        """Each category total is exactly its producer callsites' bytes."""
        counts = profiled_result.profile["bytes"]
        per_site = {}
        for _stage, site, _calls, _s, nbytes in profiled_result.profile["sites"]:
            per_site[site] = per_site.get(site, 0) + nbytes
        for cat, sites in CATEGORY_SITES.items():
            produced = sum(per_site.get(site, 0) for site in sites)
            assert counts[cat] == produced, cat

    def test_outcome_key_is_a_check_stage_callsite(self, profiled_result):
        """The recovered-outcome cache's key cost is attributed (seconds and
        rehashed bytes), once per state that mounted and could be keyed."""
        rows = [r for r in profiled_result.profile["sites"]
                if r[1] == "checker.outcome_key"]
        assert [r[0] for r in rows] == ["check"]
        _stage, _site, calls, seconds, nbytes = rows[0]
        assert calls == (profiled_result.outcome_hits
                         + profiled_result.outcome_misses)
        assert seconds > 0 and nbytes > 0

    def test_byte_categories_populated(self, profiled_result):
        counts = profiled_result.profile["bytes"]
        assert set(counts) == set(BYTE_CATEGORIES)
        for cat in ("overlay_applied", "digest_hashed", "cow_rollback"):
            assert counts[cat] > 0, f"no bytes attributed to {cat}"
        # The zero-copy property: a clean pipeline never builds a flat
        # image, so nothing is ever materialized.
        assert counts["materialized"] == 0


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
        assert back.profile["bytes"] == profiled_result.profile["bytes"]
        assert back.profile["stages"] == pytest.approx(
            profiled_result.profile["stages"]
        )

    def test_merge_profiles_sums(self):
        p = Profiler()
        with install(p):
            p.set_stage("check")
            p.add("site.a", 0.5, 100, "materialized")
        merged = merge_profiles([p.to_dict(), p.to_dict()])
        assert merged["bytes"]["materialized"] == 200
        row = next(r for r in merged["sites"] if r[1] == "site.a")
        assert row[2] == 2  # calls
        assert row[3] == pytest.approx(1.0)

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
        assert "## Byte accounting" in text
        assert "image.materialize" in text or "replay.fence_base" in text
