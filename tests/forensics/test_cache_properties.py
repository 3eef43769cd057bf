"""Property tests for the forensics cache keys.

Two invariants keep the cross-report cache sound:

* the ddmin **verdict** key is a pure function of the persisted *set* —
  stable under any reordering (or duplication) of an equal store list, so
  ddmin chunks, complements, and re-splits presenting the same subset share
  one checker replay;
* the **session** key separates reproduction contexts — any differing
  context field yields a different key, so the cache can never hand a
  session built from one workload/fs/bug-set to a report from another.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.forensics.cache as cache_mod
from repro.config import ChipmunkConfig
from repro.forensics.cache import ForensicsCache, context_key, subset_key
from repro.forensics.provenance import RECORDED_KNOBS, CrashProvenance


def make_prov(**overrides):
    """A provenance; harness-knob overrides land in its ``config``."""
    knobs = {k: overrides.pop(k) for k in RECORDED_KNOBS if k in overrides}
    fields = dict(
        fs_name="nova",
        fence_index=1,
        log_pos=6,
        mid_syscall=False,
        syscall=None,
        syscall_name=None,
        after_syscall=0,
        state_kind="subset",
        replayed_entries=(0,),
        entries=(),
        workload=(("creat", ("/foo",)),),
        setup=(),
        bug_ids=(5,),
        config=ChipmunkConfig(**{"crash_points": "fence", **knobs}),
    )
    fields.update(overrides)
    return CrashProvenance(**fields)


#: Context-field perturbations: each must change the context key.
CONTEXT_VARIANTS = [
    {"fs_name": "pmfs"},
    {"workload": (("creat", ("/bar",)),)},
    {"workload": (("creat", ("/foo",)), ("unlink", ("/foo",)))},
    {"setup": (("mkdir", ("/A",)),)},
    {"bug_ids": ()},
    {"bug_ids": (5, 7)},
    {"cap": 3},
    {"cap": None},
    {"coalesce_threshold": 64},
    {"device_size": 512 * 1024},
    {"crash_points": "syscall"},
]

#: Crash-point-only perturbations: the context key must NOT change (that is
#: the whole point of sharing recordings across crash points).
CRASH_POINT_VARIANTS = [
    {"log_pos": 9},
    {"fence_index": 2},
    {"replayed_entries": (0, 1)},
    {"mid_syscall": True, "syscall": 1, "syscall_name": "creat"},
    {"state_kind": "post"},
]


class TestSubsetKey:
    @given(
        positions=st.lists(st.integers(0, 63), max_size=16, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_stable_under_reordering(self, positions, seed):
        shuffled = positions[:]
        random.Random(seed).shuffle(shuffled)
        prov = make_prov()
        assert subset_key(prov, shuffled) == subset_key(prov, positions)

    @given(positions=st.lists(st.integers(0, 63), min_size=1, max_size=16,
                              unique=True))
    @settings(max_examples=50)
    def test_stable_under_duplication(self, positions):
        prov = make_prov()
        assert subset_key(prov, positions + positions) == \
            subset_key(prov, positions)

    @given(
        a=st.sets(st.integers(0, 15), max_size=8),
        b=st.sets(st.integers(0, 15), max_size=8),
    )
    @settings(max_examples=100)
    def test_distinct_sets_get_distinct_keys(self, a, b):
        prov = make_prov()
        keys_equal = subset_key(prov, sorted(a)) == subset_key(prov, sorted(b))
        assert keys_equal == (a == b)

    def test_crash_point_is_part_of_the_key(self):
        prov = make_prov()
        other = make_prov(log_pos=9)
        assert subset_key(prov, (0, 1)) != subset_key(other, (0, 1))


class TestContextKey:
    @pytest.mark.parametrize("variant", CONTEXT_VARIANTS,
                             ids=lambda v: next(iter(v)))
    def test_any_context_field_separates(self, variant):
        assert context_key(make_prov()) != context_key(make_prov(**variant))

    @pytest.mark.parametrize("variant", CRASH_POINT_VARIANTS,
                             ids=lambda v: next(iter(v)))
    def test_crash_point_fields_share_the_key(self, variant):
        assert context_key(make_prov()) == context_key(make_prov(**variant))

    def test_bug_id_order_is_canonical(self):
        assert context_key(make_prov(bug_ids=(7, 5))) == \
            context_key(make_prov(bug_ids=(5, 7)))


class _FakeRecording:
    def __init__(self, prov):
        self.prov = prov


class TestSessionCacheIsolation:
    """The session cache never returns a session for a mismatched context.

    The expensive rebuild is stubbed out; what is under test is purely the
    cache's keying discipline.
    """

    def _patched_cache(self):
        cache = ForensicsCache()
        originals = (
            cache_mod.rebuild_recording,
            cache_mod.session_from_recording,
        )
        cache_mod.rebuild_recording = (
            lambda prov, telemetry=None: _FakeRecording(prov)
        )
        cache_mod.session_from_recording = (
            lambda prov, recording: (prov, recording)
        )
        return cache, originals

    def _restore(self, originals):
        cache_mod.rebuild_recording, cache_mod.session_from_recording = \
            originals

    @given(
        base_index=st.integers(0, len(CONTEXT_VARIANTS) - 1),
        other_index=st.integers(0, len(CONTEXT_VARIANTS) - 1),
    )
    @settings(max_examples=60)
    def test_recordings_shared_iff_contexts_match(self, base_index,
                                                  other_index):
        prov_a = make_prov(**CONTEXT_VARIANTS[base_index])
        prov_b = make_prov(**CONTEXT_VARIANTS[other_index])
        cache, originals = self._patched_cache()
        try:
            _, rec_a = cache.session(prov_a)
            _, rec_b = cache.session(prov_b)
        finally:
            self._restore(originals)
        same_context = context_key(prov_a) == context_key(prov_b)
        assert (rec_a is rec_b) == same_context
        # A shared recording is only ever one that was rebuilt from an
        # equal-context provenance.
        assert context_key(rec_b.prov) == context_key(prov_b)

    def test_different_crash_points_share_one_recording(self):
        prov_a = make_prov(log_pos=6)
        prov_b = make_prov(log_pos=9, fence_index=2)
        cache, originals = self._patched_cache()
        try:
            returned_a, rec_a = cache.session(prov_a)
            returned_b, rec_b = cache.session(prov_b)
        finally:
            self._restore(originals)
        assert rec_a is rec_b
        # ...but each session is derived from its own provenance.
        assert returned_a is prov_a
        assert returned_b is prov_b
        assert (cache.session_hits, cache.session_misses) == (1, 1)
