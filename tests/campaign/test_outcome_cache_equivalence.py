"""Recovered-outcome cache on vs detached: same bugs, same counts.

The cache may only elide work whose result is provably the cached one — a
walk that would return the cached tree, a usability pass that would report
nothing — so a campaign with it attached must be indistinguishable, in
everything but speed, from one with ``Chipmunk.outcome_cache = None``:
byte-equal ``bugs.json`` through the ``repro diff --strict`` gate, and
per workload the same reports, states checked and distinct outcomes.
"""

import json

import pytest

from outcome_cache_driver import run_serial
from repro.fs.registry import FS_CLASSES
from repro.obs.diff import diff_sides, load_side

N = 40


@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_cache_on_equals_cache_detached(tmp_path, fs):
    sides = {}
    for label, detach in (("on", False), ("off", True)):
        doc, results = run_serial(fs, N, detach)
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        sides[label] = (path, results)
    (on_path, on), (off_path, off) = sides["on"], sides["off"]
    assert on_path.read_bytes() == off_path.read_bytes()
    diff = diff_sides(load_side(str(on_path)), load_side(str(off_path)),
                      strict=True)
    assert not diff.divergent
    # ext4-DAX / XFS-DAX report nothing on this slice; there the strict
    # verdict is the whole comparison.
    assert diff.strict_equal is True
    for a, b in zip(on, off):
        assert a.reports == b.reports, a.workload_desc
        assert a.n_crash_states == b.n_crash_states
        assert a.n_unique_states == b.n_unique_states
        assert a.n_unique_outcomes == b.n_unique_outcomes
        assert (b.outcome_hits, b.outcome_misses) == (0, 0)
    assert sum(r.outcome_hits for r in on) > 0
