"""Skip mechanisms on vs detached: same bugs, same counts.

The recovered-outcome cache and the read-trace recovery memo may only
elide work whose result is provably the recorded one — a mount, walk or
usability pass that would come out exactly as before — so a campaign with
both attached must be indistinguishable, in everything but speed, from one
with ``Chipmunk.outcome_cache = Chipmunk.recovery_memo = None``: byte-equal
``bugs.json`` through the ``repro diff --strict`` gate, and per workload
the same reports, states checked and distinct outcomes.
"""

import json

import pytest

from outcome_cache_driver import SKIP_MECHANISMS, run_serial
from repro.fs.registry import FS_CLASSES
from repro.obs.diff import diff_sides, load_side

N = 40


@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_cache_on_equals_cache_detached(tmp_path, fs):
    """Three sides: both attached, the outcome cache alone (the memo
    would otherwise pre-empt most of its hits), and neither."""
    sides = {}
    for label, detach in (("on", ()), ("cache", ("recovery_memo",)),
                          ("off", SKIP_MECHANISMS)):
        doc, results = run_serial(fs, N, detach)
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        sides[label] = (path, results)
    off_path, off = sides["off"]
    for label in ("on", "cache"):
        path, results = sides[label]
        assert path.read_bytes() == off_path.read_bytes(), label
        diff = diff_sides(load_side(str(path)), load_side(str(off_path)),
                          strict=True)
        assert not diff.divergent
        # ext4-DAX / XFS-DAX report nothing on this slice; there the
        # strict verdict is the whole comparison.
        assert diff.strict_equal is True
        for a, b in zip(results, off):
            assert a.reports == b.reports, a.workload_desc
            assert a.n_crash_states == b.n_crash_states
            assert a.n_unique_states == b.n_unique_states
            assert a.n_unique_outcomes == b.n_unique_outcomes
    for b in off:
        assert (b.outcome_hits, b.outcome_misses) == (0, 0)
        assert (b.recovery_hits, b.recovery_misses) == (0, 0)
    assert sum(r.recovery_hits for r in sides["on"][1]) > 0
    assert sum(r.outcome_hits for r in sides["cache"][1]) > 0
