"""Memoization equivalence: memoized parallel campaigns must produce the
same ``bugs.json`` — byte for byte — as a serial run under the eager
whole-image reference memo (:class:`conftest.EagerCheckMemo`).

This is the acceptance gate for check memoization: skipping re-checks of
byte-identical crash states may change how fast a campaign runs, but never
which bugs it reports, how they cluster, or how the exemplars serialize.
"""

import itertools

import pytest
from conftest import eager_memo, serial_bugs_json

from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.workloads import ace

N = 10
SPEC = CampaignSpec(fs="nova", seq=1, max_workloads=N)


def engine_bugs_bytes(tmp_path, workers):
    engine = CampaignEngine(
        SPEC,
        str(tmp_path),
        EngineConfig(workers=workers, batch_size=3, item_timeout=60.0),
    )
    merged = engine.run()
    assert merged.summary.workloads_tested == N
    return (tmp_path / "bugs.json").read_bytes()


class TestMemoBugSetEquivalence:
    def test_serial_memo_on_equals_memo_off(self):
        with eager_memo():
            reference = serial_bugs_json(SPEC)
        assert serial_bugs_json(SPEC) == reference

    @pytest.mark.parametrize("workers", [1, 4])
    def test_parallel_memo_on_matches_serial_memo_off(self, tmp_path, workers):
        with eager_memo():
            reference = serial_bugs_json(SPEC)
        assert engine_bugs_bytes(tmp_path, workers) == reference

    def test_memo_off_reports_identical_per_workload(self):
        """The eager reference still dedups (whole-image sha1 keying): the
        reports of every workload agree with the canonical key's.  The
        canonical key may be *finer* than a whole-image sha1, so the memo
        may re-check — and count — a few extra "unique" states, never
        fewer."""
        chipmunk = SPEC.build_chipmunk()
        for w in itertools.islice(ace.generate(1), 4):
            a = chipmunk.test_workload(w.core, setup=w.setup)
            with eager_memo():
                b = chipmunk.test_workload(w.core, setup=w.setup)
            assert a.n_crash_states == b.n_crash_states
            assert a.n_unique_states >= b.n_unique_states
            assert a.reports == b.reports
