"""Shared-memo equivalence: the campaign-wide check service must change
*when* states get checked, never *what the campaign reports*.

Three runs of the engine-hosted service (``--shared-memo``) are held to
byte-equality on ``bugs.json`` against a serial reference under the eager
whole-image memo: a healthy service, one stopped mid-campaign, and one
that is dead before any worker connects (the degradation paths).
Sequence-2 workloads are used deliberately: cross-workload redundancy
lives in shared multi-op prefixes — seq-1 workloads are one distinct op
each and share nothing — so these runs actually exercise shared hits,
which the live-mode tests assert on.
"""

import pytest
from conftest import eager_memo, serial_bugs_json

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CheckpointJournal,
    EngineConfig,
)

N = 6  # per sequence length; the campaign runs seq 1 and seq 2


def spec_for(**kwargs):
    return CampaignSpec(fs="nova", seq=2, max_workloads=N, **kwargs)


def run_engine(tmp_path, spec, workers=4):
    engine = CampaignEngine(
        spec,
        str(tmp_path),
        EngineConfig(workers=workers, batch_size=3, item_timeout=120.0),
    )
    merged = engine.run()
    assert merged.summary.workloads_tested == 2 * N
    assert not merged.quarantined
    return merged, (tmp_path / "bugs.json").read_bytes()


@pytest.fixture(scope="module")
def reference():
    """bugs.json of a serial, eager-memo, shared-less run of the same items."""
    with eager_memo():
        return serial_bugs_json(spec_for())


class TestSharedMemoEquivalence:
    def test_embedded_service_bugs_byte_equal(self, tmp_path, reference):
        """Engine-embedded mode: the engine hosts the service, workers
        attach over loopback.  Byte-equality AND actual cross-workload
        hits (seq-2 prefixes re-checking seq-1/earlier-seq-2 states)."""
        merged, bugs = run_engine(tmp_path, spec_for(shared_memo=True))
        assert bugs == reference
        assert merged.summary.memo_shared_hits > 0
        service = merged.engine.get("shared_memo") or {}
        assert service.get("hits", 0) > 0
        assert service.get("entries", 0) > 0

    def _stop_service(self, monkeypatch, after_publishes):
        """Make the engine's service stop itself once it has taken
        ``after_publishes`` publishes (0: before any worker is spawned)."""
        start = CampaignEngine._start_shared_memo

        def start_then_stop(engine):
            start(engine)
            server = engine._memo_server
            if not after_publishes:
                server.stop()
                return
            publish = server.table.publish

            def publish_then_stop(key):
                publish(key)
                if server.table.publishes == after_publishes:
                    server.stop()

            server.table.publish = publish_then_stop

        monkeypatch.setattr(CampaignEngine, "_start_shared_memo",
                            start_then_stop)

    def test_server_killed_mid_campaign_degrades(self, tmp_path, reference,
                                                 monkeypatch):
        """Stop the service while workers are mid-campaign; they fall back
        to their local memos, the campaign completes, and bugs.json is
        still byte-equal."""
        self._stop_service(monkeypatch, after_publishes=20)
        merged, bugs = run_engine(tmp_path, spec_for(shared_memo=True))
        assert bugs == reference
        assert merged.engine["shared_memo"]["publishes"] == 20
        # The failed requests are counted, journaled and reported.
        state = CheckpointJournal.replay(str(tmp_path))
        errors = sum(r.get("memo_shared_errors", 0)
                     for r in state.ordered_results())
        assert errors > 0
        assert merged.summary.total("memo_shared_errors") == errors
        assert (f"{errors} shared-service error(s) degraded to local misses"
                in (tmp_path / "report.md").read_text())

    def test_dead_address_from_the_start_degrades(self, tmp_path, reference,
                                                  monkeypatch):
        """Nothing listens by the time workers connect: every worker burns
        its connection attempts, permanently degrades, and the campaign is
        oblivious."""
        self._stop_service(monkeypatch, after_publishes=0)
        merged, bugs = run_engine(
            tmp_path, spec_for(shared_memo=True), workers=2
        )
        assert bugs == reference
        assert merged.summary.memo_shared_hits == 0
