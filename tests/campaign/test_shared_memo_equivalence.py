"""Shared-memo equivalence: the campaign-wide check service must change
*when* states get checked, never *what the campaign reports*.

Three configurations are held to byte-equality on ``bugs.json`` against a
serial reference under the eager whole-image memo: the engine-embedded
service (``--shared-memo``), an external server (``--memo-server
HOST:PORT``, the multi-host path), and a server that dies mid-campaign (the
degradation path).  Sequence-2
workloads are used deliberately: cross-workload redundancy lives in shared
multi-op prefixes — seq-1 workloads are one distinct op each and share
nothing — so these runs actually exercise shared hits, which the live-mode
tests assert on.
"""

import threading

import pytest
from conftest import eager_memo, serial_bugs_json

from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.memo import MemoServer

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

    def test_external_server_bugs_byte_equal(self, tmp_path, reference):
        """Multi-host mode: campaign attaches to a standalone server by
        address (here in-process, but over real TCP like `repro memod`)."""
        server = MemoServer()
        server.start()
        try:
            merged, bugs = run_engine(
                tmp_path, spec_for(memo_address=server.address_str)
            )
            assert bugs == reference
            assert merged.summary.memo_shared_hits > 0
            assert server.table.stats()["hits"] > 0
        finally:
            server.stop()

    def test_memo_address_implies_shared_memo(self):
        spec = spec_for(memo_address="127.0.0.1:9009")
        assert spec.shared_memo

    def test_server_killed_mid_campaign_degrades(self, tmp_path, reference):
        """The ISSUE's degradation gate: kill the service while workers
        are mid-campaign; they fall back to their local memos, the
        campaign completes, and bugs.json is still byte-equal."""
        server = MemoServer()
        server.start()
        killer = threading.Timer(1.0, server.stop)
        killer.start()
        try:
            merged, bugs = run_engine(
                tmp_path, spec_for(memo_address=server.address_str)
            )
            assert bugs == reference
        finally:
            killer.cancel()
            server.stop()

    def test_dead_address_from_the_start_degrades(self, tmp_path, reference):
        """Nothing ever listened: every worker burns its connection
        attempts, permanently degrades, and the campaign is oblivious."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        merged, bugs = run_engine(
            tmp_path, spec_for(memo_address=f"127.0.0.1:{port}"), workers=2
        )
        assert bugs == reference
        assert merged.summary.memo_shared_hits == 0
