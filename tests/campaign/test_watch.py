"""Live campaign monitor: journal timestamps, snapshots, and the watch loop."""

import io
import json
import os
import threading
import time

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.campaign.journal import CheckpointJournal
from repro.campaign.watch import (
    STALE_HEARTBEAT_S,
    CampaignMonitor,
    Snapshot,
    WorkerBeat,
    watch,
)


def _run_campaign(tmp_path, max_workloads=4, workers=2, name="camp"):
    spec = CampaignSpec(fs="nova", generator="ace", seq=1,
                        max_workloads=max_workloads)
    campaign_dir = str(tmp_path / name)
    engine = CampaignEngine(spec, campaign_dir,
                            EngineConfig(workers=workers, batch_size=2))
    merged = engine.run()
    return campaign_dir, merged


class TestJournalTimestamps:
    def test_every_record_is_stamped(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        path = os.path.join(campaign_dir, CheckpointJournal.FILENAME)
        before = time.time()
        for line in open(path):
            record = json.loads(line)
            assert "t" in record, record["type"]
            assert 0 < record["t"] <= before + 1
        state = CheckpointJournal.replay(campaign_dir)
        assert state.started_t is not None
        assert state.finished_t is not None
        assert state.finished_t >= state.started_t
        assert set(state.times) == set(state.results)

    def test_replay_tolerates_unstamped_records(self, tmp_path):
        d = str(tmp_path)
        with open(os.path.join(d, CheckpointJournal.FILENAME), "w") as fh:
            fh.write('{"type":"campaign_meta","spec":{},"n_items":1}\n')
            fh.write('{"type":"item_done","id":"a","ordinal":0,'
                     '"results":[]}\n')
        state = CheckpointJournal.replay(d)
        assert state.started_t is None
        assert state.times == {}
        assert "a" in state.results


class TestSnapshot:
    def test_completed_campaign(self, tmp_path):
        campaign_dir, merged = _run_campaign(tmp_path)
        snap = CampaignMonitor(campaign_dir).snapshot()
        assert snap.complete
        assert snap.n_done == 4
        assert snap.n_quarantined == 0
        assert snap.rate_per_min > 0
        assert snap.eta_s is None
        agg = snap.aggregate()
        assert agg.crash_states == merged.summary.crash_states
        assert agg.total("n_reports") > 0
        # the engine cleans up the heartbeat beacons with the results files
        assert not [n for n in os.listdir(campaign_dir) if n.endswith(".hb")]

    def test_stale_and_live_heartbeats(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        now = time.time()
        for wid, t in ((0, now), (1, now - STALE_HEARTBEAT_S - 5)):
            with open(os.path.join(campaign_dir,
                                   f"worker-test-{wid}.hb"), "w") as fh:
                json.dump({"worker": wid, "item": f"ace:1:{wid}", "t": t}, fh)
        snap = CampaignMonitor(campaign_dir).snapshot()
        assert [b.worker for b in snap.beats] == [0, 1]
        assert not snap.beats[0].stale
        assert snap.beats[1].stale

    def test_freshest_beacon_per_worker_wins(self, tmp_path):
        # A resumed campaign leaves beacons from several run tags.
        campaign_dir, _ = _run_campaign(tmp_path)
        now = time.time()
        for tag, t in (("old", now - 500), ("new", now)):
            with open(os.path.join(campaign_dir,
                                   f"worker-{tag}-0.hb"), "w") as fh:
                json.dump({"worker": 0, "item": None, "t": t}, fh)
        snap = CampaignMonitor(campaign_dir).snapshot()
        assert len(snap.beats) == 1
        assert not snap.beats[0].stale

    def test_torn_beacon_is_skipped(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        with open(os.path.join(campaign_dir, "worker-x-0.hb"), "w") as fh:
            fh.write('{"worker": 0, "it')  # torn mid-write
        snap = CampaignMonitor(campaign_dir).snapshot()
        assert snap.beats == []

    def test_profile_counters_folded(self, tmp_path):
        spec = CampaignSpec(fs="nova", generator="ace", seq=1,
                            max_workloads=4, profile=True)
        campaign_dir = str(tmp_path / "prof")
        CampaignEngine(spec, campaign_dir,
                       EngineConfig(workers=2, batch_size=2)).run()
        snap = CampaignMonitor(campaign_dir).snapshot()
        totals = snap.aggregate().totals
        # Profiles fold their stages like every other TestResult field;
        # the stages with callsites are always there.
        stages = totals["profile"]["stages"]
        assert stages["check"] > 0 and stages["enumerate"] > 0
        assert sum(stages.values()) == pytest.approx(
            snap.aggregate().wall_time + stages.get("other", 0.0))
        frame = CampaignMonitor(campaign_dir).render(snap)
        assert "crash states" in frame

    def test_unprofiled_campaign_shows_no_profile_lines(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        monitor = CampaignMonitor(campaign_dir)
        frame = monitor.render(monitor.snapshot())
        assert "profile bytes:" not in frame


class TestRender:
    def test_dashboard_lines(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        monitor = CampaignMonitor(campaign_dir)
        snap = monitor.snapshot()
        frame = monitor.render(snap)
        assert "nova/ace" in frame
        assert "COMPLETE" in frame
        assert "4/4 (100%)" in frame
        assert "bug reports" in frame
        # The skip counters read as in `repro stats` and report.md.
        lines = snap.aggregate().counter_lines()
        assert "check memo (memo_hits/memo_misses)" in dict(lines)
        for label, text in lines:
            assert f"{label}: {text}" in frame.splitlines()

    def test_worker_liveness_lines(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        monitor = CampaignMonitor(campaign_dir)
        snap = monitor.snapshot()
        snap.state.completed_marker = False
        snap.beats = [
            WorkerBeat(worker=0, item="ace:1:000003", t=time.time()),
            WorkerBeat(worker=1, item=None,
                       t=time.time() - STALE_HEARTBEAT_S - 10),
        ]
        frame = monitor.render(snap)
        assert "w0: running ace:1:000003" in frame
        assert "w1: STALE" in frame

    def test_eta_formatting(self):
        fmt = CampaignMonitor._fmt_eta
        assert fmt(None) == "--"
        assert fmt(42) == "42s"
        assert fmt(90) == "1m30s"
        assert fmt(7265) == "2h01m"


class TestWatchLoop:
    def test_once_on_completed_campaign_exits_zero(self, tmp_path):
        campaign_dir, _ = _run_campaign(tmp_path)
        out = io.StringIO()
        assert watch(campaign_dir, once=True, out=out) == 0
        assert "COMPLETE" in out.getvalue()

    def test_missing_journal_exits_two(self, tmp_path):
        out = io.StringIO()
        assert watch(str(tmp_path), once=True, out=out) == 2
        assert "not a campaign directory" in out.getvalue()

    def test_timeout_on_unfinished_campaign_exits_three(self, tmp_path):
        d = str(tmp_path)
        with open(os.path.join(d, CheckpointJournal.FILENAME), "w") as fh:
            fh.write('{"type":"campaign_meta","spec":{},"n_items":9}\n')
        out = io.StringIO()
        assert watch(d, interval=0.05, timeout=0.2, out=out) == 3

    def test_follows_live_campaign_to_completion(self, tmp_path):
        """The acceptance path: watch() attached while a multi-worker
        campaign runs, and exits 0 when the completion marker lands."""
        spec = CampaignSpec(fs="nova", generator="ace", seq=1,
                            max_workloads=6)
        campaign_dir = str(tmp_path / "live")
        engine = CampaignEngine(spec, campaign_dir,
                                EngineConfig(workers=4, batch_size=1))
        errors = []

        def run():
            try:
                engine.run()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.time() + 60
            while not os.path.exists(
                os.path.join(campaign_dir, CheckpointJournal.FILENAME)
            ):
                assert time.time() < deadline, "campaign never started"
                time.sleep(0.05)
            out = io.StringIO()
            rc = watch(campaign_dir, interval=0.1, timeout=120, out=out)
        finally:
            thread.join(timeout=120)
        assert not errors
        assert rc == 0
        assert "COMPLETE" in out.getvalue()
        assert "6/6" in out.getvalue()
