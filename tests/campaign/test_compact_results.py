"""Compact worker results: the merge replays triage keys, not reports.

Workers ship each report as its triage key and in full only where it may
found a cluster.  These tests hold the parallel campaign's ``bugs.json``
byte-equal to the serial path's on every registry entry, under fault
injection and kill-resume, and pin how many report bodies the journal may
hold.
"""

import json
import os

import pytest

from conftest import serial_bugs_json
from repro.analysis.reporting import last_frame
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CheckpointJournal,
    EngineConfig,
)
from repro.campaign.watch import CampaignMonitor
from repro.fs.registry import FS_CLASSES
from repro.obs.diff import diff_sides, load_side

#: seq-1 and seq-2 workloads per slice (``max_workloads`` caps each).
SLICE = 12
BUG_SETS = {"catalogue": None, "fixed": []}


def run_engine(tmp_path, spec, **cfg_kw):
    cfg_kw.setdefault("workers", 2)
    cfg_kw.setdefault("batch_size", 3)
    return CampaignEngine(spec, str(tmp_path), EngineConfig(**cfg_kw)).run()


def journal_entries(campaign_dir):
    """``(worker, ordinal, result index, entry)`` per journaled report, in
    journal order."""
    out = []
    with open(os.path.join(str(campaign_dir), "journal.jsonl"),
              encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["type"] != "item_done":
                continue
            for index, result in enumerate(record["results"]):
                for entry in result["reports"]:
                    out.append((record["worker"], record["ordinal"], index,
                                entry))
    return out


def has_body(entry):
    return "fs_name" in entry


@pytest.mark.parametrize("bugs", sorted(BUG_SETS))
@pytest.mark.parametrize("fs", sorted(FS_CLASSES()))
def test_two_workers_write_the_serial_bugs_json(tmp_path, fs, bugs):
    spec = CampaignSpec(fs=fs, seq=2, max_workloads=SLICE,
                        bug_ids=BUG_SETS[bugs])
    run_engine(tmp_path, spec)
    assert (tmp_path / "bugs.json").read_bytes() == serial_bugs_json(spec)


NOVA = CampaignSpec(fs="nova", seq=2, max_workloads=SLICE)


@pytest.fixture(scope="module")
def nova_reference():
    return serial_bugs_json(NOVA)


class TestFaults:
    @pytest.mark.parametrize("kind", ["crash", "raise"])
    def test_retried_item_keeps_bugs_json(self, tmp_path, nova_reference,
                                          kind):
        # ace:2:000003 reports; its first run dies (or raises) mid-campaign.
        merged = run_engine(
            tmp_path, NOVA,
            fault={"item_id": "ace:2:000003", "kind": kind, "times": 1},
        )
        assert merged.engine["requeues"] >= 1
        assert not merged.quarantined
        assert (tmp_path / "bugs.json").read_bytes() == nova_reference

    def test_quarantine_carries_the_traceback(self, tmp_path):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=6)
        merged = run_engine(
            tmp_path, spec, max_retries=1,
            fault={"item_id": "ace:1:000003", "kind": "raise", "times": 99},
        )
        (record,) = merged.quarantined
        assert record["error"] == "RuntimeError: injected fault"
        assert record["traceback"].startswith("Traceback")
        assert record["traceback"].rstrip().endswith(
            "RuntimeError: injected fault")
        frame = last_frame(record["traceback"])
        assert frame.startswith("worker.py:") and frame.endswith(
            " in worker_main")
        # The journal keeps it, and report.md and watch show the frame.
        state = CheckpointJournal.replay(str(tmp_path))
        assert state.quarantined["ace:1:000003"]["traceback"] == (
            record["traceback"])
        assert f"`{frame}`" in (tmp_path / "report.md").read_text()
        monitor = CampaignMonitor(str(tmp_path))
        assert (f"quarantined ace:1:000003: RuntimeError: injected fault "
                f"(raised at {frame})") in monitor.render(monitor.snapshot())

    def test_a_dead_worker_leaves_no_traceback(self, tmp_path):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=6)
        merged = run_engine(
            tmp_path, spec, max_retries=0,
            fault={"item_id": "ace:1:000002", "kind": "crash", "times": 99},
        )
        (record,) = merged.quarantined
        assert record["error"] == "worker died"
        assert "traceback" not in record
        report = (tmp_path / "report.md").read_text()
        assert "| `ace:1:000002` | 1 | worker died | - |" in report


class TestJournalBodies:
    def test_bodies_only_where_a_worker_first_streams_a_key(self, tmp_path):
        run_engine(tmp_path, NOVA, workers=3)
        entries = journal_entries(tmp_path)
        assert entries, "expected reports in the slice"
        # Each worker's records are journaled in the order it streamed
        # them, so its compaction rule can be replayed from outside.
        least = {}
        for worker, ordinal, index, entry in entries:
            key = (worker, json.dumps(entry["key"]))
            position = (ordinal, index)
            first = key not in least or least[key] > position
            assert has_body(entry) == first, (worker, position, entry["key"])
            if first:
                least[key] = position

    @pytest.mark.parametrize("fault", [None, "raise"])
    def test_body_count_is_bounded_by_workers_times_keys(self, tmp_path,
                                                          fault):
        fault = fault and {"item_id": "ace:2:000003", "kind": fault,
                           "times": 1}
        merged = run_engine(tmp_path, NOVA, workers=3, fault=fault)
        entries = journal_entries(tmp_path)
        keys = {json.dumps(e["key"]) for *_, e in entries}
        workers = {w for w, *_ in entries}
        assert len(entries) == merged.summary.total("n_reports")
        # A worker ships a key again only on a workload earlier than one
        # it already ran — a retried item back at its shard's head, or a
        # steal from a shard's tail — and then at most that item's keys.
        latest, late_keys = {}, {}
        for worker, ordinal, _, entry in entries:
            if ordinal < latest.setdefault(worker, ordinal):
                late_keys.setdefault(ordinal, set()).add(
                    json.dumps(entry["key"]))
            latest[worker] = max(latest[worker], ordinal)
        bodies = sum(has_body(e) for *_, e in entries)
        assert bodies <= (len(workers) * len(keys)
                          + sum(map(len, late_keys.values())))
        assert bodies < len(entries) / 4


def test_diff_without_bugs_json_folds_the_journal(tmp_path, nova_reference):
    run_engine(tmp_path / "camp", NOVA)
    os.remove(tmp_path / "camp" / "bugs.json")
    (tmp_path / "serial.json").write_bytes(nova_reference)
    diff = diff_sides(load_side(str(tmp_path / "serial.json")),
                      load_side(str(tmp_path / "camp")), strict=True)
    assert diff.clusters_compared
    assert (diff.appeared, diff.disappeared) == ([], [])
    assert diff.strict_equal
    assert len(diff.persisting) == len(json.loads(nova_reference)["reports"])
