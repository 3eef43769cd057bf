"""Campaign engine integration: parallelism, fault tolerance, resume.

These tests run real worker processes on tiny seq-1 slices (a workload
takes ~15 ms), injecting faults through the engine's test-only hook.
"""

import itertools
from collections import Counter
import json
import multiprocessing
import os
import signal
import struct

import pytest

from repro.analysis.reporting import CampaignSummary
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CheckpointJournal,
    EngineConfig,
    SpecMismatch,
)
from repro.campaign import worker as workermod
from repro.campaign.engine import _WorkerHandle
from repro.campaign.queue import WorkItem, WorkQueue
from repro.core import Chipmunk
from repro.workloads import ace

N = 14


def spec_for(n=N, **kw):
    kw.setdefault("fs", "nova")
    kw.setdefault("seq", 1)
    kw.setdefault("max_workloads", n)
    return CampaignSpec(**kw)


def run_engine(tmp_path, spec=None, resume=False, **cfg_kw):
    cfg_kw.setdefault("workers", 2)
    cfg_kw.setdefault("batch_size", 3)
    cfg_kw.setdefault("item_timeout", 60.0)
    engine = CampaignEngine(
        spec or spec_for(), str(tmp_path), EngineConfig(**cfg_kw),
        resume=resume,
    )
    return engine.run()


def fingerprint(clusters):
    return [
        (c.exemplar.consequence.name, c.exemplar.detail, c.count)
        for c in clusters
    ]


def journal_records(campaign_dir, kind):
    with open(os.path.join(str(campaign_dir), "journal.jsonl"),
              encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if r["type"] == kind]


def assert_delivered_once(campaign_dir, faulty_id):
    """Every item is journaled once, and only the item the worker died on
    was charged a retry: what it finished before dying was delivered."""
    done = journal_records(campaign_dir, "item_done")
    ids = [r["id"] for r in done]
    assert len(ids) == len(set(ids))
    assert all(r["retries"] == 0 for r in done if r["id"] != faulty_id)


def serial_fingerprint(spec, n):
    chipmunk = spec.build_chipmunk()
    summary = CampaignSummary(fs_name=spec.fs, generator=spec.generator)
    for w in itertools.islice(ace.generate(spec.seq, mode=spec.mode), n):
        summary.add_result(chipmunk.test_workload(w.core, setup=w.setup))
    return fingerprint(summary.clusters)


class TestParallelEqualsSerial:
    def test_bug_set_and_counts_match_serial_run(self, tmp_path):
        merged = run_engine(tmp_path)
        assert merged.summary.workloads_tested == N
        assert fingerprint(merged.clusters) == serial_fingerprint(spec_for(), N)

    def test_journal_covers_every_item_exactly_once(self, tmp_path):
        run_engine(tmp_path)
        state = CheckpointJournal.replay(str(tmp_path))
        assert len(state.results) == N
        assert state.completed_marker

    def test_report_written(self, tmp_path):
        merged = run_engine(tmp_path)
        report = (tmp_path / "report.md").read_text()
        assert "Campaign engine" in report
        assert f"**workloads tested:** {N}" in report
        assert len(merged.clusters) > 0


class TestFaultTolerance:
    def test_worker_crash_requeues_and_completes(self, tmp_path):
        merged = run_engine(
            tmp_path,
            fault={"item_id": "ace:1:000005", "kind": "crash", "times": 1},
        )
        assert merged.engine["workers_killed"] == 1
        assert merged.engine["requeues"] >= 1
        assert not merged.quarantined
        assert merged.summary.workloads_tested == N
        assert fingerprint(merged.clusters) == serial_fingerprint(spec_for(), N)
        assert_delivered_once(tmp_path, "ace:1:000005")

    def test_poison_item_is_quarantined_not_fatal(self, tmp_path):
        merged = run_engine(
            tmp_path, max_retries=1,
            fault={"item_id": "ace:1:000002", "kind": "crash", "times": 99},
        )
        assert [q["id"] for q in merged.quarantined] == ["ace:1:000002"]
        # Only the poison item is missing; its batchmates were not charged.
        assert merged.summary.workloads_tested == N - 1
        report = (tmp_path / "report.md").read_text()
        assert "Quarantined workloads" in report
        assert "ace:1:000002" in report
        assert_delivered_once(tmp_path, "ace:1:000002")

    def test_hung_worker_is_killed_on_timeout(self, tmp_path):
        merged = run_engine(
            tmp_path, item_timeout=1.0, max_retries=0,
            fault={"item_id": "ace:1:000001", "kind": "hang", "times": 1},
        )
        assert merged.engine["workers_killed"] >= 1
        assert [q["id"] for q in merged.quarantined] == ["ace:1:000001"]
        assert merged.summary.workloads_tested == N - 1

    def test_item_error_is_retried_then_quarantined(self, tmp_path):
        merged = run_engine(
            tmp_path, max_retries=1,
            fault={"item_id": "ace:1:000003", "kind": "raise", "times": 99},
        )
        assert [q["id"] for q in merged.quarantined] == ["ace:1:000003"]
        # An in-worker exception must not kill the worker.
        assert merged.engine["workers_killed"] == 0
        assert merged.summary.workloads_tested == N - 1


class TestDelivery:
    def test_torn_last_frame_is_read_as_a_death(self, tmp_path):
        """A worker killed mid-send leaves a frame shorter than its length
        header: draining its pipe must end, neither raising nor blocking."""
        conn, child = multiprocessing.Pipe()
        os.write(child.fileno(), struct.pack("!i", 100) + b"x" * 10)
        child.close()
        engine = CampaignEngine(spec_for(), str(tmp_path))
        handle = _WorkerHandle(wid=0, process=None, conn=conn)

        def blocked(signum, frame):
            raise TimeoutError("draining a torn frame blocked")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)
        try:
            progressed = engine._drain_messages(
                handle, None, None, {}, {}, {}
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            conn.close()
        assert not progressed


    def test_reaping_journals_what_the_dead_worker_sent(
            self, tmp_path, monkeypatch):
        """A worker's result sent just before it died is journaled on
        reaping; only the item it died on is charged a retry."""
        engine = CampaignEngine(spec_for(), str(tmp_path))
        monkeypatch.setattr(engine, "_spawn_worker", lambda: None)
        process = multiprocessing.get_context("fork").Process(target=int)
        process.start()
        process.join(timeout=10)
        assert not process.is_alive()
        conn, child = multiprocessing.Pipe()
        done, died, unstarted = (WorkItem.ace(1, i, i) for i in range(3))
        child.send((workermod.MSG_RESULT, 0, done.item_id, []))
        child.close()
        handle = _WorkerHandle(
            wid=0, process=process, conn=conn,
            in_flight={i.item_id: i for i in (done, died, unstarted)},
        )
        engine._workers[0] = handle
        journal = CheckpointJournal(str(tmp_path))
        journal.open()
        queue = WorkQueue(1, [])
        results, retries = {}, {}
        try:
            engine._reap_failures(queue, journal, results, {}, retries)
        finally:
            journal.close()
        assert results == {done.item_id: []}
        assert [r["id"] for r in journal_records(tmp_path, "item_done")] == [
            done.item_id]
        assert retries == {died.item_id: 1}
        # The charged item runs next, its uncharged batchmate right after.
        assert [i.item_id for i in queue.next_batch(8)] == [
            died.item_id, unstarted.item_id]


class TestResume:
    def test_resume_of_complete_campaign_executes_nothing(self, tmp_path):
        first = run_engine(tmp_path)
        second = run_engine(tmp_path, resume=True)
        assert second.engine["dispatched"] == 0
        assert second.engine["items_resumed"] == N
        assert fingerprint(second.clusters) == fingerprint(first.clusters)

    def test_resume_after_partial_journal_runs_only_remainder(self, tmp_path):
        run_engine(tmp_path)
        state = CheckpointJournal.replay(str(tmp_path))
        # Rewrite the journal keeping only the meta and the first 6 items:
        # the resume must execute exactly the other N - 6.
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        kept, dropped = [], 0
        import json
        for line in lines:
            record = json.loads(line)
            if record["type"] == "campaign_done":
                continue
            if record["type"] == "item_done" and record["ordinal"] >= 6:
                dropped += 1
                continue
            kept.append(line)
        (tmp_path / "journal.jsonl").write_text("\n".join(kept) + "\n")
        assert dropped == N - 6

        merged = run_engine(tmp_path, resume=True)
        assert merged.engine["items_resumed"] == 6
        assert merged.engine["dispatched"] == N - 6
        assert merged.summary.workloads_tested == N
        assert fingerprint(merged.clusters) == serial_fingerprint(spec_for(), N)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        run_engine(tmp_path)
        with pytest.raises(SpecMismatch):
            run_engine(tmp_path, resume=False)

    def test_resume_refuses_different_spec(self, tmp_path):
        run_engine(tmp_path)
        other = spec_for(fs="pmfs")
        with pytest.raises(SpecMismatch):
            run_engine(tmp_path, spec=other, resume=True)


class TestFuzzCampaign:
    def test_fuzz_segments_execute_and_merge(self, tmp_path):
        spec = CampaignSpec(fs="pmfs", generator="fuzz", seed=3, segments=3,
                            executions=4)
        merged = run_engine(tmp_path, spec=spec)
        assert merged.summary.workloads_tested == 12
        state = CheckpointJournal.replay(str(tmp_path))
        assert set(state.results) == {"fuzz:3", "fuzz:4", "fuzz:5"}

    def test_default_segments_split_evenly_across_workers(self, tmp_path):
        # --segments 4 with the default --batch 8: the first ready worker
        # gets its fair share (2), the second 1, and the second, done
        # first, the last.  Segments long enough (~0.1 s) that worker
        # start-up jitter cannot reorder that.
        spec = CampaignSpec(fs="pmfs", generator="fuzz", seed=3, segments=4,
                            executions=30)
        run_engine(tmp_path, spec=spec, batch_size=8)
        done = journal_records(tmp_path, "item_done")
        per_worker = Counter(r["worker"] for r in done)
        assert sorted(per_worker.values()) == [2, 2]

    def test_fuzz_campaign_is_deterministic_per_seed(self, tmp_path):
        spec = CampaignSpec(fs="nova", generator="fuzz", seed=11, segments=2,
                            executions=5)
        a = run_engine(tmp_path / "a", spec=spec)
        b = run_engine(tmp_path / "b", spec=spec)
        assert fingerprint(a.clusters) == fingerprint(b.clusters)


class TestWorkerTraces:
    def test_traces_written_and_merged(self, tmp_path):
        spec = spec_for(trace=True)
        merged = run_engine(tmp_path, spec=spec)
        assert merged.trace_path is not None
        assert os.path.exists(merged.trace_path)
        worker_traces = list(tmp_path.glob("worker-*.trace.jsonl"))
        assert len(worker_traces) == 2
