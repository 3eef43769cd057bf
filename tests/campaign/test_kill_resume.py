"""Kill-resume integration: SIGKILL a live campaign process, then resume.

This is the end-to-end crash-consistency test of the campaign engine
itself: a real ``python -m repro campaign`` process is hard-killed (whole
process group, no cleanup handlers run) mid-flight, and the resumed run
must (a) skip every journaled workload, (b) execute each remaining
workload exactly once, and (c) converge on the same bug set as a run that
was never interrupted, and on the serial path's ``bugs.json`` byte for
byte.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from conftest import serial_bugs_json
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CheckpointJournal,
    EngineConfig,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: seq-2 slice per sequence length: 55 seq-1 + 200 seq-2 = 255 work items,
#: several seconds of wall clock — plenty of window to kill mid-flight.
MAX_WORKLOADS = 200
TOTAL_ITEMS = 55 + MAX_WORKLOADS
#: Journaled completions to wait for before pulling the plug.
KILL_AFTER = 10


def campaign_spec():
    return CampaignSpec(fs="nova", seq=2, max_workloads=MAX_WORKLOADS)


def journal_done_ids(campaign_dir):
    path = os.path.join(str(campaign_dir), "journal.jsonl")
    done = []
    if not os.path.exists(path):
        return done
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from the kill
            if record.get("type") == "item_done":
                done.append(record["id"])
    return done


def fingerprint(clusters):
    return sorted(
        (c.exemplar.consequence.name, c.exemplar.detail, c.count)
        for c in clusters
    )


@pytest.mark.slow
def test_sigkill_then_resume_equals_uninterrupted_run(tmp_path):
    killed_dir = tmp_path / "killed"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "nova",
            "--workers", "2", "--seq", "2",
            "--max-workloads", str(MAX_WORKLOADS),
            "--out", str(killed_dir),
        ],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,  # own process group: one killpg takes all
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(journal_done_ids(killed_dir)) >= KILL_AFTER:
                break
            if process.poll() is not None:
                pytest.fail(
                    "campaign finished before it could be killed; "
                    "raise MAX_WORKLOADS"
                )
            time.sleep(0.05)
        else:
            pytest.fail("campaign never journaled enough progress to kill")
        os.killpg(process.pid, signal.SIGKILL)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait(timeout=30)

    done_before = journal_done_ids(killed_dir)
    assert KILL_AFTER <= len(done_before) < TOTAL_ITEMS
    # The journal is the one durable copy of a result: workers keep none.
    assert not list(killed_dir.glob("worker-*.results.jsonl"))
    state = CheckpointJournal.replay(str(killed_dir))
    assert not state.completed_marker

    # Resume: journaled workloads are skipped, the rest run exactly once.
    resumed = CampaignEngine(
        campaign_spec(), str(killed_dir), EngineConfig(workers=2),
        resume=True,
    ).run()
    assert resumed.engine["items_resumed"] == len(set(done_before))
    assert resumed.summary.workloads_tested == TOTAL_ITEMS
    assert not resumed.quarantined

    done_after = journal_done_ids(killed_dir)
    assert len(done_after) == len(set(done_after)) == TOTAL_ITEMS

    # The merged bug set must match a run that was never interrupted.
    uninterrupted = CampaignEngine(
        campaign_spec(), str(tmp_path / "uninterrupted"),
        EngineConfig(workers=2),
    ).run()
    assert fingerprint(resumed.clusters) == fingerprint(uninterrupted.clusters)
    assert (
        resumed.summary.workloads_tested
        == uninterrupted.summary.workloads_tested
    )
    # Byte for byte: the resumed run's workers started with no record of
    # what the killed run's workers shipped, and the merge still finds a
    # full report for every cluster it founds.
    assert (killed_dir / "bugs.json").read_bytes() == serial_bugs_json(
        campaign_spec()
    )
