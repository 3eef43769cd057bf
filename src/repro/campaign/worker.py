"""Campaign worker: the process that actually runs workloads.

Each worker owns a private :class:`~repro.core.harness.Chipmunk` instance
rebuilt from the campaign spec (nothing heavier than a dict crosses the
process boundary) and one duplex pipe to the parent: the parent sends
batches of :class:`~repro.campaign.queue.WorkItem` down it, the worker
streams one message per completed workload back up.
Per-item streaming is what gives the parent per-workload progress — the
engine's timeout clock resets on every message, and a killed worker only
orphans items whose results have not been streamed yet.

ACE items are regenerated worker-side from their index via
:func:`repro.workloads.ace.workload_at`; fuzz items run a whole seed
segment (a fresh :class:`~repro.workloads.fuzzer.WorkloadFuzzer` seeded
with the segment's seed) and stream one result per execution, so both
generators merge identically.

Results ship the answer, not the reports: each report travels as its
triage key, and in full only where it may found a cluster in the merge
(:func:`compact_results`).  A failed item ships its error and a bounded
traceback.

Delivery survives the worker: ``Connection.send`` writes into the pipe in
the calling thread, with no feeder thread to die unflushed, so a result
sent before the worker crashed is still in the pipe when the engine reaps
it.  The engine drains the pipe, journals what arrived, and charges a
retry only to the workload that was running.  The parent's journal is the
one durable copy of a result; the worker writes none.

Fault injection (tests only): the spec's engine config may name an item to
``crash`` (``os._exit``), ``hang`` (sleep past the timeout), or ``raise``
on, with a bounded number of occurrences tracked via marker files in the
campaign directory so the count survives worker respawns.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.reporting import campaign_triage
from repro.campaign.queue import WorkItem
from repro.campaign.spec import CampaignSpec
from repro.core.harness import TestResult
from repro.core.report import BugReport
from repro.memo.client import MemoClient
from repro.obs import Telemetry
from repro.workloads import ace
from repro.workloads.fuzzer import WorkloadFuzzer

#: Message tags the worker sends the parent.
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ITEM_ERROR = "item_error"
MSG_STOPPED = "stopped"

#: Messages the parent sends the worker.
TASK_BATCH = "batch"
TASK_STOP = "stop"

_ORPHAN_POLL_S = 2.0

#: Characters of a failed item's traceback kept for the journal.
TRACEBACK_CHARS = 4000


def _fault_fires(fault: Optional[dict], item: WorkItem, campaign_dir: str) -> Optional[str]:
    """Check (and consume) one occurrence of an injected fault."""
    if not fault or fault.get("item_id") != item.item_id:
        return None
    times = int(fault.get("times", 1))
    slug = item.item_id.replace(":", "_")
    fired = sum(
        1 for name in os.listdir(campaign_dir)
        if name.startswith(f"fault.{slug}.")
    )
    if fired >= times:
        return None
    marker = os.path.join(campaign_dir, f"fault.{slug}.{fired}")
    with open(marker, "w", encoding="utf-8"):
        pass
    return str(fault.get("kind", "crash"))


def bounded_traceback() -> str:
    """The current exception's traceback, keeping its last
    :data:`TRACEBACK_CHARS` characters — the innermost frames are the ones
    that name the fault."""
    text = traceback.format_exc()
    if len(text) <= TRACEBACK_CHARS:
        return text
    return "..." + text[-TRACEBACK_CHARS:]


def _write_heartbeat(path: str, wid: int, item_id: Optional[str]) -> None:
    """Overwrite the worker's liveness beacon (best-effort, no fsync).

    ``repro watch`` reads these to tell a worker grinding through a slow
    workload from one that is wedged.  Liveness is advisory — losing a
    beacon to a crash costs nothing, so it is deliberately not durable.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"worker": wid, "item": item_id, "t": round(time.time(), 3)}
            ))
    except OSError:
        pass


def _run_item(chipmunk, spec: CampaignSpec, item: WorkItem) -> List[TestResult]:
    """Execute one work item, returning its per-workload results."""
    if item.kind == "ace":
        workload = ace.workload_at(item.seq, item.index, mode=spec.mode)
        return [chipmunk.test_workload(workload.core, setup=workload.setup)]
    fuzzer = WorkloadFuzzer(chipmunk, seed=item.seed)
    return [fuzzer.step() for _ in range(item.executions)]


def compact_results(
    results: List[TestResult], ordinal: int, shipped: Dict[tuple, tuple],
    key_of: Callable[[BugReport], tuple],
) -> Tuple[List[dict], Dict[tuple, tuple]]:
    """Serialize one item's results for the parent, reports compacted.

    Each report becomes ``{"key": K}`` with ``K = key_of(report)`` — all
    the merge's clustering reads of it.  The entry also carries the
    report's fields unless this worker already streamed ``K`` at an
    earlier or equal canonical position ``(ordinal, result index)``;
    ``shipped`` maps each streamed key to its least such position.  Only
    the canonical-first report of a key can found a cluster (see
    :class:`~repro.core.triage.Triage`), and no worker can have streamed
    that key at an earlier position, so whichever runs it ships it in full.

    Returns the dicts and the ``shipped`` updates; the caller applies the
    updates once the results are streamed.
    """
    out: List[dict] = []
    updates: Dict[tuple, tuple] = {}
    for index, result in enumerate(results):
        position = (ordinal, index)
        entries = []
        for report in result.reports:
            key = key_of(report)
            entry: Dict[str, object] = {"key": key}
            seen = updates.get(key, shipped.get(key))
            if seen is None or seen > position:
                entry.update(report.to_dict())
                updates[key] = position
            entries.append(entry)
        data = result.to_dict(reports=False)
        data["reports"] = entries
        out.append(data)
    return out, updates


def worker_main(
    wid: int,
    spec_dict: Dict[str, object],
    conn,
    campaign_dir: str,
    fault: Optional[dict] = None,
    run_tag: str = "run",
    memo_address: Optional[str] = None,
) -> None:
    """Process entrypoint (top-level so it survives spawn-style pickling).

    ``run_tag`` distinguishes engine invocations: a resumed campaign's
    workers must not overwrite the original run's trace files.
    ``memo_address`` is the ``HOST:PORT`` of the engine's shared
    check-memo server; the client degrades to local-only memoization on
    any failure, so a dead server costs a few timeouts, never the
    campaign.
    """
    spec = CampaignSpec.from_dict(spec_dict)
    telemetry = None
    if spec.trace:
        telemetry = Telemetry()
        telemetry.meta.update(
            fs=spec.fs, generator=spec.generator, worker=wid, run=run_tag,
        )
    shared = MemoClient(memo_address) if memo_address else None
    chipmunk = spec.build_chipmunk(telemetry=telemetry, shared_memo=shared)
    hb_path = os.path.join(campaign_dir, f"worker-{run_tag}-{wid}.hb")
    key_of = campaign_triage().key_of
    #: Triage key -> least (ordinal, result index) this worker streamed it at.
    shipped: Dict[tuple, tuple] = {}
    _write_heartbeat(hb_path, wid, None)
    conn.send((MSG_READY, wid))
    while True:
        if not conn.poll(_ORPHAN_POLL_S):
            # Timeout: if the parent died (SIGKILL leaves no one to send
            # "stop"), we are reparented — exit rather than leak.
            if os.getppid() == 1:
                return
            continue
        message = conn.recv()
        if message[0] == TASK_STOP:
            break
        batch = [WorkItem.from_dict(d) for d in message[1]]
        for item in batch:
            _write_heartbeat(hb_path, wid, item.item_id)
            kind = _fault_fires(fault, item, campaign_dir)
            if kind == "crash":
                os._exit(41)
            elif kind == "hang":
                time.sleep(3600.0)
            try:
                if kind == "raise":
                    raise RuntimeError("injected fault")
                results, updates = compact_results(
                    _run_item(chipmunk, spec, item), item.ordinal, shipped,
                    key_of,
                )
            except Exception as exc:  # noqa: BLE001 — fault boundary
                conn.send((MSG_ITEM_ERROR, wid, item.item_id,
                           f"{type(exc).__name__}: {exc}",
                           bounded_traceback()))
            else:
                conn.send((MSG_RESULT, wid, item.item_id, results))
                shipped.update(updates)
        _write_heartbeat(hb_path, wid, None)
        conn.send((MSG_READY, wid))
    if telemetry is not None:
        telemetry.event("worker_stop", worker=wid)
        trace_path = os.path.join(
            campaign_dir, f"worker-{run_tag}-{wid}.trace.jsonl"
        )
        try:
            telemetry.export_jsonl(trace_path)
        except OSError:
            pass
    if shared is not None:
        shared.close()
    conn.send((MSG_STOPPED, wid))
